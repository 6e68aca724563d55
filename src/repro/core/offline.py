"""Offline-optimal solver for the Eq. 8 streaming problem.

Section IV-C opens with: "Ideally, if the future bandwidth for
downloading each video segment is known, the optimization problem in
Eq. 8 can be solved, and the optimal (v, f) tuple can be obtained for
each segment."  This module implements exactly that oracle: a dynamic
program over the whole session with perfect knowledge of the network
trace, which lower-bounds the energy any online controller (including
the paper's MPC) can achieve.

The state space is the same discretized buffer as the MPC's
(500 ms granularity); wall-clock time is tracked per state so download
times can be evaluated against the *actual* trace rather than a
prediction.  Comparing :func:`solve_offline` with the MPC's realized
energy measures the online algorithm's optimality gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import fold_sum
from ..power.energy import EnergyModel
from ..power.models import TilingScheme
from ..traces.network import NetworkTrace
from .optimizer import MpcConfig, MpcWindow

__all__ = ["OfflinePlan", "solve_offline"]


@dataclass(frozen=True)
class OfflinePlan:
    """The oracle's per-segment decisions and their cost."""

    decisions: tuple[tuple[int, int], ...]  # (quality, frame-rate index)
    total_energy_j: float
    total_qoe: float
    final_buffer_s: float

    @property
    def num_segments(self) -> int:
        return len(self.decisions)

    def mean_quality(self) -> float:
        return float(np.mean([v for v, _ in self.decisions]))

    def mean_frame_rate_index(self) -> float:
        return float(np.mean([f for _, f in self.decisions]))


def solve_offline(
    window: MpcWindow,
    network: NetworkTrace,
    energy_model: EnergyModel,
    config: MpcConfig = MpcConfig(),
    initial_buffer_s: float = 0.0,
) -> OfflinePlan:
    """Solve Eq. 8 over a whole session with perfect future knowledge.

    ``window`` stacks every segment's (sizes, QoE) version tables (the
    same :class:`MpcWindow` structure the MPC consumes, spanning the
    whole session instead of one horizon).  The DP state
    is (segment index, discretized buffer level); each state carries the
    earliest wall-clock time it can be reached at minimum energy, so
    download durations are integrated over the true trace.

    The QoE floor of constraint (8c) is applied per segment against the
    best version sustainable at the true average bandwidth of that
    segment's download window, mirroring the online controller's
    sustainable-vm rule but with oracle knowledge.
    """
    levels = config.state_levels()
    n_states = len(levels)

    # Per-state: (energy, wall_time, path); the session starts at t=0
    # with the given (usually empty) buffer.
    best: list[tuple[float, float, list[tuple[int, int]]] | None] = [
        None
    ] * n_states
    best[config.snap(initial_buffer_s)] = (0.0, 0.0, [])

    for sizes, qoe in zip(window.sizes_mbit, window.qoe):
        nxt: list[tuple[float, float, list[tuple[int, int]]] | None] = [
            None
        ] * n_states
        for allow_stall in (False, True):
            for state, entry in enumerate(best):
                if entry is None:
                    continue
                energy_so_far, wall_t, path = entry
                buffer_level = float(levels[state])
                wait = max(buffer_level - config.buffer_threshold_s, 0.0)
                t_request = wall_t + wait
                level_at_request = buffer_level - wait

                for v, f in _feasible(sizes, qoe, network, t_request,
                                       config):
                    size = float(sizes[v - 1, f - 1])
                    dl = network.download_time(size, t_request)
                    stall = max(dl - level_at_request, 0.0)
                    # Eq. 7 forbids rebuffering; startup is exempt, and
                    # a second pass allows forced stalls when the
                    # network leaves no stall-free option at all.
                    if stall > 0 and path and not allow_stall:
                        continue
                    rate = window.frame_rates[f - 1]
                    energy = (
                        energy_model.transmission_energy_from_time_j(dl)
                        + energy_model.decoding_energy_j(
                            TilingScheme.PTILE, rate
                        )
                        + energy_model.rendering_energy_j(rate)
                    )
                    next_level = min(
                        max(level_at_request - dl, 0.0)
                        + config.segment_seconds,
                        config.buffer_threshold_s,
                    )
                    next_state = config.snap(next_level)
                    total = energy_so_far + energy
                    current = nxt[next_state]
                    if current is None or total < current[0]:
                        nxt[next_state] = (
                            total,
                            t_request + dl,
                            path + [(v, f)],
                        )
            if any(e is not None for e in nxt):
                break
        best = nxt
        if all(e is None for e in best):  # pragma: no cover - safety net
            raise RuntimeError("offline DP has no feasible trajectory")

    final_state, entry = min(
        ((i, e) for i, e in enumerate(best) if e is not None),
        key=lambda item: item[1][0],
    )
    energy, _, path = entry
    qoe = fold_sum(
        float(seg_qoe[v - 1, f - 1]) for seg_qoe, (v, f) in zip(window.qoe, path)
    )
    return OfflinePlan(
        decisions=tuple(path),
        total_energy_j=energy,
        total_qoe=qoe,
        final_buffer_s=float(levels[final_state]),
    )


def _feasible(
    sizes_mbit: np.ndarray,
    qoe: np.ndarray,
    network: NetworkTrace,
    t_request: float,
    config: MpcConfig,
) -> list[tuple[int, int]]:
    """Versions of one (V, F) segment satisfying the oracle's QoE
    floor (constraint 8c)."""
    v_count, f_count = sizes_mbit.shape
    top_f = f_count

    def sustainable(v: int) -> bool:
        # Purely rate-based: one segment per segment duration.  Letting
        # vm grow with the instantaneous buffer would make the QoE floor
        # buffer-dependent and reward the oracle for starving its own
        # buffer to keep the floor low.
        size = float(sizes_mbit[v - 1, top_f - 1])
        dl = network.download_time(size, t_request)
        return dl <= config.segment_seconds

    vm = 0
    for v in range(v_count, 0, -1):
        if sustainable(v):
            vm = v
            break
    if vm == 0:
        floor = (1.0 - config.qoe_tolerance) * float(qoe[0, top_f - 1])
        return [
            (1, f) for f in range(1, f_count + 1) if qoe[0, f - 1] >= floor
        ]
    floor = (1.0 - config.qoe_tolerance) * float(qoe[vm - 1, top_f - 1])
    feasible = [
        (v, f)
        for v in range(1, v_count + 1)
        for f in range(1, f_count + 1)
        if qoe[v - 1, f - 1] >= floor
    ]
    return feasible or [(vm, top_f)]
