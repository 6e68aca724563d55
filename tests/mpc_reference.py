"""The scalar reference DP for Eq. 8: the parity oracle of the MPC.

Production solves every MPC window with the batched
:meth:`~repro.core.optimizer.EnergyQoEMpc.choose_batch`.  This module
keeps the original per-(state, version) dynamic program, written for
clarity rather than speed, and every MPC parity test compares the
production solver against :func:`choose_reference` — same (v, f), same
planned energy to the last ulp, same tie-breaking.
"""

from __future__ import annotations

import numpy as np

from repro.core.optimizer import EnergyQoEMpc, MpcConfig, MpcDecision, MpcWindow
from repro.power.energy import EnergyModel
from repro.power.models import TilingScheme


def choose_reference(
    mpc: EnergyQoEMpc,
    window: MpcWindow,
    bandwidth_mbps: float,
    buffer_s: float,
) -> MpcDecision:
    """Pick (v, f) for the first segment of ``window`` by the scalar DP."""
    if bandwidth_mbps <= 0:
        raise ValueError("bandwidth must be positive")
    cfg = mpc.config
    bandwidth_mbps = bandwidth_mbps * cfg.bandwidth_safety
    horizon = min(window.num_segments, cfg.horizon)
    levels = cfg.state_levels()

    # DP tables: per state, the minimum energy and the decision path.
    start = cfg.snap(buffer_s)
    costs: dict[int, float] = {start: 0.0}
    paths: dict[int, list[tuple[int, int]]] = {start: []}

    for h in range(horizon):
        sizes = window.sizes_mbit[h]
        new_costs: dict[int, float] = {}
        new_paths: dict[int, list[tuple[int, int]]] = {}
        for state, cost in costs.items():
            buffer_level = float(levels[state])
            for v, f in feasible_versions(
                cfg, sizes, window.qoe[h], bandwidth_mbps, buffer_level
            ):
                size = float(sizes[v - 1, f - 1])
                dl = size / bandwidth_mbps
                energy = version_energy(
                    mpc.energy_model, size, bandwidth_mbps,
                    window.frame_rates[f - 1],
                )
                next_level = max(buffer_level - dl, 0.0) + cfg.segment_seconds
                next_state = cfg.snap(min(next_level, cfg.buffer_threshold_s))
                total = cost + energy
                if total < new_costs.get(next_state, np.inf):
                    new_costs[next_state] = total
                    new_paths[next_state] = paths[state] + [(v, f)]
        costs, paths = new_costs, new_paths

    best_state = min(costs, key=lambda s: costs[s])
    first_v, first_f = paths[best_state][0]
    return MpcDecision(
        quality=first_v,
        frame_rate_index=first_f,
        frame_rate=window.frame_rates[first_f - 1],
        planned_energy_j=float(costs[best_state]),
    )


def feasible_versions(
    config: MpcConfig,
    sizes_mbit: np.ndarray,
    qoe: np.ndarray,
    bandwidth_mbps: float,
    buffer_s: float,
) -> list[tuple[int, int]]:
    """Versions of one (V, F) segment satisfying the no-stall and QoE
    constraints.

    The QoE floor is ``(1 - eps) * Q(vm, fm)`` where (vm, fm) is the
    highest bitrate at the full frame rate whose version can be
    *successfully downloaded*, i.e. sustained at the predicted
    bandwidth (one segment per segment duration) — the same quality
    a pure quality-maximizing Ptile client would pick.  Actual
    candidates must additionally finish before the buffer drains
    (no-stall, Eq. 7).  When nothing is stall-free (e.g. cold start),
    the constraint relaxes to the lowest bitrate's frame-rate ladder.
    """
    v_count, f_count = sizes_mbit.shape
    top_f = f_count  # highest frame rate index

    def downloadable(v: int, f: int) -> bool:
        return sizes_mbit[v - 1, f - 1] / bandwidth_mbps <= buffer_s

    def sustainable(v: int, f: int) -> bool:
        dl = sizes_mbit[v - 1, f - 1] / bandwidth_mbps
        return dl <= min(config.segment_seconds, buffer_s)

    vm = 0
    for v in range(v_count, 0, -1):
        if sustainable(v, top_f):
            vm = v
            break

    if vm == 0:
        # Nothing stall-free: fall back to the lowest bitrate and keep
        # the QoE tolerance within its own frame-rate ladder.
        floor = (1.0 - config.qoe_tolerance) * float(qoe[0, top_f - 1])
        return [
            (1, f) for f in range(1, f_count + 1) if qoe[0, f - 1] >= floor
        ]

    floor = (1.0 - config.qoe_tolerance) * float(qoe[vm - 1, top_f - 1])
    feasible = [
        (v, f)
        for v in range(1, v_count + 1)
        for f in range(1, f_count + 1)
        if downloadable(v, f) and qoe[v - 1, f - 1] >= floor
    ]
    if not feasible:  # (vm, top_f) always qualifies, but be safe
        feasible = [(vm, top_f)]
    return feasible


def version_energy(
    energy_model: EnergyModel,
    size_mbit: float,
    bandwidth_mbps: float,
    frame_rate: float,
) -> float:
    """Eq. 1 energy of one version under the predicted bandwidth."""
    return (
        energy_model.transmission_energy_j(size_mbit, bandwidth_mbps)
        + energy_model.decoding_energy_j(TilingScheme.PTILE, frame_rate)
        + energy_model.rendering_energy_j(frame_rate)
    )


def decisions_from_columns(columns, frame_rates) -> list[MpcDecision]:
    """``choose_batch``'s ``(quality, rate index, energy)`` columns as
    one :class:`MpcDecision` per row, the form the reference returns."""
    quality, rate_idx, energy = columns
    return [
        MpcDecision(v + 1, f + 1, frame_rates[f], e)
        for v, f, e in zip(quality.tolist(), rate_idx.tolist(), energy.tolist())
    ]
