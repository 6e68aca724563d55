"""MPC + dynamic-programming quality/frame-rate selection (Section IV-C).

The energy-efficient and QoE-aware streaming problem (Eq. 8) minimizes
total energy subject to (a) no rebuffering (Eq. 6-7), (b) one quality
version per segment (8b), and (c) a bounded QoE loss relative to the
best downloadable version (8c, tolerance epsilon = 5 %).

Perfect future knowledge being impossible, the paper solves it online
with Model Predictive Control: at each segment, predict bandwidth for
the next H segments (harmonic mean), solve Eq. 8 over that window by
dynamic programming on a discretized buffer state (500 ms granularity),
apply the first decision, slide the window.  The DP's Bellman equation::

    U*(B_i, v_i, f_i) = min_{v,f} { U*(B_{i-1}, v_{i-1}, f_{i-1}) + E(T_i^{v,f}) }

runs in O(H * V * F) per chosen buffer state.  Each step reduces only
its live candidates — feasible versions out of reached buffer states —
into per-(request, target state) slots by scatter-min, in the scalar
scan's order, so ties break exactly as in the scalar DP.

The solver answers in columns: :meth:`EnergyQoEMpc.choose_batch`
returns the 0-based quality and frame-rate indices and the planned
energy of every row as arrays, which batch callers index their size,
rate and energy tables with; :meth:`EnergyQoEMpc.choose` wraps its one
row as an :class:`MpcDecision`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..power.energy import EnergyModel
from ..power.models import TilingScheme

__all__ = ["MpcConfig", "MpcWindow", "MpcDecision", "EnergyQoEMpc"]

# Rows per DP pass.  A pass lays its window out as (H, rows * S * J)
# candidate arrays and scatters each step's live candidates into
# rows * S slots, so a population step stacking thousands of sessions
# is solved in blocks of this many rows to bound that working set.
_BLOCK_ROWS = 128


@dataclass(frozen=True)
class MpcConfig:
    """MPC parameters (paper Section IV-C / V-A defaults)."""

    horizon: int = 5
    buffer_granularity_s: float = 0.5
    buffer_threshold_s: float = 3.0
    qoe_tolerance: float = 0.05  # epsilon in constraint (8c)
    segment_seconds: float = 1.0
    bandwidth_safety: float = 0.9  # discount on the bandwidth estimate

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.buffer_granularity_s <= 0 or self.buffer_threshold_s <= 0:
            raise ValueError("buffer parameters must be positive")
        if not (0.0 <= self.qoe_tolerance < 1.0):
            raise ValueError("tolerance must be in [0, 1)")
        # ``not x > 0`` also rejects NaN.
        if not self.segment_seconds > 0:
            raise ValueError("segment_seconds must be positive")
        if not self.bandwidth_safety > 0:
            raise ValueError("bandwidth_safety must be positive")

    @property
    def num_states(self) -> int:
        return int(round(self.buffer_threshold_s / self.buffer_granularity_s)) + 1

    def state_levels(self) -> np.ndarray:
        """The discretized buffer levels (0 .. beta, 500 ms steps)."""
        return np.arange(self.num_states) * self.buffer_granularity_s

    def snap(self, buffer_s: float) -> int:
        """Nearest state index for a continuous buffer level."""
        idx = int(round(buffer_s / self.buffer_granularity_s))
        return min(max(idx, 0), self.num_states - 1)


@dataclass(frozen=True)
class MpcWindow:
    """A whole lookahead window stacked into single tensors.

    ``sizes_mbit[h, v-1, f-1]`` and ``qoe[h, v-1, f-1]`` are the size
    and predicted quality ``Q_o(v) * factor(f)`` of version (v, f) of
    the h-th lookahead segment (the current segment is ``h = 0``; v and
    f are 1-based in the paper).  ``frame_rates[f-1]`` are the actual
    fps values, needed for the decode/render power terms; all segments
    share that one ladder.  A shorter-than-horizon window near the
    video end is fine.
    """

    sizes_mbit: np.ndarray
    qoe: np.ndarray
    frame_rates: tuple[float, ...]

    def __post_init__(self) -> None:
        sizes = np.asarray(self.sizes_mbit, dtype=float)
        qoe = np.asarray(self.qoe, dtype=float)
        if sizes.shape != qoe.shape or sizes.ndim != 3:
            raise ValueError("sizes and qoe must be equal-shape 3D arrays")
        if sizes.shape[0] < 1:
            raise ValueError("need at least one lookahead segment")
        if sizes.shape[2] != len(self.frame_rates):
            raise ValueError("frame-rate axis mismatch")
        if np.any(sizes <= 0):
            raise ValueError("sizes must be positive")
        object.__setattr__(self, "sizes_mbit", sizes)
        object.__setattr__(self, "qoe", qoe)

    @property
    def num_segments(self) -> int:
        return int(self.sizes_mbit.shape[0])

    @property
    def num_qualities(self) -> int:
        return int(self.sizes_mbit.shape[1])


@dataclass(frozen=True)
class MpcDecision:
    """The (v, f) decision for the current segment."""

    quality: int  # 1-based bitrate level
    frame_rate_index: int  # 1-based frame-rate index
    frame_rate: float
    planned_energy_j: float  # DP total over the horizon


class EnergyQoEMpc:
    """Solves the horizon problem of Eq. 8 by buffer-state DP.

    :meth:`choose_batch` is the one solver: it runs B same-shape
    windows through a vectorized DP, in blocks of at most
    ``_BLOCK_ROWS`` rows.  Every per-(v, f) download time, Eq. 1
    energy, feasibility test and target state is computed once per
    window, the per-frame-rate decode/render energies are cached across
    calls, and each step reduces only its live candidates (feasible
    versions out of reached states) by scatter-min.  :meth:`choose` is
    its one-row form and the one place an :class:`MpcDecision` is
    built.  Each decision is bit-identical — including
    tie-breaking — to the original scalar per-(state, version) dynamic
    program, which the test suite keeps as the parity oracle.
    """

    def __init__(self, energy_model: EnergyModel, config: MpcConfig = MpcConfig()):
        self.energy_model = energy_model
        self.config = config
        # (frame_rates tuple) -> (decode_j, render_j) arrays, one per rate.
        self._rate_cache: dict[tuple[float, ...], tuple[np.ndarray, np.ndarray]] = {}

    def choose(
        self, window: MpcWindow, bandwidth_mbps: float, buffer_s: float
    ) -> MpcDecision:
        """Pick (v, f) for the first segment of ``window``.

        ``window`` holds the current segment first, then up to H-1
        future segments; segments past the horizon are ignored.
        """
        quality, rate_idx, energy = self.choose_batch(
            window.sizes_mbit[None], window.qoe[None], window.frame_rates,
            np.array([bandwidth_mbps], dtype=float),
            np.array([buffer_s], dtype=float),
        )
        f = int(rate_idx[0])
        return MpcDecision(
            quality=int(quality[0]) + 1,
            frame_rate_index=f + 1,
            frame_rate=window.frame_rates[f],
            planned_energy_j=float(energy[0]),
        )

    def choose_batch(
        self,
        sizes_mbit: np.ndarray,
        qoe: np.ndarray,
        frame_rates: tuple[float, ...],
        bandwidths_mbps: np.ndarray,
        buffers_s: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve B same-shape windows by the live-candidate DP.

        ``sizes_mbit`` and ``qoe`` are stacked ``(B, H, V, F)`` tensors
        (one :class:`MpcWindow` per batch row, all sharing one
        frame-rate ladder and horizon length); ``bandwidths_mbps`` and
        ``buffers_s`` are per-request ``(B,)`` vectors.  Returns the
        decisions as ``(B,)`` columns in batch order: the 0-based
        quality index ``v - 1``, the 0-based frame-rate index ``f - 1``
        and the planned energy (the DP total over the horizon).  Rows
        never interact, so a row's decision does not depend on the
        batch it rides in.

        Identity with the scalar reference DP is not just numerical but
        *order-exact*: the scalar scan resolves equal-cost ties by dict
        insertion order (first state reaching a buffer level owns its
        slot until strictly beaten, and the final ``min`` keeps the
        earliest inserted state among equals).  The solver keeps that
        order implicitly: each step generates its candidates from the
        reached states sorted by first-reach position, then by version,
        so a candidate's position in its step is its scalar scan key.
        Each slot's winner is the first position among its
        equal-minimal costs, the next step's state order is each slot's
        first-reach position, and the final state is the earliest
        reached among equal-minimal costs.  Ties between float-identical
        paths — common when consecutive segments share size tables —
        therefore break exactly as in the scalar scan.
        """
        sizes = np.asarray(sizes_mbit, dtype=float)
        qo_all = np.asarray(qoe, dtype=float)
        if sizes.ndim != 4 or sizes.shape != qo_all.shape:
            raise ValueError("sizes and qoe must be equal-shape (B, H, V, F)")
        if 0 in sizes.shape[1:]:
            raise ValueError(
                "need at least one lookahead segment, quality and frame rate"
            )
        if sizes.shape[3] != len(frame_rates):
            raise ValueError("frame-rate axis mismatch")
        bandwidths = np.asarray(bandwidths_mbps, dtype=float)
        buffers = np.asarray(buffers_s, dtype=float)
        batch = sizes.shape[0]
        if bandwidths.shape != (batch,) or buffers.shape != (batch,):
            raise ValueError("bandwidths and buffers must be (B,) vectors")
        if batch == 0:
            return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                    np.zeros(0))
        # ``not all(x > 0)`` also rejects NaN.
        if not (sizes > 0).all():
            raise ValueError("sizes must be positive")
        if not (bandwidths > 0).all():
            raise ValueError("bandwidth must be positive")
        if not np.isfinite(buffers).all():
            raise ValueError("buffer levels must be finite")

        blocks = []
        for lo in range(0, batch, _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            blocks.append(self._solve_block(
                sizes[lo:hi], qo_all[lo:hi], frame_rates,
                bandwidths[lo:hi], buffers[lo:hi],
            ))
        if len(blocks) == 1:
            return blocks[0]
        return tuple(np.concatenate(column) for column in zip(*blocks))

    def _solve_block(
        self,
        sizes: np.ndarray,
        qo_all: np.ndarray,
        frame_rates: tuple[float, ...],
        bandwidths: np.ndarray,
        buffers: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live-candidate DP over one validated block of rows."""
        batch = sizes.shape[0]
        cfg = self.config
        horizon = min(sizes.shape[1], cfg.horizon)
        v_count = sizes.shape[2]
        f_count = sizes.shape[3]
        n_versions = v_count * f_count
        num_states = cfg.num_states
        n_slots = batch * num_states
        levels = cfg.state_levels()
        seg_s = cfg.segment_seconds
        gran = cfg.buffer_granularity_s
        trans_w = self.energy_model.device.transmission_mw * 1e-3

        # Everything that depends only on the window — each candidate's
        # energy, feasibility and target — is laid out once, step-major
        # as (H, B, S, J), so step h reads flat rows of (H, B*S*J)
        # arrays at candidate c = (b * S + state) * J + version.
        bw = bandwidths * cfg.bandwidth_safety
        # Same elementwise ops as the scalar reference, broadcast over B.
        dl = np.divide(
            sizes[:, :horizon].transpose(1, 0, 2, 3), bw[:, None, None],
            order="C",
        )  # (H, B, V, F)
        decode_j, render_j = self._rate_energies(frame_rates)
        energy = trans_w * dl + decode_j + render_j
        qo = qo_all[:, :horizon].transpose(1, 0, 2, 3)

        dl_flat = dl.reshape(horizon, batch, 1, n_versions)
        level_col = levels[:, None]  # (S, 1)
        j_idx = np.arange(n_versions)
        # vm: highest bitrate sustainable at the top frame rate (0: none).
        sustain = dl[..., f_count - 1, None] <= np.minimum(seg_s, levels)
        vm = (sustain * np.arange(1, v_count + 1)[:, None]).max(axis=2)
        has_vm = vm > 0  # (H, B, S)
        # Row 0 doubles as the vm == 0 floor.
        top_qo = qo[..., f_count - 1].ravel()  # (H * B * V,)
        hb_base = np.arange(0, top_qo.size, v_count).reshape(horizon, batch, 1)
        floor = (1.0 - cfg.qoe_tolerance) * top_qo[
            hb_base + np.maximum(vm - 1, 0)
        ]
        has_vm4 = has_vm[..., None]
        feasible = (
            ((dl_flat <= level_col) & has_vm4)
            | ((j_idx < f_count) & ~has_vm4)
        ) & (
            qo.reshape(horizon, batch, 1, n_versions) >= floor[..., None]
        )  # (H, B, S, J)
        # vm > 0 with nothing feasible: (vm, top f) fallback.
        need_fb = has_vm & ~feasible.any(axis=3)
        if need_fb.any():
            fb_h, fb_b, fb_s = np.nonzero(need_fb)
            feasible[fb_h, fb_b, fb_s,
                     (vm[fb_h, fb_b, fb_s] - 1) * f_count + f_count - 1] = True
        feasible = feasible.reshape(horizon, -1)  # (H, B * S * J)
        # Target slot b * S + state of every candidate, scalar-snap
        # semantics (int(round(x)) == np.rint(x), both half to even),
        # computed in place.  No clip: 0 < capped <= threshold snaps
        # into 0 .. S-1.
        capped = level_col - dl_flat
        np.maximum(capped, 0.0, out=capped)
        capped += seg_s
        np.minimum(capped, cfg.buffer_threshold_s, out=capped)
        capped /= gran
        slots = np.rint(capped, out=capped).astype(np.int64)
        row_base = np.arange(0, n_slots, num_states)  # b * S
        slots += row_base[:, None, None]
        slots = slots.reshape(horizon, -1)
        energies = energy.reshape(horizon, batch, 1, n_versions).repeat(
            num_states, axis=2
        ).reshape(horizon, -1)

        # Per slot b * S + state: the best cost (inf: unreached) and the
        # flat j of the h = 0 decision on the best path into it.  Clip
        # before the integer cast so huge buffers snap to the top state.
        start = row_base + np.minimum(
            np.maximum(np.rint(buffers / gran), 0), num_states - 1
        ).astype(np.int64)
        unreached = np.full(n_slots, np.inf)
        costs = unreached.copy()
        costs[start] = 0.0
        first = None
        # The reached slots, row-major and within a row in the scalar
        # DP's dict insertion order.  Generating candidates from them
        # in that order makes a candidate's position its scan key: the
        # scalar scan meets candidates in (row, insertion, j) order.
        live = start
        n_cand = batch * num_states * n_versions  # > any scan position
        positions = np.arange(n_cand)
        unset = np.full(n_slots, n_cand)

        for h in range(horizon):
            cand = (live[:, None] * n_versions + j_idx).ravel()
            cand = cand[feasible[h, cand]]
            source = cand // n_versions
            total = costs[source] + energies[h, cand]
            target = slots[h, cand]
            new_costs = unreached.copy()
            np.minimum.at(new_costs, target, total)
            # Winner = the first candidate in scan order among a slot's
            # equal-minimal costs (the scalar strict-< update keeps it).
            best = (total == new_costs[target]).nonzero()[0]
            win = unset.copy()
            np.minimum.at(win, target[best], best)
            # Insertion order = the first candidate reaching a slot at
            # all, whatever its cost.
            reach = unset.copy()
            np.minimum.at(reach, target, positions[:target.size])

            won = (win < n_cand).nonzero()[0]
            winner = win[won]
            # Read only at won slots: a NaN-cost slot is reached but
            # never wins, and the final best state always won.
            new_first = np.zeros(n_slots, dtype=np.int64)
            if h == 0:
                new_first[won] = cand[winner] % n_versions
            else:
                new_first[won] = first[source[winner]]
            costs, first = new_costs, new_first
            # Rows own ascending position blocks, so one sort of the
            # first-reach positions orders the next step's sources by
            # row, then insertion; unreached slots sort last.
            live = reach.argsort(kind="stable")[
                :np.count_nonzero(reach < n_cand)
            ]

        costs = costs.reshape(batch, num_states)
        best_cost = costs.min(axis=1)
        # Costs this large mean the energy model overflowed the path
        # (e.g. an absurd segment length): no real plan exists.
        if not np.all(best_cost < 1e250):
            raise ValueError("no feasible version sequence for some request")
        # Final min over dict iteration order: earliest-inserted state
        # among equal-minimal costs.
        best_state = np.where(
            costs == best_cost[:, None], reach.reshape(batch, num_states),
            n_cand,
        ).argmin(axis=1)
        quality, rate_idx = np.divmod(first[row_base + best_state], f_count)
        return quality, rate_idx, best_cost

    # ------------------------------------------------------------------

    def _rate_energies(
        self, frame_rates: tuple[float, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-frame-rate decode and render energies, cached."""
        cached = self._rate_cache.get(frame_rates)
        if cached is None:
            decode_j = np.array([
                self.energy_model.decoding_energy_j(TilingScheme.PTILE, rate)
                for rate in frame_rates
            ])
            render_j = np.array([
                self.energy_model.rendering_energy_j(rate)
                for rate in frame_rates
            ])
            cached = (decode_j, render_j)
            self._rate_cache[frame_rates] = cached
        return cached
