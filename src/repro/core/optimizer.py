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

runs in O(H * V * F) per chosen buffer state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..power.energy import EnergyModel
from ..power.models import TilingScheme

__all__ = ["MpcConfig", "MpcWindow", "MpcDecision", "EnergyQoEMpc"]

# Rows per dense DP pass.  The pass works on (rows, S, S * J) arrays, so
# a population step stacking thousands of sessions is solved in blocks
# of this many rows to bound the working set.
_BLOCK_ROWS = 64


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
    windows through a dense vectorized DP, in blocks of at most 64
    rows, with every per-(v, f) download time and Eq. 1 energy computed
    as one numpy pass and the per-frame-rate decode/render energies
    cached across calls.  :meth:`choose` is its one-row form.  Each
    decision is bit-identical — including tie-breaking — to the
    original scalar per-(state, version) dynamic program, which the
    test suite keeps as the parity oracle.
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
        return self.choose_batch(
            window.sizes_mbit[None], window.qoe[None], window.frame_rates,
            np.array([bandwidth_mbps], dtype=float),
            np.array([buffer_s], dtype=float),
        )[0]

    def choose_batch(
        self,
        sizes_mbit: np.ndarray,
        qoe: np.ndarray,
        frame_rates: tuple[float, ...],
        bandwidths_mbps: np.ndarray,
        buffers_s: np.ndarray,
    ) -> list[MpcDecision]:
        """Solve B same-shape windows by the dense DP.

        ``sizes_mbit`` and ``qoe`` are stacked ``(B, H, V, F)`` tensors
        (one :class:`MpcWindow` per batch row, all sharing one
        frame-rate ladder and horizon length); ``bandwidths_mbps`` and
        ``buffers_s`` are per-request ``(B,)`` vectors.  Returns the
        per-request decisions in batch order.  Rows never interact, so
        a row's decision does not depend on the batch it rides in.

        Identity with the scalar reference DP is not just numerical but
        *order-exact*: the scalar scan resolves equal-cost ties by dict
        insertion order (first state reaching a buffer level owns its
        slot until strictly beaten, and the final ``min`` keeps the
        earliest inserted state among equals).  The dense pass carries
        that order explicitly as an integer rank per (request, state):
        candidate keys ``rank * J + j`` reproduce the (state insertion,
        version index) scan order, winners take the minimal key among
        equal-minimal costs, and next-step ranks are assigned by each
        state's first-reach key.  Ties between float-identical paths —
        common when consecutive segments share size tables — therefore
        break exactly as in the scalar scan.
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
            return []
        # ``not all(x > 0)`` also rejects NaN.
        if not (sizes > 0).all():
            raise ValueError("sizes must be positive")
        if not (bandwidths > 0).all():
            raise ValueError("bandwidth must be positive")
        if not np.isfinite(buffers).all():
            raise ValueError("buffer levels must be finite")

        decisions: list[MpcDecision] = []
        for lo in range(0, batch, _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            decisions += self._solve_block(
                sizes[lo:hi], qo_all[lo:hi], frame_rates,
                bandwidths[lo:hi], buffers[lo:hi],
            )
        return decisions

    def _solve_block(
        self,
        sizes: np.ndarray,
        qo_all: np.ndarray,
        frame_rates: tuple[float, ...],
        bandwidths: np.ndarray,
        buffers: np.ndarray,
    ) -> list[MpcDecision]:
        """The dense DP over one validated block of rows."""
        batch = sizes.shape[0]
        cfg = self.config
        horizon = min(sizes.shape[1], cfg.horizon)
        v_count = sizes.shape[2]
        f_count = sizes.shape[3]
        n_versions = v_count * f_count
        num_states = cfg.num_states
        levels = cfg.state_levels()
        seg_s = cfg.segment_seconds
        gran = cfg.buffer_granularity_s
        trans_w = self.energy_model.device.transmission_mw * 1e-3

        bw = bandwidths * cfg.bandwidth_safety
        # Same elementwise ops as the scalar reference, broadcast over B.
        dl = sizes[:, :horizon] / bw[:, None, None, None]  # (B, H, V, F)
        decode_j, render_j = self._rate_energies(frame_rates)
        energy = trans_w * dl + decode_j + render_j
        qo = qo_all[:, :horizon]

        en_flat = energy.reshape(batch, horizon, 1, n_versions)
        dl_flat = dl.reshape(batch, horizon, 1, n_versions)
        qo_flat = qo.reshape(batch, horizon, 1, n_versions)
        level_col = levels[:, None]  # (S, 1)
        b_idx = np.arange(batch)
        j_idx = np.arange(n_versions, dtype=np.int32)
        big_key = np.int32(num_states * n_versions)  # > any rank * J + j
        # ``np.where`` and masked (``where=``) reductions are an order
        # of magnitude slower than plain ufuncs on the (B, S, S*J)
        # working set, so masking is done arithmetically: excluded
        # entries get a huge additive penalty and plain min/argmin do
        # the selection.  Unreached states therefore carry the finite
        # sentinel BIG instead of inf (penalties must compose by
        # addition without producing nan); any cost at or above REACHED
        # means "not a real path".  Real path energies are bounded far
        # below REACHED for any physical input, and reached costs are
        # exact because masking only ever adds 0.0 to live entries.
        BIG = 1e300
        REACHED = 1e250

        # Everything that depends only on the window — the feasible
        # versions and target state of every (step, state, version) —
        # is computed for the whole horizon up front; the step loop
        # below only carries costs and scan order.
        # vm: highest bitrate sustainable at the top frame rate.
        cap = np.minimum(seg_s, levels)  # (S,)
        sustain = dl[..., f_count - 1, None] <= cap  # (B, H, V, S)
        has_vm = sustain.any(axis=2)  # (B, H, S)
        vm = np.where(
            has_vm, v_count - np.argmax(sustain[:, :, ::-1], axis=2), 0
        )
        vm_row = np.maximum(vm - 1, 0)  # row 0 doubles as the vm==0 floor
        floor = (1.0 - cfg.qoe_tolerance) * np.take_along_axis(
            qo[..., f_count - 1], vm_row, axis=2
        )
        has_vm4 = has_vm[..., None]
        feasible = (
            ((dl_flat <= level_col) & has_vm4)
            | ((j_idx < f_count) & ~has_vm4)
        ) & (qo_flat >= floor[..., None])  # (B, H, S, J)
        # vm > 0 with nothing feasible: (vm, top f) fallback.
        need_fb = has_vm & ~feasible.any(axis=3)
        if need_fb.any():
            fb_b, fb_h, fb_s = np.nonzero(need_fb)
            feasible[fb_b, fb_h, fb_s,
                     (vm[fb_b, fb_h, fb_s] - 1) * f_count + f_count - 1] = True

        # Target state per (step, state, version), scalar-snap semantics;
        # infeasible candidates target the sink ``num_states``, so they
        # reach no real state.  One-hot along a target-major
        # (B, H, S_target, S*J) axis, each step then reduces over the
        # contiguous candidate axis with plain min/argmin.  Arithmetic
        # masking: non-hits get +BIG on their cost and +big_key on their
        # scan key, which keeps every live entry bit-exact
        # (x + 0.0 == x) while pushing dead ones past any real value.
        next_level = np.maximum(level_col - dl_flat, 0.0) + seg_s
        capped = np.minimum(next_level, cfg.buffer_threshold_s)
        target = np.clip(
            np.rint(capped / gran).astype(np.int64), 0, num_states - 1
        )
        target[~feasible] = num_states
        target = target.reshape(batch, horizon, 1, -1)
        t_range = np.arange(num_states)[:, None]

        # int(round(x)) == np.rint(x): both round half to even.  Clip
        # before the integer cast so huge buffers snap to the top state.
        start = np.clip(
            np.rint(buffers / gran), 0, num_states - 1
        ).astype(np.int64)
        costs = np.full((batch, num_states), BIG)
        costs[b_idx, start] = 0.0
        # rank[b, s] = insertion order of state s in the scalar DP's
        # dict (num_states = never inserted); first_dec[b, s] = flat j
        # of the h=0 decision on the best path into s.
        rank = np.full((batch, num_states), num_states, dtype=np.int64)
        rank[b_idx, start] = 0
        first_dec = np.full((batch, num_states), -1, dtype=np.int64)

        for h in range(horizon):
            # Candidates out of unreached states need no mask: their
            # cost already carries BIG, and their scan key is above
            # every reached state's (ranks order reached states first).
            flat_tot = (costs[:, :, None] + en_flat[:, h]).reshape(batch, 1, -1)
            flat_key = (rank[:, :, None] * n_versions + j_idx).reshape(
                batch, 1, -1
            )
            miss = target[:, h] != t_range  # (B, S, S*J)
            masked_tot = flat_tot + miss * BIG
            new_costs = masked_tot.min(axis=2)  # (B, S)
            # Winner = minimal scan key among equal-minimal costs (the
            # scalar strict-< update keeps the first one).  Equality
            # with new_costs already implies "hit and minimal": missed,
            # infeasible or unreached entries sit at least BIG above
            # any real cost.
            not_best = masked_tot != new_costs[:, :, None]
            winner = (flat_key + not_best * big_key).argmin(axis=2)  # (B, S)
            reached = new_costs < REACHED
            # Candidate c = state * J + j.
            if h == 0:
                new_first = np.where(reached, winner % n_versions, -1)
            else:
                new_first = np.where(
                    reached,
                    first_dec[b_idx[:, None], winner // n_versions],
                    -1,
                )
            # Insertion order = first candidate reaching t at all.
            # Reached targets rank first; unreached ones follow in some
            # arbitrary order, which is fine: their ranks only ever
            # label states whose candidates never win.
            reach_key = (flat_key + miss * big_key).min(axis=2)
            # The inverse of the sorting permutation: rank[b, t] is t's
            # position in reach_key order.
            rank = reach_key.argsort(axis=1, kind="stable").argsort(axis=1)
            costs, first_dec = new_costs, new_first

        best_cost = costs.min(axis=1)
        if not np.all(best_cost < REACHED):
            raise ValueError("no feasible version sequence for some request")
        # Final min over dict iteration order: earliest-inserted state
        # among equal-minimal costs.
        best_state = np.where(
            costs == best_cost[:, None], rank, num_states + 1
        ).argmin(axis=1)
        first = first_dec[b_idx, best_state]
        quality = first // f_count + 1
        rate_idx = first % f_count + 1
        return [
            MpcDecision(
                quality=int(quality[b]),
                frame_rate_index=int(rate_idx[b]),
                frame_rate=frame_rates[int(rate_idx[b]) - 1],
                planned_energy_j=float(best_cost[b]),
            )
            for b in range(batch)
        ]

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
