"""Structure-of-arrays population session engine.

:func:`~repro.streaming.session.run_session` advances one viewer at a
time through a Python loop; simulating the region-scale populations the
ROADMAP targets (10^4+ concurrent sessions) is wall-clock-bound on that
loop.  :class:`PopulationEngine` layers *under* the same per-session
semantics and steps every session of a batch per segment in numpy
passes:

* **Per-head-trace precomputation, shared across sessions.**  Under the
  session loop's late-fetch rule the prediction time of segment k is
  ``max((k + 0.5) L - late_fetch_horizon_s, 0)`` — independent of the
  network (the buffer gate keeps the playhead at least that far behind;
  the constructor validates the configuration guarantees it).  Viewport
  prediction, Ptile matching, tile geometry, coverage against the
  viewport actually watched, and the MPC lookahead windows sliced from
  :class:`~repro.core.plan_tables.PlanTables` are therefore pure
  functions of (head trace, segment) and are computed once per unique
  trace by the *scalar* production code — bit-identical by construction
  — then indexed as stacked arrays by every session sharing the trace.
* **Vectorized session dynamics.**  Buffer levels, wait gates, the
  harmonic-mean bandwidth-estimator windows, ABR quality selection,
  download-time integration over the shared network trace, energy, and
  QoE advance as (num_sessions,)-shaped arrays, replicating the scalar
  arithmetic operation for operation so per-session aggregates agree
  with ``run_session`` to numeric tolerance (most sums are bit-exact).
* **Batched MPC decisions over shared windows.**  The Ours scheme's
  buffer-state DP has per-session inputs (bandwidth estimate, buffer
  level), but every session's step-k window has the same shape, so
  each step stacks the precomputed shared windows of all MPC rows into
  one :meth:`~repro.core.optimizer.EnergyQoEMpc.choose_batch` call —
  the same solver ``run_session`` uses, one row at a time — which
  removes the predictor/geometry/table-assembly cost that dominates
  the scalar loop and amortizes the DP's per-call overhead.  The
  solver answers in columns (quality and frame-rate indices), which
  index the step's sizes, rates and energies directly.

Supported: :class:`~repro.streaming.schemes.CtileScheme`,
:class:`~repro.streaming.schemes.PtileScheme`, and the MPC schemes —
:class:`~repro.core.controller.OursScheme` and its subclasses such as
:class:`~repro.core.robust.RobustScheme`.  An MPC scheme's per-trace
precompute asks the scheme's own ``_select`` hook for each segment's
region (and expected coverage) and assembles the windows with the
scheme's window gather, the same calls ``OursScheme.plan_batch`` makes;
no probability tensors are stored.  All run against a plain
:class:`~repro.traces.network.NetworkTrace` (optionally scaled by
``1 / N`` for a fair share of a link N clients split) with an optional
:class:`~repro.streaming.cache.EdgeHitModel`.  Resilience overlays and
custom predictor factories keep per-session control flow and stay on
``run_session``, as do sessions planned through the decision service
(:class:`~repro.serving.client.ServiceClient`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..power.energy import EnergyModel
from ..power.models import DevicePowerModel, TilingScheme
from ..prediction.viewport import TraceFeeder
from ..ptile.construction import SegmentPtiles
from ..qoe.framerate import alpha_from_behavior, frame_rate_factor
from ..qoe.metrics import _BUFFER_FLOOR_S, _REBUFFER_RATIO_CAP, QoEModel
from ..traces.head_movement import HeadTrace
from ..traces.network import NetworkTrace
from ..video.segments import VideoManifest
from .schemes import (
    LOWEST_QUALITY,
    CtileScheme,
    DownloadPlan,
    PlanContext,
    PtileScheme,
    _tile_rects,
    ctile_sizes,
    ptile_sizes,
    split_wrapped_rect,
)
from .session import SessionConfig

__all__ = ["PopulationEngine", "PopulationResult"]


@dataclass
class PopulationResult:
    """Per-session aggregate arrays for one population run.

    Every array is indexed by session; the fields mirror the
    :class:`~repro.streaming.metrics.SessionResult` aggregates the
    parity tests compare against.
    """

    scheme_name: str
    video_id: int
    network_name: str
    device_name: str
    num_segments: int
    user_indices: np.ndarray
    start_times: np.ndarray
    transmission_j: np.ndarray
    decoding_j: np.ndarray
    rendering_j: np.ndarray
    qoe_sum: np.ndarray
    qo_sum: np.ndarray
    variation_sum: np.ndarray
    rebuffer_sum: np.ndarray
    total_stall_s: np.ndarray
    rebuffer_count: np.ndarray
    quality_sum: np.ndarray
    frame_rate_sum: np.ndarray
    coverage_sum: np.ndarray
    used_ptile_count: np.ndarray
    total_edge_hit_mbit: np.ndarray
    total_size_mbit: np.ndarray

    @property
    def num_sessions(self) -> int:
        return int(self.user_indices.size)

    # -- energy --------------------------------------------------------

    @property
    def total_energy_j(self) -> np.ndarray:
        return self.transmission_j + self.decoding_j + self.rendering_j

    @property
    def energy_per_segment_j(self) -> np.ndarray:
        return self.total_energy_j / self.num_segments

    # -- QoE -----------------------------------------------------------

    @property
    def mean_qoe(self) -> np.ndarray:
        return self.qoe_sum / self.num_segments

    @property
    def mean_qo(self) -> np.ndarray:
        return self.qo_sum / self.num_segments

    @property
    def mean_variation(self) -> np.ndarray:
        return self.variation_sum / self.num_segments

    @property
    def mean_rebuffer(self) -> np.ndarray:
        return self.rebuffer_sum / self.num_segments

    # -- quality / coverage -------------------------------------------

    @property
    def mean_quality_level(self) -> np.ndarray:
        return self.quality_sum / self.num_segments

    @property
    def mean_frame_rate(self) -> np.ndarray:
        return self.frame_rate_sum / self.num_segments

    @property
    def mean_coverage(self) -> np.ndarray:
        return self.coverage_sum / self.num_segments

    @property
    def ptile_hit_rate(self) -> np.ndarray:
        return self.used_ptile_count / self.num_segments

    @property
    def edge_hit_fraction(self) -> np.ndarray:
        total = self.total_size_mbit
        return np.where(
            total > 0, self.total_edge_hit_mbit / np.where(total > 0, total, 1.0), 0.0
        )

    def mean_sessions(self) -> dict[str, float]:
        """Population means, keyed like
        :func:`repro.streaming.metrics.mean_sessions`."""
        return {
            "energy_j": float(np.mean(self.total_energy_j)),
            "energy_per_segment_j": float(np.mean(self.energy_per_segment_j)),
            "transmission_j": float(np.mean(self.transmission_j)),
            "decoding_j": float(np.mean(self.decoding_j)),
            "rendering_j": float(np.mean(self.rendering_j)),
            "qoe": float(np.mean(self.mean_qoe)),
            "qo": float(np.mean(self.mean_qo)),
            "variation": float(np.mean(self.mean_variation)),
            "rebuffer_penalty": float(np.mean(self.mean_rebuffer)),
            "rebuffer_count": float(np.mean(self.rebuffer_count)),
            "stall_s": float(np.mean(self.total_stall_s)),
            "quality_level": float(np.mean(self.mean_quality_level)),
            "frame_rate": float(np.mean(self.mean_frame_rate)),
            "coverage": float(np.mean(self.mean_coverage)),
        }


@dataclass
class _TracePlans:
    """Per-(head trace, segment) plan data shared by every session
    replaying that trace.  All arrays are indexed by segment."""

    sizes: np.ndarray  # (S, Q) candidate sizes per ABR quality level
    coverage: np.ndarray  # (S,) high-quality coverage of the watched viewport
    decode_j: np.ndarray  # (S,) decode energy of the ABR-delivered plan
    used_ptile: np.ndarray  # (S,) bool
    is_mpc: np.ndarray  # (S,) bool: segments planned by the MPC
    factor_fps: np.ndarray  # (S,) Eq. 4 factor at the full frame rate
    factors: np.ndarray  # (S, F) Eq. 4 factors per ladder rate (MPC)
    windows: list  # (S,) (sizes, qoe) (W, V, F) MPC window | None


class PopulationEngine:
    """Batched many-session simulator with ``run_session`` parity.

    Parameters mirror :func:`~repro.streaming.session.run_session`; the
    engine is built once per (scheme, video, network, device)
    configuration and then :meth:`run` simulates arbitrary batches of
    sessions over the given head traces.
    """

    def __init__(
        self,
        scheme,
        manifest: VideoManifest,
        head_traces: Sequence[HeadTrace],
        network: NetworkTrace,
        device: DevicePowerModel,
        *,
        ptiles: list[SegmentPtiles] | None = None,
        qoe: QoEModel | None = None,
        config: SessionConfig = SessionConfig(),
    ):
        if config.fault_plan is not None or config.download_policy is not None:
            raise ValueError(
                "the population engine runs the ideal-network path only; "
                "fault plans and download policies need run_session"
            )
        if config.predictor_factory is not None:
            raise ValueError(
                "custom predictor factories are per-session; use run_session"
            )
        if not isinstance(network, NetworkTrace):
            raise ValueError(
                "the population engine needs a plain NetworkTrace "
                f"(got {type(network).__name__})"
            )
        if not np.any(network.bandwidth_mbps > 0):
            raise ValueError(
                f"trace {network.name!r} has zero bandwidth everywhere"
            )
        if not head_traces:
            raise ValueError("need at least one head trace")
        seg_s = config.segment_seconds
        # The precomputation relies on the prediction time of segment k
        # being max((k + 0.5) L - late, 0) regardless of buffer state;
        # the buffer gate guarantees level >= min(L, threshold) at every
        # request past the first, which bounds the playhead term.
        if config.late_fetch_horizon_s > 0.5 * seg_s + min(
            seg_s, config.buffer_threshold_s
        ):
            raise ValueError(
                "late_fetch_horizon_s too large for batched prediction: "
                "needs late <= 0.5 * L + min(L, buffer_threshold_s)"
            )

        length = manifest.num_segments
        if config.max_segments is not None:
            length = min(length, config.max_segments)
        if length < 1:
            raise ValueError("nothing to stream")
        if ptiles is not None and len(ptiles) < length:
            raise ValueError("ptiles must cover every streamed segment")

        # Lazy import: repro.core.controller itself imports the schemes
        # module, so a top-level import here would be circular.
        from ..core.controller import OursScheme
        from ..core.plan_tables import qo_table

        if isinstance(scheme, OursScheme):
            kind = "mpc"
            abr = scheme.fallback.abr
        elif isinstance(scheme, PtileScheme):
            kind = "ptile"
            abr = scheme.abr
        elif isinstance(scheme, CtileScheme):
            kind = "ctile"
            abr = scheme.abr
        else:
            raise ValueError(
                f"unsupported scheme {getattr(scheme, 'name', scheme)!r}: "
                "the population engine handles ctile, ptile, ours, "
                "and robust"
            )

        self.scheme = scheme
        self.kind = kind
        self.abr = abr
        self.manifest = manifest
        self.head_traces = list(head_traces)
        self.network = network
        self.device = device
        self.ptiles = ptiles
        self.qoe = qoe or QoEModel()
        self.config = config
        self.length = length

        self._energy_model = EnergyModel(device, seg_s)
        self._trans_w = device.transmission_mw * 1e-3
        fps = manifest.fps
        self._fps = fps
        self._render_fps_j = self._energy_model.rendering_energy_j(fps)
        self._decode_ctile_fps_j = self._energy_model.decoding_energy_j(
            TilingScheme.CTILE, fps
        )
        self._decode_ptile_fps_j = self._energy_model.decoding_energy_j(
            TilingScheme.PTILE, fps
        )
        if kind == "mpc":
            self._rates = scheme.ladder.rates()
            self._decode_rate_j = np.array([
                self._energy_model.decoding_energy_j(TilingScheme.PTILE, r)
                for r in self._rates
            ])
            self._render_rate_j = np.array([
                self._energy_model.rendering_energy_j(r) for r in self._rates
            ])
            self._mpc = scheme._mpc(seg_s)
        else:
            self._rates = ()

        # ABR quality levels come from the video's encoding ladder; the
        # vectorized paths below are index-based (level = index + 1), which
        # EncodingLadder.levels guarantees for any ladder length.
        self._levels = manifest.encoder.ladder.levels

        # Eq. 3 quality per (segment, ABR quality) — trace-independent.
        self._qo = qo_table(
            [manifest[k] for k in range(length)], self._levels,
            self.qoe.quality,
        )

        self._plans: dict[int, _TracePlans] = {}

    # ------------------------------------------------------------------
    # Per-trace precomputation (scalar, shared across sessions)
    # ------------------------------------------------------------------

    def _trace_plans(self, trace_index: int) -> _TracePlans:
        plans = self._plans.get(trace_index)
        if plans is not None:
            return plans

        trace = self.head_traces[trace_index]
        config = self.config
        manifest = self.manifest
        length = self.length
        seg_s = config.segment_seconds
        fps = self._fps
        n_rates = len(self._rates) if self.kind == "mpc" else 1

        feeder = TraceFeeder.ridge(
            trace, config.predictor_window_s, config.fov_deg
        )

        sizes = np.zeros((length, len(self._levels)))
        coverage = np.empty(length)
        decode_j = np.empty(length)
        used = np.zeros(length, dtype=bool)
        is_mpc = np.zeros(length, dtype=bool)
        factor_fps = np.empty(length)
        factors = np.zeros((length, n_rates))
        windows: list = [None] * length
        grid = manifest.encoder.grid
        # window length -> [(segment, ctx, selection)] of MPC segments
        mpc_groups: dict[int, list] = {}

        for k in range(length):
            playback_mid = (k + 0.5) * seg_s
            prediction_time = max(
                playback_mid - config.late_fetch_horizon_s, 0.0
            )
            predicted_vp, predicted_speed = feeder.predict(
                prediction_time, playback_mid
            )

            ctx = PlanContext(
                video=manifest,
                segment_index=k,
                predicted_viewport=predicted_vp,
                buffer_s=0.0,  # per-session; only geometry is read here
                bandwidth_mbps=1.0,
                window=min(config.horizon, length - k),
                ptiles=self.ptiles,
                predicted_speed_deg_s=predicted_speed,
                segment_seconds=seg_s,
                prediction_horizon_s=playback_mid - prediction_time,
            )
            seg_ptiles = ctx.segment_ptiles

            region = None  # the Ptile serving the segment, if any
            if self.kind == "mpc":
                selection = self.scheme._select(ctx)
                if selection is not None:
                    region = selection[0]
                    mpc_groups.setdefault(ctx.window, []).append(
                        (k, ctx, selection)
                    )
                    decode_j[k] = 0.0  # per-decision, filled at run time
                    is_mpc[k] = True
            elif self.kind == "ptile" and seg_ptiles is not None:
                region = seg_ptiles.match(predicted_vp)
                if region is not None:
                    sizes[k] = ptile_sizes(
                        ctx.manifest, region, seg_ptiles.remainder_for(region)
                    )
                    decode_j[k] = self._decode_ptile_fps_j
            if region is None:
                fov_tiles = grid.viewport_tiles(predicted_vp)
                sizes[k] = ctile_sizes(ctx.manifest, fov_tiles)
                hq_rects = _tile_rects(grid, fov_tiles)
                decode_j[k] = self._decode_ctile_fps_j
            else:
                hq_rects = split_wrapped_rect(region.rect)
                used[k] = True

            seg = manifest[k]
            actual_vp = trace.viewport_at(playback_mid, config.fov_deg)
            actual_speed = trace.speed_quantile_in(
                k * seg_s, (k + 1) * seg_s
            )
            alpha = alpha_from_behavior(actual_speed, seg.ti)
            factor_fps[k] = frame_rate_factor(fps, fps, alpha)
            if is_mpc[k]:
                factors[k] = [
                    frame_rate_factor(rate, fps, alpha)
                    for rate in self._rates
                ]
            coverage[k] = DownloadPlan(
                scheme_name="population",
                quality=LOWEST_QUALITY,
                frame_rate=fps,
                total_size_mbit=1.0,
                decode_scheme=TilingScheme.CTILE,
                hq_rects=hq_rects,
            ).coverage_of(actual_vp)

        # The scheme's window gather, one call per window length: the
        # windows OursScheme.plan_batch would assemble for these rows.
        for items in mpc_groups.values():
            w_sizes, w_qoe = self.scheme._windows(
                self.scheme._plan_tables(manifest),
                [(ctx, selection) for _, ctx, selection in items]
            )
            for b, (k, _, _) in enumerate(items):
                windows[k] = (w_sizes[b], w_qoe[b])

        plans = _TracePlans(
            sizes=sizes,
            coverage=coverage,
            decode_j=decode_j,
            used_ptile=used,
            is_mpc=is_mpc,
            factor_fps=factor_fps,
            factors=factors,
            windows=windows,
        )
        self._plans[trace_index] = plans
        return plans

    # ------------------------------------------------------------------
    # Vectorized helpers
    # ------------------------------------------------------------------

    def _bandwidth_at(self, t: np.ndarray) -> np.ndarray:
        bw = self.network.bandwidth_mbps
        bin_s = self.network.bin_seconds
        idx = (t / bin_s).astype(np.int64) % bw.size
        return bw[idx]

    def _download_vec(self, size: np.ndarray, start: np.ndarray) -> np.ndarray:
        """Vector twin of :meth:`NetworkTrace.download_time`.

        Replicates the scalar bin-walk arithmetic operation for
        operation per session, so the returned times are bit-identical.
        """
        bw_arr = self.network.bandwidth_mbps
        bin_s = self.network.bin_seconds
        positive_min = float(bw_arr[bw_arr > 0].min())
        max_size = float(size.max(initial=0.0))
        max_iterations = bw_arr.size * (
            10 + int(max_size / (positive_min * bin_s))
        ) + 16

        remaining = size.astype(float).copy()
        t = start.astype(float).copy()
        elapsed = np.zeros_like(remaining)
        active = remaining > 1e-12
        guard = 0
        while active.any():
            rows = np.flatnonzero(active)
            bins = (t[rows] / bin_s).astype(np.int64)
            bw = bw_arr[bins % bw_arr.size]
            bin_end = (bins + 1) * bin_s
            window = bin_end - t[rows]
            capacity = bw * window
            done = capacity >= remaining[rows]
            done_rows = rows[done]
            elapsed[done_rows] += remaining[done_rows] / bw[done]
            remaining[done_rows] = 0.0
            cont_rows = rows[~done]
            remaining[cont_rows] -= capacity[~done]
            elapsed[cont_rows] += window[~done]
            t[cont_rows] = bin_end[~done]
            active[done_rows] = False
            active[cont_rows] = remaining[cont_rows] > 1e-12
            guard += 1
            if guard > max_iterations:  # pragma: no cover - safety net
                raise RuntimeError("population download did not converge")
        return elapsed

    @staticmethod
    def _ring_add(
        ring: np.ndarray,
        pos: np.ndarray,
        cnt: np.ndarray,
        mask: np.ndarray,
        values: np.ndarray,
        window: int,
    ) -> None:
        rows = np.flatnonzero(mask)
        if rows.size == 0:
            return
        ring[rows, pos[rows]] = values[rows]
        pos[rows] = (pos[rows] + 1) % window
        cnt[rows] = np.minimum(cnt[rows] + 1, window)

    @staticmethod
    def _estimate(
        ring: np.ndarray, pos: np.ndarray, cnt: np.ndarray, window: int
    ) -> np.ndarray:
        """Harmonic mean over each session's chronological window.

        Reciprocals accumulate oldest-first, matching the estimator's
        sequential ``sum`` bit for bit.
        """
        recip = np.zeros(pos.shape, dtype=float)
        for i in range(window):
            rows = np.flatnonzero(i < cnt)
            if rows.size == 0:
                break
            idx = (pos[rows] - cnt[rows] + i) % window
            recip[rows] += 1.0 / ring[rows, idx]
        return cnt / recip

    # ------------------------------------------------------------------
    # Batch run
    # ------------------------------------------------------------------

    def run(
        self,
        user_indices: Sequence[int] | None = None,
        start_times: Sequence[float] | None = None,
        *,
        chunk_size: int = 2048,
    ) -> PopulationResult:
        """Simulate one session per entry of ``user_indices``.

        ``user_indices`` select head traces (repeats share all
        precomputation); ``start_times`` offset each session's wall
        clock against the network trace (an arrival process), defaulting
        to 0 — at which every session is exactly ``run_session`` on the
        same inputs.  Sessions are processed in ``chunk_size`` batches;
        the chunking only bounds memory, results are identical.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if user_indices is None:
            idx = np.arange(len(self.head_traces), dtype=np.int64)
        else:
            idx = np.asarray(user_indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("need at least one session")
        if np.any(idx < 0) or np.any(idx >= len(self.head_traces)):
            raise ValueError("user index outside the head-trace list")
        if start_times is None:
            starts = np.zeros(idx.size)
        else:
            starts = np.asarray(start_times, dtype=float)
            if starts.shape != idx.shape:
                raise ValueError("start_times must match user_indices")
            if np.any(starts < 0):
                raise ValueError("start times must be non-negative")

        n = idx.size
        sums = {
            name: np.zeros(n)
            for name in (
                "transmission_j", "decoding_j", "rendering_j", "qoe_sum",
                "qo_sum", "variation_sum", "rebuffer_sum", "total_stall_s",
                "quality_sum", "frame_rate_sum", "coverage_sum",
                "total_edge_hit_mbit", "total_size_mbit",
            )
        }
        rebuffer_count = np.zeros(n, dtype=np.int64)
        used_count = np.zeros(n, dtype=np.int64)

        for lo in range(0, n, chunk_size):
            hi = min(lo + chunk_size, n)
            chunk = self._run_chunk(idx[lo:hi], starts[lo:hi])
            for name in sums:
                sums[name][lo:hi] = chunk[name]
            rebuffer_count[lo:hi] = chunk["rebuffer_count"]
            used_count[lo:hi] = chunk["used_ptile_count"]

        return PopulationResult(
            scheme_name=self.scheme.name,
            video_id=self.manifest.video.meta.video_id,
            network_name=self.network.name,
            device_name=self.device.name,
            num_segments=self.length,
            user_indices=idx,
            start_times=starts,
            rebuffer_count=rebuffer_count,
            used_ptile_count=used_count,
            **sums,
        )

    def _run_chunk(self, traces_idx: np.ndarray, starts: np.ndarray) -> dict:
        config = self.config
        seg_s = config.segment_seconds
        threshold = config.buffer_threshold_s
        window = config.bandwidth_window
        abr = self.abr
        qoe_weights = self.qoe.weights
        edge = config.edge_model
        n = traces_idx.size

        unique, inv = np.unique(traces_idx, return_inverse=True)
        plans = [self._trace_plans(int(u)) for u in unique]
        SZ = np.stack([p.sizes for p in plans])  # (U, S, Q)
        COV = np.stack([p.coverage for p in plans])
        DEC = np.stack([p.decode_j for p in plans])
        USED = np.stack([p.used_ptile for p in plans])
        MPC = np.stack([p.is_mpc for p in plans])
        FACT = np.stack([p.factor_fps for p in plans])
        FACTS = np.stack([p.factors for p in plans])  # (U, S, F)

        level = np.zeros(n)
        wall = starts.astype(float).copy()
        ring = np.zeros((n, window))
        pos = np.zeros(n, dtype=np.int64)
        cnt = np.zeros(n, dtype=np.int64)
        prev_qo = np.zeros(n)

        out = {
            name: np.zeros(n)
            for name in (
                "transmission_j", "decoding_j", "rendering_j", "qoe_sum",
                "qo_sum", "variation_sum", "rebuffer_sum", "total_stall_s",
                "quality_sum", "frame_rate_sum", "coverage_sum",
                "total_edge_hit_mbit", "total_size_mbit",
            )
        }
        rebuffer_count = np.zeros(n, dtype=np.int64)
        used_count = np.zeros(n, dtype=np.int64)

        # Startup probe: first positive sample at or after each start.
        probe = self._bandwidth_at(wall).astype(float)
        for i in np.flatnonzero(probe <= 0):
            probe[i] = self.network.next_positive_bandwidth(float(wall[i]))
        self._ring_add(ring, pos, cnt, np.ones(n, dtype=bool), probe, window)

        arange = np.arange(n)
        for k in range(self.length):
            wait = np.maximum(level - threshold, 0.0)
            wall = wall + wait
            level_req = level - wait
            est = self._estimate(ring, pos, cnt, window)

            # --- plan: vectorized ABR, batched MPC over shared windows
            sizes_k = SZ[inv, k]  # (n, Q)
            budget_time = np.where(
                level_req < abr.low_buffer_s,
                seg_s * abr.low_buffer_scale,
                np.where(
                    level_req > abr.surplus_start_s,
                    seg_s + abr.surplus_scale * (level_req - abr.surplus_start_s),
                    seg_s,
                ),
            )
            budget = est * abr.safety * budget_time
            fits = sizes_k <= budget[:, None]
            rev_first = (fits.shape[1] - 1) - np.argmax(fits[:, ::-1], axis=1)
            q_idx = np.where(fits.any(axis=1), rev_first, 0)
            size = sizes_k[arange, q_idx]
            frame_rate = np.full(n, self._fps)
            decode = DEC[inv, k].copy()
            factor = FACT[inv, k].copy()

            render = np.full(n, self._render_fps_j)
            mpc_rows = np.flatnonzero(MPC[inv, k])
            if mpc_rows.size:
                # Every MPC window of step k has the same (H, V, F), so
                # all rows go through one choose_batch call.
                windows = [plans[inv[i]].windows[k] for i in mpc_rows]
                sizes_b = np.stack([w[0] for w in windows])
                v_idx, f_idx, _ = self._mpc.choose_batch(
                    sizes_b, np.stack([w[1] for w in windows]),
                    self._rates, est[mpc_rows], level_req[mpc_rows],
                )
                q_idx[mpc_rows] = v_idx
                size[mpc_rows] = sizes_b[np.arange(mpc_rows.size), 0,
                                         v_idx, f_idx]
                frame_rate[mpc_rows] = np.array(self._rates)[f_idx]
                decode[mpc_rows] = self._decode_rate_j[f_idx]
                render[mpc_rows] = self._render_rate_j[f_idx]
                factor[mpc_rows] = FACTS[inv[mpc_rows], k, f_idx]

            # --- download against the shared trace (edge split first)
            if edge is not None:
                edge_hit = size * edge.hit_ratio(k)
                miss = size - edge_hit
                dt = self._download_vec(miss, wall) + (
                    edge_hit / edge.edge_bandwidth_mbps
                )
            else:
                edge_hit = np.zeros(n)
                dt = self._download_vec(size, wall)

            # --- estimator update (sample at the request time on
            #     instantaneous downloads, skipping zero-bandwidth bins)
            has_ratio = dt > 0
            val = np.zeros(n)
            val[has_ratio] = size[has_ratio] / dt[has_ratio]
            fb = ~has_ratio
            if fb.any():
                samp = self._bandwidth_at(wall)
                val[fb] = samp[fb]
            self._ring_add(ring, pos, cnt, has_ratio | (fb & (val > 0)),
                           val, window)

            # --- buffer advance (Eq. 6/7)
            stall = np.maximum(dt - level_req, 0.0)
            level = np.maximum(level_req - dt, 0.0) + seg_s
            wall = wall + dt

            # --- energy (Eq. 1)
            out["transmission_j"] += self._trans_w * dt
            out["decoding_j"] += decode
            out["rendering_j"] += render

            # --- QoE (Eq. 2) for what was actually watched
            coverage = COV[inv, k]
            qo_high = self._qo[k, q_idx]
            qo_low = self._qo[k, 0]
            qo_eff = (coverage * qo_high + (1.0 - coverage) * qo_low) * factor
            variation = np.abs(qo_eff - prev_qo) if k > 0 else np.zeros(n)
            count_stall = k > 0 or config.count_startup_stall
            stall_q = dt if count_stall else np.zeros(n)
            over = np.maximum(stall_q - level_req, 0.0)
            ratio = np.where(
                over == 0.0,
                0.0,
                np.minimum(
                    over / np.maximum(level_req, _BUFFER_FLOOR_S),
                    _REBUFFER_RATIO_CAP,
                ),
            )
            var_pen = qoe_weights.variation * variation
            reb_pen = qoe_weights.rebuffering * ratio * qo_eff
            out["qoe_sum"] += qo_eff - var_pen - reb_pen
            out["qo_sum"] += qo_eff
            out["variation_sum"] += var_pen
            out["rebuffer_sum"] += reb_pen
            prev_qo = qo_eff

            stall_recorded = stall if count_stall else np.zeros(n)
            out["total_stall_s"] += stall_recorded
            if k > 0:
                rebuffer_count += stall_recorded > 0
            out["quality_sum"] += q_idx + 1
            out["frame_rate_sum"] += frame_rate
            out["coverage_sum"] += coverage
            used_count += USED[inv, k]
            out["total_edge_hit_mbit"] += edge_hit
            out["total_size_mbit"] += size

        out["rebuffer_count"] = rebuffer_count
        out["used_ptile_count"] = used_count
        return out
