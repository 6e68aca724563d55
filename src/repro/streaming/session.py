"""Trace-driven streaming sessions: one per-segment step over session rows.

Replays head-movement traces against network traces: for every segment
the client predicts the viewport, estimates bandwidth, plans the
download, downloads against the network trace, advances the playback
buffer, and scores energy (Eq. 1) and QoE (Eq. 2) for what the user
actually saw.  :class:`SessionKernel` holds that model once: its step
advances a batch of session rows (each with its own scheme, head trace,
network trace and start time) as ``(N,)`` arrays.  :func:`run_session`
is its one-row caller; the sweep runner and
:class:`~repro.streaming.population.PopulationEngine` step many rows.
A session is the same bits whatever rows it is stepped with.

Conventions:

* The head trace is indexed by *video time*; the playhead position when
  requesting segment k is ``k*L - B`` (downloaded minus buffered).
* Viewport-sensitive requests are issued *late*: as in deadline-driven
  players (e.g. Flare), the high-quality region of a segment is fixed
  only ``late_fetch_horizon_s`` before its playback, so the predictor
  sees head samples up to ``max((k + 0.5) L - late, 0)`` (or the
  playhead, if later) and extrapolates a short horizon.
* The viewport actually watched during segment k is the trace at the
  segment midpoint; the plan's high-quality region covers some fraction
  of it, and the rest is seen at the lowest quality.
* The frame-rate QoE factor uses the *actual* switching speed during
  the segment (the scheme chose the frame rate from a prediction).
* The first download is startup delay, not a rebuffering event.

Planning.  The buffer gate keeps the playhead behind the late-fetch
time whenever ``late <= 0.5 L + min(L, buffer_threshold_s)``, so the
prediction, the watched viewport and each known scheme's candidates are
computed once per (head trace, segment) by the schemes' own code and
shared by every row replaying the trace: a baseline's per-level sizes
(``options``; the ABR picks per row) and an MPC scheme's region and
lookahead window (``_select``/``_windows``; one ``choose_batch`` per
MPC scheme per step).  Any other scheme (e.g.
:class:`~repro.serving.client.ServiceClient`), and a segment whose
prediction time the playhead binds, plans through ``scheme.plan(ctx)``
inside the same step.  A row's fetch is one bin walk over its network
trace and the fault plan, bounded by its first attempt's timeout; only
a timed-out or corrupted attempt reruns through
:func:`~repro.resilience.policy.execute_download`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from ..core.plan_tables import qo_table
from ..power.energy import EnergyModel
from ..power.models import DevicePowerModel, TilingScheme
from ..prediction.bandwidth import HarmonicMeanEstimator
from ..prediction.viewport import TraceFeeder
from ..ptile.construction import SegmentPtiles
from ..qoe.framerate import alpha_from_behavior, frame_rate_factor
from ..qoe.metrics import QoEModel
from ..traces.head_movement import HeadTrace
from ..traces.network import NetworkTrace
from ..video.segments import VideoManifest
from .buffer import drain, request_gate
from .cache import EdgeHitModel
from .ftile import FtilePartition
from .metrics import FLOAT_COLUMNS, INT_COLUMNS, SCHEME_CODES, SessionResult
from .schemes import (
    LOWEST_QUALITY,
    CtileScheme,
    DownloadPlan,
    FtileScheme,
    NontileScheme,
    PlanContext,
    PtileScheme,
    StreamingScheme,
    hq_coverage,
    split_wrapped_rect,
)
# After .schemes: repro.resilience imports it.
from ..resilience.faults import FaultPlan
from ..resilience.policy import DownloadPolicy, execute_download


__all__ = ["SessionConfig", "SessionKernel", "run_session"]


@dataclass(frozen=True)
class SessionConfig:
    """Simulation parameters (paper Section V defaults)."""

    segment_seconds: float = 1.0
    buffer_threshold_s: float = 3.0
    bandwidth_window: int = 5
    predictor_window_s: float = 2.0
    horizon: int = 5
    fov_deg: float = 100.0
    late_fetch_horizon_s: float = 1.2
    count_startup_stall: bool = False
    max_segments: int | None = None
    # When set, the cached fraction of every download is served at the
    # edge link rate instead of the backhaul trace (see
    # repro.streaming.cache.build_edge_hit_model).
    edge_model: EdgeHitModel | None = None
    # Viewport-prediction strategy: a callable (trace, fov_deg, window_s)
    # -> predictor.  None selects the paper's ridge regression; see
    # repro.prediction.strategies for the static/oracle alternatives.
    predictor_factory: Callable | None = None
    # Resilience (docs/MODELING.md §10): a deterministic fault overlay
    # on the network trace plus the client's deadline/retry/degradation
    # policy.  With both None every fetch is unbounded and fault-free;
    # a plan without a policy takes DownloadPolicy() defaults.
    fault_plan: FaultPlan | None = None
    download_policy: DownloadPolicy | None = None

    def __post_init__(self) -> None:
        late = self.late_fetch_horizon_s
        if not (math.isfinite(late) and late >= 0):
            raise ValueError(
                f"late_fetch_horizon_s must be finite and >= 0, got {late!r}"
            )
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon!r}")
        window = self.predictor_window_s
        if not (math.isfinite(window) and window > 0):
            raise ValueError(
                f"predictor_window_s must be finite and > 0, got {window!r}"
            )


_F = {name: i for i, name in enumerate(FLOAT_COLUMNS)}
_I = {name: i for i, name in enumerate(INT_COLUMNS)}
# Per-(head trace, segment) plan facts, one float table per plan.
_T = {name: i for i, name in enumerate((
    "abr", "mpc", "code", "used", "coverage", "decode_j", "factor",
    "expected_coverage", "sigma",
))}


class _TraceView(NamedTuple):
    """A head trace's late-fetch prediction ``(viewport, speed,
    horizon_s)``, watched viewport and Eq. 4 ``alpha``, per segment."""

    trace: HeadTrace
    predictions: list
    watched: list
    alpha: list


@dataclass
class _Plans:
    """One scheme's plan data over one head trace (``table`` is None
    for schemes planned through ``scheme.plan``)."""

    scheme: StreamingScheme
    view: _TraceView
    ptiles: Sequence[SegmentPtiles] | None
    ftiles: Sequence[FtilePartition] | None
    table: np.ndarray | None = None  # (S, len(_T)) facts
    sizes: np.ndarray | None = None  # (S, Q) ABR candidate sizes
    qualities: tuple = ()
    factors: np.ndarray | None = None  # (S, F) Eq. 4 factor per MPC rate
    windows: list | None = None  # (sizes, qoe) MPC window per segment
    # Per segment, the DownloadPlan fields after total_size_mbit that
    # the pick does not change (decode scheme, regions, coverage
    # accounting): a picked row's plan is one constructor call away.
    fixed: list | None = None


class _Mpc(NamedTuple):
    """An MPC scheme's solver and per-rate decode and render energies."""

    solver: object
    rates: tuple
    decode_j: np.ndarray
    render_j: np.ndarray


def _planned_kind(scheme) -> str | None:
    """``"mpc"``/``"abr"`` for schemes whose plan the precompute can
    replay, ``None`` for any other (or an overridden ``plan``)."""
    from ..core.controller import OursScheme  # imports the schemes module

    if isinstance(scheme, OursScheme):
        ok = (type(scheme).plan is OursScheme.plan
              and type(scheme).plan_batch is OursScheme.plan_batch)
        return "mpc" if ok else None
    for base in (CtileScheme, FtileScheme, NontileScheme, PtileScheme):
        if isinstance(scheme, base):
            return "abr" if type(scheme).plan is base.plan else None
    return None


class SessionKernel:
    """The per-segment session step over ``(N,)`` rows of one video.

    Build one per (video, device, QoE model, config); :meth:`plans`
    memoizes each (scheme, head trace, Ptiles, Ftiles) precompute, and
    :meth:`steps` advances a batch of rows segment by segment.
    """

    def __init__(
        self,
        video: VideoManifest,
        device: DevicePowerModel,
        qoe: QoEModel | None = None,
        config: SessionConfig = SessionConfig(),
    ):
        length = video.num_segments
        if config.max_segments is not None:
            length = min(length, config.max_segments)
        if length < 1:
            raise ValueError("nothing to stream")
        self.video, self.device, self.config = video, device, config
        self.qoe = qoe or QoEModel()
        self.length = length
        self._energy = EnergyModel(device, config.segment_seconds)
        self._render_fps_j = self._energy.rendering_energy_j(video.fps)
        self._manifests = video[0:length]
        self._qo_low = qo_table(
            self._manifests, (LOWEST_QUALITY,), self.qoe.quality
        )[:, 0]
        self._qo_tables: dict[tuple, np.ndarray] = {}
        self._views: dict[int, _TraceView] = {}
        self._plans: dict[tuple, _Plans] = {}
        self._abrs: dict = {}  # ABR -> index (equal ABRs pick alike)
        self._mpcs: dict[int, int] = {}  # id(MPC scheme) -> index in _mpc
        self._mpc: list[_Mpc] = []
        faults = config.fault_plan  # an idle plan perturbs nothing
        self._faults = None if faults is None or faults.is_idle else faults
        self._policy = config.download_policy or (
            None if faults is None else DownloadPolicy()
        )

    # ------------------------------------------------------------------
    # Per-(head trace, segment) precompute
    # ------------------------------------------------------------------

    def _feeder(self, trace: HeadTrace) -> TraceFeeder:
        config = self.config
        if config.predictor_factory is None:
            return TraceFeeder.ridge(
                trace, config.predictor_window_s, config.fov_deg
            )
        return TraceFeeder(trace, config.predictor_factory(
            trace, config.fov_deg, config.predictor_window_s
        ), config.fov_deg)

    def _view(self, trace: HeadTrace) -> _TraceView:
        if id(trace) in self._views:
            return self._views[id(trace)]
        config = self.config
        seg_s = config.segment_seconds
        mids = [(k + 0.5) * seg_s for k in range(self.length)]
        times = [max(mid - config.late_fetch_horizon_s, 0.0) for mid in mids]
        predicted = self._feeder(trace).predict_many(list(zip(times, mids)))
        speeds = trace.speed_quantiles_in(
            [(k * seg_s, (k + 1) * seg_s) for k in range(self.length)])
        view = _TraceView(
            trace,
            [(*p, mid - t) for p, mid, t in zip(predicted, mids, times)],
            [trace.viewport_at(mid, config.fov_deg) for mid in mids],
            [alpha_from_behavior(speed, seg.ti)
             for speed, seg in zip(speeds, self._manifests)],
        )
        self._views[id(trace)] = view
        return view

    def _context(self, plans: _Plans, k: int, prediction, buffer_s: float,
                 bandwidth_mbps: float) -> PlanContext:
        # ``horizon``: how far past the freshest head sample the
        # prediction reaches (uncertainty-aware planners scale with it).
        viewport, speed, horizon = prediction
        return PlanContext(
            self.video, k, viewport, buffer_s, bandwidth_mbps,
            min(self.config.horizon, self.length - k), plans.ptiles,
            plans.ftiles, speed, self.config.segment_seconds, horizon,
        )

    def plans(self, scheme: StreamingScheme, trace: HeadTrace,
              ptiles=None, ftiles=None) -> _Plans:
        """The plan data of ``scheme`` replaying ``trace``, memoized."""
        key = (id(scheme), id(trace), id(ptiles), id(ftiles))
        plans = self._plans.get(key)
        if plans is None:
            plans = _Plans(scheme, self._view(trace), ptiles, ftiles)
            kind = _planned_kind(scheme)
            if kind is not None:
                self._precompute(plans, kind)
            self._plans[key] = plans
        return plans

    def _precompute(self, plans: _Plans, kind: str) -> None:
        scheme, view = plans.scheme, plans.view
        fps = self.video.fps
        length = self.length
        table = plans.table = np.zeros((length, len(_T)))
        table[:, _T["abr"]] = table[:, _T["mpc"]] = -1.0
        sizes: list = [None] * length
        plans.fixed = [None] * length
        mpc = None
        if kind == "mpc":
            mpc = self._mpcs.get(id(scheme))
            if mpc is None:
                rates = scheme.ladder.rates()
                self._mpc.append(_Mpc(
                    scheme._mpc(self.config.segment_seconds), rates,
                    np.array([self._energy.decoding_energy_j(
                        TilingScheme.PTILE, r) for r in rates]),
                    np.array([self._energy.rendering_energy_j(r)
                              for r in rates]),
                ))
                mpc = self._mpcs[id(scheme)] = len(self._mpc) - 1
            plans.factors = np.zeros((length, len(self._mpc[mpc].rates)))
            plans.windows = [None] * length
        groups: dict[int, list] = {}  # window length -> MPC segments
        for k in range(length):
            ctx = self._context(plans, k, view.predictions[k], 0.0, 1.0)
            row = table[k]
            selection = scheme._select(ctx) if mpc is not None else None
            if selection is not None:
                region, coverage, sigma = selection
                groups.setdefault(ctx.window, []).append((k, ctx, selection))
                plans.fixed[k] = (
                    TilingScheme.PTILE, split_wrapped_rect(region.rect),
                    False, True,
                    1.0 if coverage is None else float(coverage[0]), sigma,
                )
                row[_T["mpc"]] = mpc
                plans.factors[k] = [
                    frame_rate_factor(rate, fps, view.alpha[k])
                    for rate in self._mpc[mpc].rates
                ]
            else:
                options = (scheme.fallback if mpc is not None
                           else scheme).options(ctx)
                if plans.qualities and options.qualities != plans.qualities:
                    raise ValueError("a scheme's qualities changed between "
                                     "segments")
                if list(options.qualities) != sorted(options.qualities):
                    raise ValueError(
                        f"qualities must ascend, got {options.qualities!r}"
                    )
                plans.qualities = options.qualities
                sizes[k] = options.sizes
                plans.fixed[k] = (
                    options.decode_scheme, options.hq_rects,
                    options.full_coverage, options.used_ptile, 1.0, 0.0,
                )
                row[_T["abr"]] = self._abrs.setdefault(
                    options.abr, len(self._abrs)
                )
                row[_T["decode_j"]] = self._energy.decoding_energy_j(
                    options.decode_scheme, fps
                )
            decode_scheme, hq_rects, full, used, expected, sigma = (
                plans.fixed[k]
            )
            row[_T["code"]] = SCHEME_CODES[decode_scheme]
            row[_T["used"]] = used
            row[_T["coverage"]] = hq_coverage(hq_rects, full, view.watched[k])
            row[_T["factor"]] = frame_rate_factor(fps, fps, view.alpha[k])
            row[_T["expected_coverage"]] = expected
            row[_T["sigma"]] = sigma
        # The scheme's window gather, one call per window length: the
        # windows OursScheme.plan_batch would assemble for these rows.
        for items in groups.values():
            w_sizes, w_qoe = scheme._windows(
                scheme._plan_tables(self.video),
                [(ctx, selection) for _, ctx, selection in items],
            )
            for b, (k, _, _) in enumerate(items):
                plans.windows[k] = (w_sizes[b], w_qoe[b])
        plans.qualities = plans.qualities or self.video.encoder.ladder.levels
        plans.sizes = np.array([
            [np.inf] * len(plans.qualities) if row is None else row
            for row in sizes
        ], dtype=float)

    # ------------------------------------------------------------------
    # The step
    # ------------------------------------------------------------------

    def steps(
        self,
        plans: Sequence[_Plans],
        rows: np.ndarray,
        networks: Sequence[NetworkTrace],
        starts: np.ndarray,
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Advance ``len(rows)`` sessions segment by segment.

        Row ``i`` replays ``plans[rows[i]]`` over ``networks[i]`` from
        wall-clock ``starts[i]``.  Yields ``(k, floats, ints)`` per
        segment: the ``(len(FLOAT_COLUMNS), N)`` and ``(len(INT_COLUMNS),
        N)`` :class:`~repro.streaming.metrics.SessionResult` columns of
        segment ``k``, one per row.
        """
        config = self.config
        seg_s = config.segment_seconds
        late = config.late_fetch_horizon_s
        fps = self.video.fps
        n = rows.size
        ar = np.arange(n)
        st = _Stacked(self, plans)
        generic = st.generic[rows]
        int_quality = st.int_quality[rows]
        qvalues = st.qvalues[rows]
        groups = _by_network(networks)

        level = np.zeros(n)
        wall = np.asarray(starts, dtype=float).copy()
        estimator = HarmonicMeanEstimator(config.bandwidth_window)
        prev_qo = None
        feeders: dict[int, TraceFeeder] = {}

        # Startup probe: the client measures throughput while fetching
        # the manifest; a trace may open inside an outage second, so
        # probe forward to the first positive sample.
        probe = np.empty(n)
        for net, sel in groups:
            probe[sel] = net.bandwidth_at(wall[sel])
        for i in np.flatnonzero(probe <= 0).tolist():
            probe[i] = networks[i].next_positive_bandwidth(
                float(wall[i])
            )
        estimator.add(probe)

        for k in range(self.length):
            wait, level_req = request_gate(level, config.buffer_threshold_s)
            wall = wall + wait
            est = estimator.estimate()

            # The user has watched up to the playhead; late viewport-tile
            # updates refine the prediction until shortly before the
            # segment plays, unless the playhead is already past that.
            mid = (k + 0.5) * seg_s
            playhead = k * seg_s - level_req
            planned = ~generic & (playhead <= max(mid - late, 0.0))
            facts = st.table[rows, k]
            F = np.empty((len(FLOAT_COLUMNS), n))
            I = np.zeros((len(INT_COLUMNS), n), dtype=np.int64)
            I[_I["index"]] = k
            I[_I["decode_scheme"]] = facts[:, _T["code"]]
            I[_I["used_ptile"]] = facts[:, _T["used"]]
            F[_F["coverage"]] = facts[:, _T["coverage"]]
            F[_F["expected_coverage"]] = facts[:, _T["expected_coverage"]]
            F[_F["uncertainty_deg"]] = facts[:, _T["sigma"]]
            decode = facts[:, _T["decode_j"]].copy()
            factor = facts[:, _T["factor"]].copy()
            render = np.full(n, self._render_fps_j)
            frame_rate = np.full(n, fps)
            rate_idx = np.full(n, -1)
            is_int = int_quality.copy()

            # --- plan: each ABR's pick and each MPC scheme's decisions
            sizes_k = st.sizes[rows, k]
            q_idx = np.zeros(n, dtype=np.int64)
            for a, abr in enumerate(st.abrs):
                sel = np.flatnonzero(planned & (facts[:, _T["abr"]] == a))
                if sel.size:
                    budget = abr.budget_mbit(est[sel], level_req[sel], seg_s)
                    q_idx[sel] = abr.pick(sizes_k[sel], budget)
            size = sizes_k[ar, q_idx]
            quality = qvalues[ar, q_idx]
            qo_high = st.qo[rows, k, q_idx]
            for m, mpc in enumerate(self._mpc):
                sel = np.flatnonzero(planned & (facts[:, _T["mpc"]] == m))
                if not sel.size:
                    continue
                w = [plans[u].windows[k] for u in rows[sel].tolist()]
                w_sizes = np.stack([x[0] for x in w])
                v_idx, f_idx, _ = mpc.solver.choose_batch(
                    w_sizes, np.stack([x[1] for x in w]), mpc.rates,
                    est[sel], level_req[sel],
                )
                size[sel] = w_sizes[np.arange(sel.size), 0, v_idx, f_idx]
                quality[sel] = v_idx + 1
                q_idx[sel] = v_idx
                qo_high[sel] = st.qo[rows[sel], k, v_idx]
                frame_rate[sel] = np.array(mpc.rates)[f_idx]
                decode[sel] = mpc.decode_j[f_idx]
                render[sel] = mpc.render_j[f_idx]
                factor[sel] = st.factors[rows[sel], k, f_idx]
                rate_idx[sel] = f_idx
                is_int[sel] = True

            # --- rows the precompute cannot serve plan through the scheme
            objects: dict[int, object] = {}
            for i in np.flatnonzero(~planned).tolist():
                p = plans[rows[i]]
                prediction = p.view.predictions[k]
                if playhead[i] > max(mid - late, 0.0):
                    feeder = feeders.get(i)
                    if feeder is None:
                        feeder = feeders[i] = self._feeder(p.view.trace)
                    t = max(float(playhead[i]), mid - late, 0.0)
                    prediction = (*feeder.predict(t, mid), mid - t)
                objects[i] = p.scheme.plan(self._context(
                    p, k, prediction, float(level_req[i]), float(est[i])
                ))

            # --- download: one fetch per row
            dt, active, edge_hit, sample, skipped = self._fetch(
                k, plans, rows, networks, groups, objects, q_idx, rate_idx,
                size, wall, level_req, I,
            )
            for i, plan in objects.items():
                self._derive(i, k, plan, plans[rows[i]].view, skipped[i],
                             size, quality, is_int, frame_rate, factor,
                             qo_high, decode, render, F, I)
            # A row whose fetch measured no throughput takes no sample.
            add = sample > 0
            estimator.add(sample if add.all()
                          else np.ma.masked_array(sample, ~add))

            # --- buffer (Eq. 6/7)
            stall, level = drain(level_req, dt, seg_s)
            wall = wall + dt

            # --- QoE (Eq. 2) for what was actually watched
            coverage = F[_F["coverage"]]
            qo_eff = (
                coverage * qo_high + (1.0 - coverage) * self._qo_low[k]
            ) * factor
            if skipped.any():
                qo_eff[skipped] = 0.0
            # The first download is startup delay, not a rebuffering
            # event, unless the config opts in; the recorded stall and
            # the QoE penalty agree on this (the QoE model derives the
            # stall from the download it is charged for, as drain does).
            charged = dt
            if k == 0 and not config.count_startup_stall:
                stall = charged = np.zeros(n)
            seg_qoe = self.qoe.segment_qoe(qo_eff, prev_qo, charged, level_req)
            prev_qo = qo_eff

            F[_F["quality"]] = quality
            F[_F["frame_rate"]] = frame_rate
            F[_F["size_mbit"]] = size
            F[_F["download_time_s"]] = dt
            F[_F["wait_s"]] = wait
            F[_F["stall_s"]] = stall
            F[_F["buffer_before_s"]] = level_req
            F[_F["qo_effective"]] = F[_F["qo"]] = qo_eff
            F[_F["variation_penalty"]] = seg_qoe.variation_penalty
            F[_F["rebuffer_penalty"]] = seg_qoe.rebuffer_penalty
            # Eq. 1: transmission from radio-active time, decode and
            # render from what actually plays.
            F[_F["transmission_j"]] = (
                self._energy.transmission_energy_from_time_j(active)
            )
            F[_F["decoding_j"]] = decode
            F[_F["rendering_j"]] = render
            F[_F["edge_hit_mbit"]] = edge_hit
            I[_I["quality"]] = np.where(is_int, quality, 0.0)
            I[_I["float_quality"]] = ~is_int
            yield k, F, I

    def _plan_of(self, p: _Plans, k: int, q: int, f: int,
                 size: float) -> DownloadPlan:
        """The plan ``p.scheme.plan`` returns for the precomputed pick:
        quality index ``q`` (and MPC rate index ``f``, or -1)."""
        if f < 0:
            quality, frame_rate = p.qualities[q], self.video.fps
        else:
            quality = q + 1
            frame_rate = self._mpc[int(p.table[k, _T["mpc"]])].rates[f]
        return DownloadPlan(p.scheme.name, quality, frame_rate, size,
                            *p.fixed[k])

    def _derive(self, i, k, plan, view, skipped, size, quality, is_int,
                frame_rate, factor, qo_high, decode, render, F, I) -> None:
        """Row ``i``'s segment-``k`` values from a plan object (one the
        scheme returned, or what the resilience overlay delivered)."""
        fps = self.video.fps
        size[i] = plan.total_size_mbit
        quality[i] = plan.quality
        is_int[i] = isinstance(plan.quality, (int, np.integer))
        frame_rate[i] = plan.frame_rate
        factor[i] = frame_rate_factor(plan.frame_rate, fps, view.alpha[k])
        F[_F["expected_coverage"], i] = plan.expected_coverage
        F[_F["uncertainty_deg"], i] = plan.sigma_deg
        I[_I["used_ptile"], i] = plan.used_ptile
        I[_I["decode_scheme"], i] = SCHEME_CODES[plan.decode_scheme]
        if skipped:
            # Nothing arrived: zero coverage, zero perceived quality, and
            # no decode or render work.
            F[_F["coverage"], i] = 0.0
            decode[i] = render[i] = 0.0
            return
        seg = self._manifests[k]
        F[_F["coverage"], i] = plan.coverage_of(view.watched[k])
        qo_high[i] = self.qoe.quality.qo(
            seg.si, seg.ti, seg.qoe_bitrate_mbps(plan.quality)
        )
        decode[i] = self._energy.decoding_energy_j(
            plan.decode_scheme, plan.frame_rate
        )
        render[i] = self._energy.rendering_energy_j(plan.frame_rate)

    def _fetch(self, k, plans, rows, networks, groups, objects, q_idx,
               rate_idx, size, wall, level_req, I):
        """Every row's segment-``k`` fetch: ``(dt, active, edge_hit,
        sample, skipped)`` columns.  First attempts run in columns (fault
        latency, edge split, the bin walk under the first timeout); a row
        whose attempt times out, or every row of a segment whose first
        attempt the plan corrupts, reruns through the resilience overlay.
        ``objects`` takes each delivered plan the precompute missed."""
        policy, faults = self._policy, self._faults
        edge, n = self.config.edge_model, rows.size
        skipped = np.zeros(n, dtype=bool)
        for i, plan in objects.items():
            size[i] = plan.total_size_mbit
        latency = 0.0 if faults is None else faults.extra_latency(wall)
        if edge is None:
            edge_hit, edge_time = np.zeros(n), 0.0
        else:
            ratio = edge.hit_ratio(k)
            if faults is not None:
                ratio = np.where(faults.edge_available(wall), ratio, 0.0)
            edge_hit = size * ratio
            edge_time = np.divide(edge_hit, edge.edge_bandwidth_mbps,
                                  out=np.zeros(n), where=edge_hit > 0)
        if policy is None:  # no fault plan either: nothing times out
            retry, budget = np.zeros(n, dtype=bool), np.full(n, np.inf)
        else:
            timeout = policy.first_timeouts_s(level_req, k == 0)
            avail = timeout - latency
            retry = (latency >= timeout) | ((edge_time >= avail) & (size > 0))
            if faults is not None and faults.attempt_fails(k, 0):
                retry[:] = True
            budget = np.where(retry, 0.0, avail - edge_time)
        miss, start = size - edge_hit, wall + latency
        used, done = np.empty(n), np.empty(n, dtype=bool)
        for net, sel in groups:
            used[sel], done[sel] = net.download_times(
                miss[sel], start[sel], budget[sel], faults
            )
        retry |= ~done
        active = edge_time + used
        dt = latency + active
        for i in np.flatnonzero(retry).tolist():
            plan = objects.get(i) or self._plan_of(
                plans[rows[i]], k, int(q_idx[i]), int(rate_idx[i]),
                float(size[i]),
            )
            outcome = execute_download(
                networks[i], plan, self._manifests[k], self.video.fps,
                policy=policy, fault_plan=faults,
                start_wall_t=float(wall[i]),
                buffer_level_s=float(level_req[i]), segment_index=k,
                edge_model=edge, unlimited_deadline=k == 0,
            )
            if outcome.plan is not plan or i in objects:
                objects[i] = outcome.plan
            size[i] = outcome.plan.total_size_mbit
            skipped[i] = outcome.skipped
            dt[i], active[i] = outcome.elapsed_s, outcome.active_s
            edge_hit[i] = outcome.edge_hit_mbit
            I[_I["retries"], i] = outcome.retries
            I[_I["timeouts"], i] = outcome.timeouts
            I[_I["degraded_level"], i] = outcome.level
        # An instantaneous or skipped fetch carries no throughput ratio:
        # sample the effective link where it ends instead, unless an
        # outage or a zero-bandwidth bin zeroes it.
        measured = (dt > 0) & (size > 0)
        sample = np.divide(size, dt, out=np.zeros(n), where=measured)
        if not measured.all():
            for i in np.flatnonzero(~measured).tolist():
                sample[i] = networks[i].bandwidth_at(
                    float(wall[i] + dt[i]), faults)
        return dt, active, edge_hit, sample, skipped

    # ------------------------------------------------------------------
    # Whole sessions
    # ------------------------------------------------------------------

    def sessions(self, rows: Sequence[tuple]) -> list[SessionResult]:
        """Simulate ``(scheme, head trace, network, ptiles, ftiles)``
        rows from wall clock 0; one :class:`SessionResult` per row."""
        plans = [self.plans(scheme, trace, ptiles, ftiles)
                 for scheme, trace, _, ptiles, ftiles in rows]
        steps = list(self.steps(plans, np.arange(len(rows)),
                                [row[2] for row in rows], np.zeros(len(rows))))
        floats = np.stack([F for _, F, _ in steps], axis=1)  # (cols, S, N)
        ints = np.stack([I for _, _, I in steps], axis=1)
        video_id = self.video.video.meta.video_id
        return [
            SessionResult.from_columns(
                scheme.name, video_id, trace.user_id, self.device.name,
                network.name, np.ascontiguousarray(floats[:, :, j]),
                np.ascontiguousarray(ints[:, :, j]),
            )
            for j, (scheme, trace, network, _, _) in enumerate(rows)
        ]


class _Stacked:
    """A batch's plans stacked per plan (padded to the widest ladder and
    rate set); the step indexes them with each row's plan."""

    def __init__(self, kernel: SessionKernel, plans: Sequence[_Plans]):
        u, length = len(plans), kernel.length
        qmax = max(1, *(len(p.qualities) for p in plans))
        fmax = max((len(m.rates) for m in kernel._mpc), default=1)
        self.sizes = np.full((u, length, qmax), np.inf)
        self.qo = np.zeros((u, length, qmax))
        self.qvalues = np.ones((u, qmax))
        self.int_quality = np.zeros(u, dtype=bool)
        self.table = np.zeros((u, length, len(_T)))
        self.factors = np.ones((u, length, fmax))
        self.generic = np.zeros(u, dtype=bool)
        self.abrs = list(kernel._abrs)
        for i, p in enumerate(plans):
            if p.table is None:
                self.generic[i] = True
                self.table[i, :, _T["abr"]] = self.table[i, :, _T["mpc"]] = -1
                continue
            q = len(p.qualities)
            self.sizes[i, :, :q] = p.sizes
            if p.qualities not in kernel._qo_tables:
                kernel._qo_tables[p.qualities] = qo_table(
                    kernel._manifests, p.qualities, kernel.qoe.quality)
            self.qo[i, :, :q] = kernel._qo_tables[p.qualities]
            self.qvalues[i, :q] = p.qualities
            self.int_quality[i] = all(isinstance(v, int) for v in p.qualities)
            self.table[i] = p.table
            if p.factors is not None:
                self.factors[i, :, :p.factors.shape[1]] = p.factors


def _by_network(per_row: Sequence[NetworkTrace]) -> list[tuple]:
    """The rows on each network trace: ``(trace, rows)`` pairs, where one
    shared trace takes ``slice(None)``, a view rather than a gather."""
    groups: dict[int, tuple] = {}
    for i, net in enumerate(per_row):
        groups.setdefault(id(net), (net, []))[1].append(i)
    if len(groups) == 1:
        return [(per_row[0], slice(None))]
    return [(net, np.array(sel)) for net, sel in groups.values()]


def run_session(
    scheme: StreamingScheme,
    manifest: VideoManifest,
    head_trace: HeadTrace,
    network: NetworkTrace,
    device: DevicePowerModel,
    *,
    ptiles: list[SegmentPtiles] | None = None,
    ftiles: list[FtilePartition] | None = None,
    qoe: QoEModel | None = None,
    config: SessionConfig = SessionConfig(),
) -> SessionResult:
    """Simulate one full streaming session and return its metrics."""
    kernel = SessionKernel(manifest, device, qoe, config)
    return kernel.sessions([(scheme, head_trace, network, ptiles, ftiles)])[0]
