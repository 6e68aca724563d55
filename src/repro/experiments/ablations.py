"""Ablation studies over the design choices of Section IV and the
extensions built on them.

The paper fixes several design parameters (MPC horizon H = 5, QoE
tolerance eps = 5 %, harmonic-mean bandwidth estimation, the
{10, 20, 30} % frame-rate ladder, sigma = tile width with delta =
sigma / 4).  One ``sweep_*`` function per choice quantifies what it
buys; further sweeps cover the edge caches, fault resilience, robust
planning and per-content encoding ladders.

A sweep declares its points as data and runs no session itself.  Each
:class:`SweepPoint` is a label, the :class:`Sessions` it reads (schemes,
device, session config or per-video configs, videos and users, streamed
over trace 2) and the result columns to average over them; points that
name the same :class:`Sessions` share its sessions.  Content prep stays
in the sweep: hit-model training, the ladder search and the sigma
sweep's Ptile builds.  A sweep may also return ready
:class:`AblationPoint` rows (the sigma sweep reports Ptile geometry,
not sessions) or a derived row, a function of the other rows (the
ladder frontier).

:func:`run_ablation` turns any list of points, from one sweep or many,
into :class:`AblationPoint` rows with one
:func:`~repro.experiments.runner.run_session_groups` call: every session
of the list shares one process pool and, with a results store, each
distinct session runs once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Any, Callable, Sequence, Union

import numpy as np

from ..core.controller import OursScheme
from ..core.optimizer import MpcConfig
from ..core.robust import RobustScheme
from ..power.models import DevicePowerModel, PIXEL_3
from ..prediction.bandwidth import (
    EwmaEstimator,
    HarmonicMeanEstimator,
    LastSampleEstimator,
)
from ..prediction.uncertainty import PanoWeight
from ..prediction.viewport import AngularErrorModel
from ..ptile.construction import PtileConfig, build_video_ptiles
from ..ptile.coverage import coverage_stats
from ..resilience.faults import generate_fault_plan
from ..resilience.policy import DownloadPolicy
from ..streaming.cache import (
    CacheTenant,
    build_edge_hit_model,
    build_shared_edge_hit_models,
)
from ..streaming.metrics import SessionResult
from ..streaming.schemes import (
    CtileScheme,
    FtileScheme,
    PtileScheme,
    StreamingScheme,
)
from ..streaming.session import SessionConfig
from ..video.framerate import FrameRateLadder
from .artifacts import ArtifactStore, ptiles_key
from .runner import SessionJob, SweepContext, parallel_map, run_session_groups
from .setup import ExperimentSetup

__all__ = [
    "AblationPoint",
    "Sessions",
    "SweepPoint",
    "run_ablation",
    "sweep_mpc_horizon",
    "sweep_qoe_tolerance",
    "sweep_frame_rate_ladder",
    "sweep_bandwidth_estimator",
    "sweep_clustering_sigma",
    "sweep_edge_cache",
    "sweep_ladder",
    "sweep_shared_cache",
    "sweep_viewport_predictor",
    "sweep_resilience",
    "sweep_robust",
]


@dataclass(frozen=True)
class AblationPoint:
    """One configuration's outcome in a sweep."""

    label: str
    energy_per_segment_j: float
    qoe: float
    rebuffer_count: float
    extra: dict | None = None

    def report(self) -> str:
        line = (
            f"  {self.label:<22} E/seg {self.energy_per_segment_j:6.3f} J"
            f"  QoE {self.qoe:6.2f}  rebuffers {self.rebuffer_count:4.1f}"
        )
        if self.extra:
            line += "  " + " ".join(f"{k}={v:.3g}" for k, v in self.extra.items())
        return line


Column = Union[str, Callable[[SessionResult], float]]
"""A per-session value: a :class:`SessionResult` attribute name, or a
function of the session."""


@dataclass(frozen=True, eq=False)
class Sessions:
    """One set of sessions: each scheme streamed over trace 2 by the
    first ``users`` test users of each video, under ``config`` (default:
    the setup's) with ``video_configs`` overrides.

    Compared by identity: the points naming one set share its sessions.
    """

    setup: ExperimentSetup
    schemes: tuple[StreamingScheme, ...]
    device: DevicePowerModel
    videos: tuple[int, ...]
    users: int
    config: SessionConfig | None = None
    video_configs: dict[int, SessionConfig] | None = None
    ftiles: bool = False

    def group(self) -> tuple[SweepContext, list[SessionJob]]:
        """The runner group: the sweep context and its jobs, ordered
        scheme, then video, then user."""
        context = self.setup.sweep_context(
            {scheme.name: scheme for scheme in self.schemes}, self.device,
            {"trace2": self.setup.trace2}, self.videos, self.users,
            ftiles=self.ftiles, config=self.config,
            video_configs=self.video_configs,
        )
        jobs = [
            SessionJob(
                key=(scheme.name, vid, user),
                scheme=scheme.name,
                video_id=vid,
                network="trace2",
                user_index=user,
            )
            for scheme in self.schemes
            for vid in self.videos
            for user in range(len(context.head_traces[vid]))
        ]
        return context, jobs


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """One row of a sweep: means over the sessions of ``sessions`` (of
    one ``scheme`` and one ``video`` where given).

    ``extra`` maps each reported name to a constant, or to a
    :data:`Column` to average over the row's sessions.
    """

    label: str
    sessions: Sessions
    extra: dict[str, Any] = field(default_factory=dict)
    scheme: str | None = None
    video: int | None = None


Derived = Callable[
    [dict[SweepPoint, AblationPoint], dict[Sessions, list[SessionResult]]],
    AblationPoint,
]
"""A row computed from the run's other rows and its session sets."""

Point = Union[SweepPoint, AblationPoint, Derived]


def _mean(sessions: Sequence[SessionResult], column: Column) -> float:
    value = attrgetter(column) if isinstance(column, str) else column
    return float(np.mean([value(s) for s in sessions]))


def _row(label: str, sessions: Sequence[SessionResult],
         extra: dict[str, Any]) -> AblationPoint:
    return AblationPoint(
        label,
        _mean(sessions, "energy_per_segment_j"),
        _mean(sessions, "mean_qoe"),
        _mean(sessions, "rebuffer_count"),
        extra={
            name: _mean(sessions, value)
            if isinstance(value, str) or callable(value) else value
            for name, value in extra.items()
        },
    )


def run_ablation(
    points: Sequence[Point],
    *,
    workers: int | None = 1,
    results: ArtifactStore | None = None,
) -> list[AblationPoint]:
    """The rows of ``points``, in order, from one grouped runner call.

    Each distinct :class:`Sessions` is one runner group, so all of the
    points' sessions share one pool (``workers``: 1 = serial, 0 =
    auto-detect) and the ``results`` store, which runs each distinct
    session once.  Ready :class:`AblationPoint` rows pass through;
    derived rows are called with the rows and session sets of the run.
    Byte-identical at any ``workers`` count, cold or warm store.
    """
    sets = list(dict.fromkeys(
        p.sessions for p in points if isinstance(p, SweepPoint)
    ))
    groups = [s.group() for s in sets]
    flat = iter(run_session_groups(
        groups, workers=workers, results=results
    ).results)
    ran = {  # each set's (job, result) pairs, in job order
        s: [(job, next(flat)) for job in jobs]
        for s, (_, jobs) in zip(sets, groups)
    }
    sessions = {s: [r for _, r in pairs] for s, pairs in ran.items()}
    rows: dict[SweepPoint, AblationPoint] = {}
    out = []
    for point in points:
        if isinstance(point, SweepPoint):
            rows[point] = _row(point.label, [
                r for job, r in ran[point.sessions]
                if point.scheme in (None, job.scheme)
                and point.video in (None, job.video_id)
            ], point.extra)
            out.append(rows[point])
        elif isinstance(point, AblationPoint):
            out.append(point)
        else:
            out.append(point(rows, sessions))
    return out


def _ours(setup: ExperimentSetup, device: DevicePowerModel, video_id: int,
          users: int, scheme: OursScheme | None = None,
          config: SessionConfig | None = None) -> Sessions:
    """The sessions of one ``ours`` configuration on one video."""
    return Sessions(setup, (scheme or OursScheme(device=device),), device,
                    (video_id,), users, config=config)


def sweep_mpc_horizon(
    setup: ExperimentSetup,
    horizons: tuple[int, ...] = (1, 2, 3, 5, 8),
    device: DevicePowerModel = PIXEL_3,
    video_id: int = 8,
    users: int = 2,
) -> list[SweepPoint]:
    """Energy/QoE versus the MPC lookahead H: H = 1 disables lookahead;
    larger H smooths bandwidth-prediction error (Section IV-C)."""
    return [
        SweepPoint(f"H={horizon}", _ours(
            setup, device, video_id, users,
            OursScheme(device=device, mpc_config=MpcConfig(horizon=horizon)),
            replace(setup.session_config, horizon=horizon),
        ), {"fps": "mean_frame_rate"})
        for horizon in horizons
    ]


def sweep_qoe_tolerance(
    setup: ExperimentSetup,
    tolerances: tuple[float, ...] = (0.0, 0.02, 0.05, 0.10, 0.20),
    device: DevicePowerModel = PIXEL_3,
    video_id: int = 8,
    users: int = 2,
) -> list[SweepPoint]:
    """Energy/QoE versus the constraint (8c) tolerance epsilon, which
    trades QoE for energy directly."""
    return [
        SweepPoint(f"eps={eps:.0%}", _ours(
            setup, device, video_id, users,
            OursScheme(device=device, mpc_config=MpcConfig(qoe_tolerance=eps)),
        ), {"fps": "mean_frame_rate"})
        for eps in tolerances
    ]


def sweep_frame_rate_ladder(
    setup: ExperimentSetup,
    device: DevicePowerModel = PIXEL_3,
    video_id: int = 5,
    users: int = 2,
) -> list[SweepPoint]:
    """Ours with no / the paper's / a deeper frame-rate ladder: no
    ladder reduces Ours to Ptile; deeper ladders save more energy while
    Eq. 4 bounds the QoE cost."""
    ladders = {
        "no reduction": FrameRateLadder(reductions=()),
        "paper {10,20,30}%": FrameRateLadder(),
        "deep {20,40,60}%": FrameRateLadder(reductions=(0.6, 0.4, 0.2)),
    }
    return [
        SweepPoint(label, _ours(
            setup, device, video_id, users,
            OursScheme(device=device, ladder=ladder),
        ), {"fps": "mean_frame_rate"})
        for label, ladder in ladders.items()
    ]


def sweep_bandwidth_estimator(
    setup: ExperimentSetup,
    device: DevicePowerModel = PIXEL_3,
    video_id: int = 8,
    users: int = 2,
) -> list[SweepPoint]:
    """Harmonic mean (paper) versus EWMA versus last sample.

    Estimators are compared on one-step-ahead prediction error over the
    bursty trace 2, plus the resulting session metrics under Ours (which
    always uses the harmonic mean internally; the error statistics are
    the ablation's point), so the three rows share one session set.
    """
    bandwidths = setup.trace2.bandwidth_mbps
    estimators = {
        "harmonic (paper)": HarmonicMeanEstimator(window=5),
        "ewma": EwmaEstimator(alpha=0.3),
        "last sample": LastSampleEstimator(),
    }
    sessions = _ours(setup, device, video_id, users)
    points = []
    for label, estimator in estimators.items():
        errors = []
        over = []
        for i in range(len(bandwidths) - 1):
            estimator.add(float(bandwidths[i]))
            predicted = estimator.estimate()
            actual = float(bandwidths[i + 1])
            errors.append(abs(predicted - actual) / actual)
            over.append(predicted > actual)
        points.append(SweepPoint(label, sessions, {
            "mape": float(np.mean(errors)),
            "overestimates": float(np.mean(over)),
        }))
    return points


def _sigma_point_task(item: tuple):
    """Build one sigma point's Ptiles (any process), via the store."""
    video, train, grid, sigma, store_root = item
    config = PtileConfig(sigma=sigma, delta=sigma / 4.0)
    store = ArtifactStore(store_root) if store_root is not None else None
    key = None
    if store is not None:
        key = ptiles_key(video, train, grid, config)
        got = store.get("ptiles", key)
        if got is not None:
            return got
    ptiles = build_video_ptiles(video, train, grid, config)
    if store is not None:
        store.put("ptiles", key, ptiles)
    return ptiles


def sweep_clustering_sigma(
    setup: ExperimentSetup,
    sigma_factors: tuple[float, ...] = (0.5, 1.0, 2.0),
    video_id: int = 8,
    workers: int | None = 1,
) -> list[AblationPoint]:
    """Ptile construction versus the cluster size bound sigma.

    Reports the Fig. 7-style statistics: mean Ptiles per segment, user
    coverage, and the mean Ptile area (the energy proxy the bound
    controls).  The per-sigma Algorithm 1 builds are independent, so
    they fan out across the runner pool (``workers``: 1 = serial, 0 =
    auto-detect), and each sigma point shares ``setup.artifacts`` —
    every (sigma, delta) resolves to its own content key, so a repeated
    sweep deserializes instead of re-clustering.
    """
    video = setup.dataset.video(video_id)
    train = setup.dataset.train_traces(video_id)
    traces = setup.dataset.traces[video_id]
    store_root = setup.artifacts.root if setup.artifacts is not None else None
    sigmas = [setup.grid.tile_width * factor for factor in sigma_factors]
    items = [
        (video, train, setup.grid, sigma, store_root) for sigma in sigmas
    ]
    built = parallel_map(_sigma_point_task, items, workers=workers).results

    points = []
    for sigma, ptiles in zip(sigmas, built):
        stats = coverage_stats(video_id, ptiles, traces)
        areas = [
            p.area_fraction for sp in ptiles for p in sp.ptiles
        ]
        points.append(
            AblationPoint(
                f"sigma={sigma:.0f}deg",
                energy_per_segment_j=float("nan"),
                qoe=float("nan"),
                rebuffer_count=0.0,
                extra={
                    "mean_ptiles": stats.mean_ptiles,
                    "coverage": stats.covered_fraction,
                    "mean_area": float(np.mean(areas)) if areas else 0.0,
                },
            )
        )
    return points


def sweep_edge_cache(
    setup: ExperimentSetup,
    capacities_mbit: tuple[float, ...] = (0.0, 500.0, 2000.0, 8000.0),
    device: DevicePowerModel = PIXEL_3,
    video_id: int = 8,
    users: int = 2,
    edge_bandwidth_mbps: float = 200.0,
) -> list[SweepPoint]:
    """Session metrics versus edge-cache capacity.

    For each capacity, an :class:`~repro.streaming.cache.EdgeHitModel`
    is trained by replaying the training population's Ptile requests
    through the LRU edge cache; sessions then serve the cached fraction
    of every segment at the edge link rate (see ``run_session``), so
    larger caches shorten downloads and rebuffering.  Capacity 0 is the
    no-edge-cache baseline.
    """
    points = []
    for capacity in capacities_mbit:
        if capacity > 0:
            model = build_edge_hit_model(
                setup.manifest(video_id),
                setup.dataset.train_traces(video_id),
                setup.ptiles(video_id),
                capacity_mbit=capacity,
                edge_bandwidth_mbps=edge_bandwidth_mbps,
            )
            label = f"edge={capacity:.0f}Mb"
        else:
            model = None
            label = "no edge cache"
        config = replace(setup.session_config, edge_model=model)
        points.append(SweepPoint(
            label, _ours(setup, device, video_id, users, config=config), {
                "hit_ratio": model.mean_hit_ratio if model else 0.0,
                "stall": "total_stall_s",
            },
        ))
    return points


def sweep_shared_cache(
    setup: ExperimentSetup,
    capacities_mbit: tuple[float, ...] = (0.0, 500.0, 2000.0, 8000.0),
    device: DevicePowerModel = PIXEL_3,
    video_ids: tuple[int, ...] | None = None,
    tenant_viewers: int = 8,
    users: int = 2,
    policy: str = "lru",
    edge_bandwidth_mbps: float = 200.0,
) -> list[SweepPoint]:
    """Session metrics versus the capacity of a *shared* edge cache.

    A multi-tenant population — ``tenant_viewers`` training viewers per
    video in ``video_ids`` (default: every video in ``setup``) — replays
    its interleaved Ptile request stream through one capacity-bounded
    edge cache, producing contention-aware per-video
    :class:`~repro.streaming.cache.EdgeHitModel`\\ s (see
    :func:`~repro.streaming.cache.build_shared_edge_hit_models`).  Test
    sessions of every tenant video then stream with their video's model
    attached via ``SweepContext.video_configs``, so the reported
    energy/QoE reflect the capacity each video actually won against the
    other tenants.  The same population's Ctile stream replays through
    an identical cache for the byte-hit-ratio comparison the extension
    argues from: Ptile's fewer, larger objects should win at the edge.

    Capacity 0 is the no-edge-cache baseline.  The per-video models are
    part of the sweep-context digest, so a results store keeps each
    capacity point's sessions apart, in one columnar shard per video.
    """
    if video_ids is None:
        video_ids = tuple(v.meta.video_id for v in setup.videos)
    if not video_ids:
        raise ValueError("need at least one tenant video")
    tenants = tuple(
        CacheTenant(
            video_id=vid,
            manifest=setup.manifest(vid),
            traces=tuple(setup.dataset.train_traces(vid)[:tenant_viewers]),
            ptiles=setup.ptiles(vid),
        )
        for vid in video_ids
    )

    scheme = OursScheme(device=device)
    points = []
    for capacity in capacities_mbit:
        if capacity > 0:
            shared = build_shared_edge_hit_models(
                tenants,
                capacity_mbit=capacity,
                policy=policy,
                edge_bandwidth_mbps=edge_bandwidth_mbps,
            )
            ctile_shared = build_shared_edge_hit_models(
                tenants,
                capacity_mbit=capacity,
                policy=policy,
                edge_bandwidth_mbps=edge_bandwidth_mbps,
                scheme="ctile",
            )
            video_configs = {
                vid: replace(
                    setup.session_config, edge_model=shared.models[vid]
                )
                for vid in video_ids
            }
            label = f"shared={capacity:.0f}Mb"
            extra = {
                "hit": shared.mean_hit_ratio,
                "ptile_byte_hit": shared.overall.byte_hit_ratio,
                "ctile_byte_hit": ctile_shared.overall.byte_hit_ratio,
            }
        else:
            video_configs = {}
            label = "no edge cache"
            extra = {"hit": 0.0, "ptile_byte_hit": 0.0, "ctile_byte_hit": 0.0}
        sessions = Sessions(setup, (scheme,), device, video_ids, users,
                            video_configs=video_configs)
        points.append(SweepPoint(
            label, sessions, {**extra, "edge_frac": "edge_hit_fraction"}
        ))
    return points


def _fault_configs(
    setup: ExperimentSetup,
    profiles: tuple[str, ...],
    video_id: int,
    fault_seed: int,
    retry_budget: int,
    timeout_slack_s: float,
) -> dict[str, SessionConfig]:
    """The session config of each fault profile: a deterministic
    :class:`~repro.resilience.faults.FaultPlan` seeded by ``(profile,
    fault_seed)`` over the session's video duration, so every window can
    perturb playback, with the resilient download policy.  ``"none"``
    keeps the setup's config, the unmodified ideal path: its sessions
    are byte-identical to a fault-free sweep (and share its results-cache
    slots)."""
    if not profiles:
        raise ValueError("need at least one fault profile")
    n_segments = setup.manifest(video_id).num_segments
    if setup.session_config.max_segments is not None:
        n_segments = min(n_segments, setup.session_config.max_segments)
    plan_duration_s = n_segments * setup.session_config.segment_seconds
    policy = DownloadPolicy(
        retry_budget=retry_budget, timeout_slack_s=timeout_slack_s
    )
    return {
        profile: setup.session_config if profile == "none" else replace(
            setup.session_config,
            fault_plan=generate_fault_plan(
                profile, plan_duration_s, seed=fault_seed
            ),
            download_policy=policy,
        )
        for profile in profiles
    }


def sweep_resilience(
    setup: ExperimentSetup,
    profiles: tuple[str, ...] = (
        "none", "outages", "collapse", "lossy", "stress",
    ),
    device: DevicePowerModel = PIXEL_3,
    video_id: int = 8,
    users: int = 2,
    scheme_names: tuple[str, ...] = ("ctile", "ftile", "ptile"),
    fault_seed: int = 7,
    retry_budget: int = 2,
    timeout_slack_s: float = 0.75,
) -> list[SweepPoint]:
    """Energy/QoE/rebuffering of the tiling schemes under link faults.

    Each fault profile's plan (see :func:`_fault_configs`) is overlaid
    on trace 2 and every scheme's test sessions run through the
    resilient download engine (deadline-aware timeouts,
    ``retry_budget`` retries with exponential backoff, the degradation
    ladder).  The ``"none"`` profile runs the unmodified ideal code
    path — its points must match a fault-free sweep exactly.

    One point per ``(profile, scheme)`` pair, labelled
    ``"profile:scheme"``, with retry/timeout/degradation/stall counters
    in ``extra``.  The fault plan and policy are part of the context
    digest, so a results store serves each profile's sessions from one
    columnar shard per video.
    """
    if not scheme_names:
        raise ValueError("need at least one scheme")
    factories = {
        "ctile": CtileScheme,
        "ftile": FtileScheme,
        "ptile": PtileScheme,
    }
    unknown = [s for s in scheme_names if s not in factories]
    if unknown:
        raise ValueError(
            f"unknown schemes {unknown}; available: "
            f"{', '.join(sorted(factories))}"
        )
    schemes = tuple(factories[name]() for name in scheme_names)
    configs = _fault_configs(setup, profiles, video_id, fault_seed,
                             retry_budget, timeout_slack_s)
    points = []
    for profile, config in configs.items():
        sessions = Sessions(setup, schemes, device, (video_id,), users,
                            config=config, ftiles=True)
        points.extend(
            SweepPoint(f"{profile}:{name}", sessions, {
                "stall": "total_stall_s",
                "retries": "total_retries",
                "timeouts": "total_timeouts",
                "degraded": "degraded_segment_count",
                "skipped": "skipped_segment_count",
            }, scheme=name)
            for name in scheme_names
        )
    return points


def sweep_robust(
    setup: ExperimentSetup,
    profiles: tuple[str, ...] = ("none", "outages", "lossy"),
    device: DevicePowerModel = PIXEL_3,
    video_id: int = 8,
    users: int = 2,
    uncertainty_deg: float = 8.0,
    uncertainty_growth_deg_s: float = 6.0,
    perceptual: bool = False,
    min_expected_coverage: float = 0.3,
    fault_seed: int = 7,
    retry_budget: int = 2,
    timeout_slack_s: float = 0.75,
) -> list[SweepPoint]:
    """Robust (uncertainty-aware) vs point-prediction MPC under faults.

    Crosses the :class:`~repro.core.robust.RobustScheme` with the
    point-prediction ``ours`` baseline over the resilience fault
    profiles — the scenarios where trusting the FoV prediction actually
    hurts.  The robust scheme runs a parametric Gaussian error model
    (``uncertainty_deg + uncertainty_growth_deg_s * horizon``, the
    fallback parameterization of
    :class:`~repro.prediction.viewport.AngularErrorModel`); set
    ``perceptual`` to weight hypotheses with the Pano polar discount.

    One point per ``(profile, scheme)`` pair labelled
    ``"profile:scheme"``; ``extra`` carries the viewport-quality term
    ``qo`` (the headline the robust objective optimizes), delivered
    coverage, the planner's mean expected coverage and error scale
    (schema v4 per-segment uncertainty accounting), Ptile hit rate,
    stall, and skip counters.  Cached exactly like
    :func:`sweep_resilience`.
    """
    if uncertainty_deg < 0.0 or uncertainty_growth_deg_s < 0.0:
        raise ValueError("uncertainty parameters must be non-negative")
    schemes = (
        OursScheme(device=device),
        RobustScheme(
            device=device,
            error_model=AngularErrorModel(
                base_sigma_deg=uncertainty_deg,
                growth_deg_per_s=uncertainty_growth_deg_s,
            ),
            perceptual=PanoWeight() if perceptual else None,
            min_expected_coverage=min_expected_coverage,
        ),
    )
    configs = _fault_configs(setup, profiles, video_id, fault_seed,
                             retry_budget, timeout_slack_s)
    points = []
    for profile, config in configs.items():
        sessions = Sessions(setup, schemes, device, (video_id,), users,
                            config=config)
        points.extend(
            SweepPoint(f"{profile}:{scheme.name}", sessions, {
                "qo": "mean_qo",
                "coverage": "mean_coverage",
                "expcov": "mean_expected_coverage",
                "sigma": "mean_uncertainty_deg",
                "hit": "ptile_hit_rate",
                "stall": "total_stall_s",
                "skipped": "skipped_segment_count",
            }, scheme=scheme.name)
            for scheme in schemes
        )
    return points


def _mbit_per_segment(session: SessionResult) -> float:
    return session.total_size_mbit / max(session.num_segments, 1)


def sweep_ladder(
    setup: ExperimentSetup,
    device: DevicePowerModel = PIXEL_3,
    video_ids: tuple[int, ...] | None = None,
    users: int = 2,
    quality_targets: tuple[float, ...] | None = None,
    search_config=None,
    ladder_store: ArtifactStore | None = None,
    workers: int | None = 1,
) -> list[Point]:
    """Fixed vs per-content optimized encoding ladders, across videos.

    Runs the per-video ladder search
    (:func:`~repro.encoding.optimizer.optimize_catalog`; cached in
    ``ladder_store`` under content-hash keys, fanned over ``workers``),
    then declares the ``ours`` MPC scheme over trace 2 under both the
    fixed paper ladder and the optimized ladders, one point per
    ``(video, ladder)`` pair labelled ``"v<id>:fixed"`` /
    ``"v<id>:opt"``.  ``extra`` carries the mean downloaded Mbit per
    segment and (for ``opt`` points) the search's per-level FoV-bit
    saving.  A final derived ``"frontier"`` row summarizes the shift:
    how many videos improved energy or QoE at equal-or-lower downloaded
    bits, and the change of the all-video means.

    ``quality_targets`` defaults to the catalog's 25th-percentile
    per-level Qo (:func:`~repro.encoding.optimizer.default_quality_targets`),
    under which most of the catalog sheds background bits while the
    hardest quarter keeps the paper ladder untouched.  Byte-identical
    at any ``workers`` count, cold or warm ``ladder_store``.
    """
    from ..encoding.optimizer import LadderSearchConfig, optimize_catalog
    from ..qoe.quality import QualityModel

    if video_ids is None:
        video_ids = tuple(v.meta.video_id for v in setup.videos)
    if not video_ids:
        raise ValueError("need at least one video to sweep")
    videos = [setup.dataset.video(vid) for vid in video_ids]
    if users < 1:
        raise ValueError("need at least one user per video")
    search = optimize_catalog(
        videos,
        setup.encoder,
        targets=quality_targets,
        config=search_config or LadderSearchConfig(),
        quality_model=QualityModel(),
        store=ladder_store,
        workers=workers,
    )
    opt_setup = setup.with_ladders(
        {vid: search[vid].ladder for vid in video_ids}
    )
    scheme = OursScheme(device=device)
    fixed, opt = (
        Sessions(var_setup, (scheme,), device, video_ids, users)
        for var_setup in (setup, opt_setup)
    )
    pairs = {
        vid: (
            SweepPoint(f"v{vid}:fixed", fixed, {"mbit": _mbit_per_segment},
                       video=vid),
            SweepPoint(f"v{vid}:opt", opt, {
                "mbit": _mbit_per_segment,
                "saved": search[vid].bits_saved_frac,
            }, video=vid),
        )
        for vid in video_ids
    }

    def frontier(rows, sessions) -> AblationPoint:
        improved = 0
        for fixed_point, opt_point in pairs.values():
            f, o = rows[fixed_point], rows[opt_point]
            if o.extra["mbit"] <= f.extra["mbit"] * (1.0 + 1e-9) and (
                o.energy_per_segment_j < f.energy_per_segment_j - 1e-9
                or o.qoe > f.qoe + 1e-9
            ):
                improved += 1
        fixed_all, opt_all = sessions[fixed], sessions[opt]
        return AblationPoint(
            "frontier",
            *(
                _mean(opt_all, column) - _mean(fixed_all, column)
                for column in (
                    "energy_per_segment_j", "mean_qoe", "rebuffer_count",
                )
            ),
            extra={
                "improved": float(improved),
                "videos": float(len(video_ids)),
                "mbit": _mean(opt_all, _mbit_per_segment)
                - _mean(fixed_all, _mbit_per_segment),
            },
        )

    return [*(p for pair in pairs.values() for p in pair), frontier]


def sweep_viewport_predictor(
    setup: ExperimentSetup,
    device: DevicePowerModel = PIXEL_3,
    video_id: int = 8,
    users: int = 2,
) -> list[SweepPoint]:
    """Static persistence vs ridge regression (paper) vs a clairvoyant
    oracle, measured by coverage of the actually-watched viewport.

    The oracle bounds what better prediction could add; the static
    baseline is what ridge must beat to justify itself.
    """
    from ..prediction.strategies import (
        oracle_predictor_factory,
        static_predictor_factory,
    )

    factories = {
        "static (persist)": static_predictor_factory,
        "ridge (paper)": None,
        "oracle (bound)": oracle_predictor_factory,
    }
    return [
        SweepPoint(label, _ours(
            setup, device, video_id, users,
            config=replace(setup.session_config, predictor_factory=factory),
        ), {"coverage": "mean_coverage", "hit": "ptile_hit_rate"})
        for label, factory in factories.items()
    ]
