"""Ablation studies over the design choices of Section IV.

The paper fixes several design parameters (MPC horizon H = 5, QoE
tolerance eps = 5 %, harmonic-mean bandwidth estimation, the
{10, 20, 30} % frame-rate ladder, sigma = tile width with delta =
sigma / 4).  These sweeps quantify what each choice buys:

* :func:`sweep_mpc_horizon` — H = 1 disables lookahead; larger H
  smooths bandwidth-prediction error (Section IV-C's motivation).
* :func:`sweep_qoe_tolerance` — eps trades QoE for energy directly.
* :func:`sweep_frame_rate_ladder` — no ladder reduces Ours to Ptile;
  deeper ladders save more energy while Eq. 4 bounds the QoE cost.
* :func:`sweep_bandwidth_estimator` — harmonic mean versus EWMA versus
  last-sample, under the bursty LTE trace.
* :func:`sweep_clustering_sigma` — the Fig. 6 trade-off: larger sigma
  merges interests into oversized Ptiles, smaller sigma fragments them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
from ..streaming.schemes import CtileScheme, FtileScheme, PtileScheme
from ..streaming.session import SessionConfig
from ..video.framerate import FrameRateLadder
from .artifacts import ArtifactStore, ptiles_key
from .runner import SessionJob, parallel_map, run_session_jobs
from .setup import ExperimentSetup

__all__ = [
    "AblationPoint",
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


def _run_sessions(
    setup: ExperimentSetup,
    device: DevicePowerModel,
    scheme: OursScheme,
    video_id: int,
    users: int,
    session_config: SessionConfig | None = None,
    workers: int | None = 1,
) -> list[SessionResult]:
    """All per-user sessions of one ablation point, via the sweep runner."""
    context = setup.sweep_context(
        {scheme.name: scheme}, device, {"trace2": setup.trace2},
        (video_id,), users, config=session_config,
    )
    jobs = [
        SessionJob(
            key=(scheme.name, video_id, user),
            scheme=scheme.name,
            video_id=video_id,
            network="trace2",
            user_index=user,
        )
        for user in range(len(context.head_traces[video_id]))
    ]
    return run_session_jobs(context, jobs, workers=workers).results


def _run_ours(
    setup: ExperimentSetup,
    device: DevicePowerModel,
    scheme: OursScheme,
    video_id: int,
    users: int,
    session_config: SessionConfig | None = None,
    workers: int | None = 1,
) -> tuple[float, float, float, float]:
    sessions = _run_sessions(
        setup, device, scheme, video_id, users, session_config, workers
    )
    return (
        float(np.mean([s.energy_per_segment_j for s in sessions])),
        float(np.mean([s.mean_qoe for s in sessions])),
        float(np.mean([s.rebuffer_count for s in sessions])),
        float(np.mean([s.mean_frame_rate for s in sessions])),
    )


def sweep_mpc_horizon(
    setup: ExperimentSetup,
    horizons: tuple[int, ...] = (1, 2, 3, 5, 8),
    device: DevicePowerModel = PIXEL_3,
    video_id: int = 8,
    users: int = 2,
    workers: int | None = 1,
) -> list[AblationPoint]:
    """Energy/QoE versus the MPC lookahead H."""
    points = []
    for horizon in horizons:
        scheme = OursScheme(device=device, mpc_config=MpcConfig(horizon=horizon))
        config = replace(setup.session_config, horizon=horizon)
        energy, qoe, rebuffers, fps = _run_ours(
            setup, device, scheme, video_id, users, config, workers
        )
        points.append(
            AblationPoint(f"H={horizon}", energy, qoe, rebuffers,
                          extra={"fps": fps})
        )
    return points


def sweep_qoe_tolerance(
    setup: ExperimentSetup,
    tolerances: tuple[float, ...] = (0.0, 0.02, 0.05, 0.10, 0.20),
    device: DevicePowerModel = PIXEL_3,
    video_id: int = 8,
    users: int = 2,
    workers: int | None = 1,
) -> list[AblationPoint]:
    """Energy/QoE versus the constraint (8c) tolerance epsilon."""
    points = []
    for eps in tolerances:
        scheme = OursScheme(
            device=device, mpc_config=MpcConfig(qoe_tolerance=eps)
        )
        energy, qoe, rebuffers, fps = _run_ours(
            setup, device, scheme, video_id, users, workers=workers
        )
        points.append(
            AblationPoint(f"eps={eps:.0%}", energy, qoe, rebuffers,
                          extra={"fps": fps})
        )
    return points


def sweep_frame_rate_ladder(
    setup: ExperimentSetup,
    device: DevicePowerModel = PIXEL_3,
    video_id: int = 5,
    users: int = 2,
    workers: int | None = 1,
) -> list[AblationPoint]:
    """Ours with no / the paper's / a deeper frame-rate ladder."""
    ladders = {
        "no reduction": FrameRateLadder(reductions=()),
        "paper {10,20,30}%": FrameRateLadder(),
        "deep {20,40,60}%": FrameRateLadder(reductions=(0.6, 0.4, 0.2)),
    }
    points = []
    for label, ladder in ladders.items():
        scheme = OursScheme(device=device, ladder=ladder)
        energy, qoe, rebuffers, fps = _run_ours(
            setup, device, scheme, video_id, users, workers=workers
        )
        points.append(
            AblationPoint(label, energy, qoe, rebuffers, extra={"fps": fps})
        )
    return points


def sweep_bandwidth_estimator(
    setup: ExperimentSetup,
    device: DevicePowerModel = PIXEL_3,
    video_id: int = 8,
    users: int = 2,
    workers: int | None = 1,
) -> list[AblationPoint]:
    """Harmonic mean (paper) versus EWMA versus last sample.

    Estimators are compared on one-step-ahead prediction error over the
    bursty trace 2, plus the resulting session metrics under Ours (which
    always uses the harmonic mean internally; the error statistics are
    the ablation's point).
    """
    bandwidths = setup.trace2.bandwidth_mbps
    estimators = {
        "harmonic (paper)": HarmonicMeanEstimator(window=5),
        "ewma": EwmaEstimator(alpha=0.3),
        "last sample": LastSampleEstimator(),
    }
    energy, qoe, rebuffers, _ = _run_ours(
        setup, device, OursScheme(device=device), video_id, users,
        workers=workers,
    )
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
        points.append(
            AblationPoint(
                label,
                energy,
                qoe,
                rebuffers,
                extra={
                    "mape": float(np.mean(errors)),
                    "overestimates": float(np.mean(over)),
                },
            )
        )
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
    if len(items) > 1 and workers != 1:
        built = parallel_map(_sigma_point_task, items, workers=workers).results
    else:
        built = [_sigma_point_task(item) for item in items]

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
    workers: int | None = 1,
) -> list[AblationPoint]:
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
        scheme = OursScheme(device=device)
        sessions = _run_sessions(
            setup, device, scheme, video_id, users, config, workers
        )
        points.append(
            AblationPoint(
                label,
                float(np.mean([s.energy_per_segment_j for s in sessions])),
                float(np.mean([s.mean_qoe for s in sessions])),
                float(np.mean([s.rebuffer_count for s in sessions])),
                extra={
                    "hit_ratio": model.mean_hit_ratio if model else 0.0,
                    "stall": float(
                        np.mean([s.total_stall_s for s in sessions])
                    ),
                },
            )
        )
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
    workers: int | None = 1,
    results: ArtifactStore | None = None,
) -> list[AblationPoint]:
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

    Capacity 0 is the no-edge-cache baseline.  Deterministic and
    cache-stable: aggregates are identical at any ``workers`` count and
    with the ``results`` store warm or cold (the per-video models are
    part of the sweep-context digest); the store serves each capacity
    point's sessions from one columnar shard per video.
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

        context = setup.sweep_context(
            {scheme.name: scheme}, device, {"trace2": setup.trace2},
            video_ids, users, video_configs=video_configs,
        )
        jobs = [
            SessionJob(
                key=(scheme.name, vid, user),
                scheme=scheme.name,
                video_id=vid,
                network="trace2",
                user_index=user,
            )
            for vid in video_ids
            for user in range(len(context.head_traces[vid]))
        ]
        sessions = run_session_jobs(
            context, jobs, workers=workers, results=results
        ).results
        extra["edge_frac"] = float(
            np.mean([s.edge_hit_fraction for s in sessions])
        )
        points.append(
            AblationPoint(
                label,
                float(np.mean([s.energy_per_segment_j for s in sessions])),
                float(np.mean([s.mean_qoe for s in sessions])),
                float(np.mean([s.rebuffer_count for s in sessions])),
                extra=extra,
            )
        )
    return points


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
    workers: int | None = 1,
    results: ArtifactStore | None = None,
) -> list[AblationPoint]:
    """Energy/QoE/rebuffering of the tiling schemes under link faults.

    For each fault profile, a deterministic
    :class:`~repro.resilience.faults.FaultPlan` seeded by
    ``(profile, fault_seed)`` is overlaid on trace 2 and every scheme's
    test sessions run through the resilient download engine
    (deadline-aware timeouts, ``retry_budget`` retries with exponential
    backoff, the degradation ladder).  Fault windows are drawn over the
    session's video duration, so every window can actually perturb
    playback.  The ``"none"`` profile runs the unmodified ideal code
    path — its points must match a fault-free sweep exactly.

    One :class:`AblationPoint` per ``(profile, scheme)`` pair, labelled
    ``"profile:scheme"``, with retry/timeout/degradation/stall counters
    in ``extra``.  Deterministic and cache-stable: aggregates are
    identical at any ``workers`` count and with the ``results`` store
    warm or cold (the fault plan and policy are part of the context
    digest); the store serves each profile's sessions from one
    columnar shard per video.
    """
    if not profiles:
        raise ValueError("need at least one fault profile")
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
    schemes = {name: factories[name]() for name in scheme_names}
    manifest = setup.manifest(video_id)
    n_segments = manifest.num_segments
    if setup.session_config.max_segments is not None:
        n_segments = min(n_segments, setup.session_config.max_segments)
    plan_duration_s = n_segments * setup.session_config.segment_seconds
    policy = DownloadPolicy(
        retry_budget=retry_budget, timeout_slack_s=timeout_slack_s
    )
    heads = tuple(setup.dataset.test_traces(video_id)[:users])

    points = []
    for profile in profiles:
        if profile == "none":
            # The unmodified ideal path: both resilience knobs off, so
            # these sessions are byte-identical to a fault-free sweep
            # (and share its results-cache slots).
            config = setup.session_config
        else:
            plan = generate_fault_plan(
                profile, plan_duration_s, seed=fault_seed
            )
            config = replace(
                setup.session_config,
                fault_plan=plan,
                download_policy=policy,
            )
        context = setup.sweep_context(
            schemes, device, {"trace2": setup.trace2}, (video_id,), users,
            ftiles=True, config=config,
        )
        jobs = [
            SessionJob(
                key=(name, profile, user),
                scheme=name,
                video_id=video_id,
                network="trace2",
                user_index=user,
            )
            for name in scheme_names
            for user in range(len(heads))
        ]
        sessions = run_session_jobs(
            context, jobs, workers=workers, results=results
        ).results
        per_scheme = {
            name: sessions[i * len(heads) : (i + 1) * len(heads)]
            for i, name in enumerate(scheme_names)
        }
        for name in scheme_names:
            batch = per_scheme[name]
            points.append(
                AblationPoint(
                    f"{profile}:{name}",
                    float(np.mean([s.energy_per_segment_j for s in batch])),
                    float(np.mean([s.mean_qoe for s in batch])),
                    float(np.mean([s.rebuffer_count for s in batch])),
                    extra={
                        "stall": float(
                            np.mean([s.total_stall_s for s in batch])
                        ),
                        "retries": float(
                            np.mean([s.total_retries for s in batch])
                        ),
                        "timeouts": float(
                            np.mean([s.total_timeouts for s in batch])
                        ),
                        "degraded": float(
                            np.mean(
                                [s.degraded_segment_count for s in batch]
                            )
                        ),
                        "skipped": float(
                            np.mean(
                                [s.skipped_segment_count for s in batch]
                            )
                        ),
                    },
                )
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
    workers: int | None = 1,
    results: ArtifactStore | None = None,
) -> list[AblationPoint]:
    """Robust (uncertainty-aware) vs point-prediction MPC under faults.

    Crosses the :class:`~repro.core.robust.RobustScheme` with the
    point-prediction ``ours`` baseline over the resilience fault
    profiles — the scenarios where trusting the FoV prediction actually
    hurts.  The robust scheme runs a parametric Gaussian error model
    (``uncertainty_deg + uncertainty_growth_deg_s * horizon``, the
    fallback parameterization of
    :class:`~repro.prediction.viewport.AngularErrorModel`); set
    ``perceptual`` to weight hypotheses with the Pano polar discount.

    One :class:`AblationPoint` per ``(profile, scheme)`` pair labelled
    ``"profile:scheme"``; ``extra`` carries the viewport-quality term
    ``qo`` (the headline the robust objective optimizes), delivered
    coverage, the planner's mean expected coverage and error scale
    (schema v4 per-segment uncertainty accounting), Ptile hit rate,
    stall, and skip counters.  Deterministic and cache-stable exactly
    like :func:`sweep_resilience`: byte-identical aggregates at any
    ``workers`` count, cold or warm ``results`` store.
    """
    if not profiles:
        raise ValueError("need at least one fault profile")
    if uncertainty_deg < 0.0 or uncertainty_growth_deg_s < 0.0:
        raise ValueError("uncertainty parameters must be non-negative")
    schemes = {
        "ours": OursScheme(device=device),
        "robust": RobustScheme(
            device=device,
            error_model=AngularErrorModel(
                base_sigma_deg=uncertainty_deg,
                growth_deg_per_s=uncertainty_growth_deg_s,
            ),
            perceptual=PanoWeight() if perceptual else None,
            min_expected_coverage=min_expected_coverage,
        ),
    }
    scheme_names = tuple(schemes)
    manifest = setup.manifest(video_id)
    n_segments = manifest.num_segments
    if setup.session_config.max_segments is not None:
        n_segments = min(n_segments, setup.session_config.max_segments)
    plan_duration_s = n_segments * setup.session_config.segment_seconds
    policy = DownloadPolicy(
        retry_budget=retry_budget, timeout_slack_s=timeout_slack_s
    )
    heads = tuple(setup.dataset.test_traces(video_id)[:users])

    points = []
    for profile in profiles:
        if profile == "none":
            # Benign path: both resilience knobs off, byte-identical to
            # a fault-free sweep (and sharing its results-cache slots).
            config = setup.session_config
        else:
            plan = generate_fault_plan(
                profile, plan_duration_s, seed=fault_seed
            )
            config = replace(
                setup.session_config,
                fault_plan=plan,
                download_policy=policy,
            )
        context = setup.sweep_context(
            schemes, device, {"trace2": setup.trace2}, (video_id,), users,
            config=config,
        )
        jobs = [
            SessionJob(
                key=(name, profile, user),
                scheme=name,
                video_id=video_id,
                network="trace2",
                user_index=user,
            )
            for name in scheme_names
            for user in range(len(heads))
        ]
        sessions = run_session_jobs(
            context, jobs, workers=workers, results=results
        ).results
        per_scheme = {
            name: sessions[i * len(heads) : (i + 1) * len(heads)]
            for i, name in enumerate(scheme_names)
        }
        for name in scheme_names:
            batch = per_scheme[name]
            points.append(
                AblationPoint(
                    f"{profile}:{name}",
                    float(np.mean([s.energy_per_segment_j for s in batch])),
                    float(np.mean([s.mean_qoe for s in batch])),
                    float(np.mean([s.rebuffer_count for s in batch])),
                    extra={
                        "qo": float(np.mean([s.mean_qo for s in batch])),
                        "coverage": float(
                            np.mean([s.mean_coverage for s in batch])
                        ),
                        "expcov": float(
                            np.mean(
                                [s.mean_expected_coverage for s in batch]
                            )
                        ),
                        "sigma": float(
                            np.mean([s.mean_uncertainty_deg for s in batch])
                        ),
                        "hit": float(
                            np.mean([s.ptile_hit_rate for s in batch])
                        ),
                        "stall": float(
                            np.mean([s.total_stall_s for s in batch])
                        ),
                        "skipped": float(
                            np.mean(
                                [s.skipped_segment_count for s in batch]
                            )
                        ),
                    },
                )
            )
    return points


def sweep_ladder(
    setup: ExperimentSetup,
    device: DevicePowerModel = PIXEL_3,
    video_ids: tuple[int, ...] | None = None,
    users: int = 2,
    quality_targets: tuple[float, ...] | None = None,
    search_config=None,
    ladder_store: ArtifactStore | None = None,
    workers: int | None = 1,
    results: ArtifactStore | None = None,
) -> list[AblationPoint]:
    """Fixed vs per-content optimized encoding ladders, across videos.

    Runs the per-video ladder search
    (:func:`~repro.encoding.optimizer.optimize_catalog`; cached in
    ``ladder_store`` under content-hash keys, fanned over ``workers``),
    then streams the ``ours`` MPC scheme over trace 2 under both the
    fixed paper ladder and the optimized ladders, one
    :class:`AblationPoint` per ``(video, ladder)`` pair labelled
    ``"v<id>:fixed"`` / ``"v<id>:opt"``.  ``extra`` carries the mean
    downloaded Mbit per segment and (for ``opt`` points) the search's
    per-level FoV-bit saving.  A final ``"frontier"`` point summarizes
    the shift: how many videos improved energy or QoE at equal-or-lower
    downloaded bits.

    ``quality_targets`` defaults to the catalog's 25th-percentile
    per-level Qo (:func:`~repro.encoding.optimizer.default_quality_targets`),
    under which most of the catalog sheds background bits while the
    hardest quarter keeps the paper ladder untouched.  Deterministic
    and cache-stable
    like every sweep here: byte-identical at any ``workers`` count,
    cold or warm ``ladder_store``/``results``.
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
    search_config = search_config or LadderSearchConfig()
    quality_model = QualityModel()

    search = optimize_catalog(
        videos,
        setup.encoder,
        targets=quality_targets,
        config=search_config,
        quality_model=quality_model,
        store=ladder_store,
        workers=workers,
    )
    opt_setup = setup.with_ladders(
        {vid: search[vid].ladder for vid in video_ids}
    )

    scheme = OursScheme(device=device)
    variants = {"fixed": setup, "opt": opt_setup}
    sessions: dict[tuple[str, int], list[SessionResult]] = {}
    for variant, var_setup in variants.items():
        context = var_setup.sweep_context(
            {scheme.name: scheme}, device, {"trace2": var_setup.trace2},
            video_ids, users,
        )
        jobs = [
            SessionJob(
                key=(variant, vid, user),
                scheme=scheme.name,
                video_id=vid,
                network="trace2",
                user_index=user,
            )
            for vid in video_ids
            for user in range(len(context.head_traces[vid]))
        ]
        run = run_session_jobs(
            context, jobs, workers=workers, results=results
        )
        for job, session in zip(jobs, run.results):
            sessions.setdefault((variant, job.video_id), []).append(session)

    def _mbit_per_segment(batch: list[SessionResult]) -> float:
        return float(np.mean([
            s.total_size_mbit / max(s.num_segments, 1)
            for s in batch
        ]))

    points = []
    improved = 0
    for vid in video_ids:
        stats = {}
        for variant in variants:
            batch = sessions[(variant, vid)]
            energy = float(np.mean([s.energy_per_segment_j for s in batch]))
            qoe = float(np.mean([s.mean_qoe for s in batch]))
            rebuf = float(np.mean([s.rebuffer_count for s in batch]))
            mbit = _mbit_per_segment(batch)
            stats[variant] = (energy, qoe, mbit)
            extra = {"mbit": mbit}
            if variant == "opt":
                extra["saved"] = search[vid].bits_saved_frac
            points.append(
                AblationPoint(f"v{vid}:{variant}", energy, qoe, rebuf,
                              extra=extra)
            )
        (e_fix, q_fix, b_fix), (e_opt, q_opt, b_opt) = (
            stats["fixed"], stats["opt"],
        )
        if b_opt <= b_fix * (1.0 + 1e-9) and (
            e_opt < e_fix - 1e-9 or q_opt > q_fix + 1e-9
        ):
            improved += 1
    fixed_all = [s for vid in video_ids for s in sessions[("fixed", vid)]]
    opt_all = [s for vid in video_ids for s in sessions[("opt", vid)]]
    points.append(
        AblationPoint(
            "frontier",
            float(np.mean([s.energy_per_segment_j for s in opt_all]))
            - float(np.mean([s.energy_per_segment_j for s in fixed_all])),
            float(np.mean([s.mean_qoe for s in opt_all]))
            - float(np.mean([s.mean_qoe for s in fixed_all])),
            float(np.mean([s.rebuffer_count for s in opt_all]))
            - float(np.mean([s.rebuffer_count for s in fixed_all])),
            extra={
                "improved": float(improved),
                "videos": float(len(video_ids)),
                "mbit": _mbit_per_segment(opt_all)
                - _mbit_per_segment(fixed_all),
            },
        )
    )
    return points


def sweep_viewport_predictor(
    setup: ExperimentSetup,
    device: DevicePowerModel = PIXEL_3,
    video_id: int = 8,
    users: int = 2,
    workers: int | None = 1,
) -> list[AblationPoint]:
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
    points = []
    for label, factory in factories.items():
        config = replace(setup.session_config, predictor_factory=factory)
        scheme = OursScheme(device=device)
        sessions = _run_sessions(
            setup, device, scheme, video_id, users, config, workers
        )
        points.append(
            AblationPoint(
                label,
                float(np.mean([s.energy_per_segment_j for s in sessions])),
                float(np.mean([s.mean_qoe for s in sessions])),
                float(np.mean([s.rebuffer_count for s in sessions])),
                extra={
                    "coverage": float(
                        np.mean([s.mean_coverage for s in sessions])
                    ),
                    "hit": float(
                        np.mean([s.ptile_hit_rate for s in sessions])
                    ),
                },
            )
        )
    return points
