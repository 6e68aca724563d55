"""Command-line interface.

``repro-360`` regenerates any of the paper's tables and figures from the
terminal::

    repro-360 table1
    repro-360 fig8
    repro-360 fig9 --device galaxys20 --duration 120 --users 2
    repro-360 all --duration 60 --users 1

Experiments that simulate streaming sessions accept ``--duration`` (clip
videos to a prefix, seconds) and ``--users`` (test users per video) to
trade fidelity for speed; the defaults run a moderate subsample.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    ArtifactStore,
    default_cache_dir,
    make_setup,
    print_lines,
    run_comparison,
    run_fig2,
    run_fig4,
    run_fig5,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig11,
    run_table2,
    summarize_energy,
    summarize_qoe,
    table1_rows,
    table3_rows,
)
from .power.models import PIXEL_3, get_device

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-360",
        description=(
            "Reproduce tables and figures of 'Energy-Efficient and "
            "QoE-Aware 360-Degree Video Streaming on Mobile Devices' "
            "(ICDCS 2022)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table1", "table2", "table3",
            "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11", "ablation", "ladder", "shared-cache",
            "resilience", "robust", "population", "serve", "report", "all",
        ],
        help="which table/figure to regenerate (or 'serve' to run the "
             "online decision service)",
    )
    parser.add_argument(
        "--duration", type=int, default=120,
        help="clip videos to this many seconds (session experiments)",
    )
    parser.add_argument(
        "--users", type=int, default=2,
        help="test users per video (session experiments)",
    )
    parser.add_argument(
        "--device", default="pixel3",
        help="device for fig9/fig11 (pixel3, nexus5x, galaxys20)",
    )
    parser.add_argument(
        "--seed", type=int, default=2017, help="dataset seed"
    )
    parser.add_argument(
        "--workers", type=_workers_arg, default=1,
        help="worker processes for session sweeps (1 = serial,"
             " 0 = auto-detect CPUs); results are identical either way",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the report to this file (report command)",
    )
    parser.add_argument(
        "--artifact-cache", metavar="DIR", default=None,
        help="directory of the content-prep artifact cache (default: "
             f"{default_cache_dir()}; env REPRO_ARTIFACT_CACHE overrides). "
             "Warm runs skip manifest/Ptile/Ftile construction; results "
             "are identical either way",
    )
    parser.add_argument(
        "--no-artifact-cache", action="store_true",
        help="disable the artifact cache and rebuild all content-prep "
             "artifacts from scratch",
    )
    parser.add_argument(
        "--results-cache", metavar="DIR", default=None,
        help="directory of the session-results cache (default: shares "
             "the artifact-cache directory). Warm runs of an identical "
             "sweep deserialize stored results instead of re-simulating; "
             "aggregates are identical either way",
    )
    parser.add_argument(
        "--no-results-cache", action="store_true",
        help="disable the session-results cache and re-simulate every "
             "session",
    )
    parser.add_argument(
        "--cache-capacities", metavar="MBIT[,MBIT...]",
        default="0,500,2000,8000",
        help="shared edge-cache capacities to sweep, comma-separated "
             "Mbit (shared-cache experiment; 0 = no cache baseline)",
    )
    parser.add_argument(
        "--cache-policy", choices=("lru", "lfu"), default="lru",
        help="eviction policy of the shared edge cache "
             "(shared-cache experiment)",
    )
    parser.add_argument(
        "--tenant-videos", metavar="ID[,ID...]", default="5,8",
        help="video ids of the tenant populations competing for the "
             "shared edge cache (shared-cache experiment)",
    )
    parser.add_argument(
        "--tenant-viewers", type=int, default=8,
        help="training viewers per tenant video in the shared-cache "
             "population (shared-cache experiment)",
    )
    parser.add_argument(
        "--fault-profile", metavar="NAME[,NAME...]",
        default="none,outages,collapse,lossy,stress",
        help="fault profiles to sweep, comma-separated (resilience "
             "experiment); 'none' runs the ideal fault-free path",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=7,
        help="seed of the deterministic fault plans (resilience "
             "experiment); a fixed (profile, seed) pair always yields "
             "byte-identical sessions",
    )
    parser.add_argument(
        "--arrival-rate", type=float, default=0.5,
        help="mean session arrivals per second (population experiment)",
    )
    parser.add_argument(
        "--diurnal-amplitude", type=float, default=0.3,
        help="sinusoidal swing of the arrival rate in [0, 1) "
             "(population experiment; 0 = homogeneous Poisson)",
    )
    parser.add_argument(
        "--arrival-window", type=float, default=120.0,
        help="seconds of arrivals to simulate (population experiment)",
    )
    parser.add_argument(
        "--population-scheme", default="ours",
        choices=("ctile", "ptile", "ours"),
        help="streaming scheme the population runs (population "
             "experiment; the batched engine supports these three)",
    )
    parser.add_argument(
        "--port", type=int, default=7360,
        help="TCP port of the decision service (serve command; 0 picks "
             "an ephemeral port)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=64,
        help="most plan requests coalesced into one vectorized MPC "
             "pass (serve command)",
    )
    parser.add_argument(
        "--batch-wait-us", type=float, default=200.0,
        help="microseconds the dispatcher waits after the first queued "
             "request for co-arrivals before serving the batch (serve "
             "command; 0 = only coalesce what already queued)",
    )
    parser.add_argument(
        "--videos", metavar="ID[,ID...]", default="8",
        help="video ids the decision service builds plan tables for "
             "(serve command)",
    )
    parser.add_argument(
        "--quality-targets", metavar="QO[,QO...]", default=None,
        help="per-level mean-quality (Eq. 3 Qo) floors the ladder "
             "optimizer must hold, comma-separated lowest-to-highest "
             "level (ladder experiment; default: the catalog's 25th-"
             "percentile per-level quality under the fixed ladder)",
    )
    parser.add_argument(
        "--ladder-cache", metavar="DIR", default=None,
        help="directory of the per-video ladder-search cache (ladder "
             "experiment; default: shares the artifact-cache directory). "
             "Warm runs reuse searches keyed by video content, targets, "
             "and search config; results are identical either way",
    )
    parser.add_argument(
        "--movable-levels", type=int, default=1,
        help="how many of the lowest quality rungs the ladder search "
             "may move (ladder experiment; 0 = all non-pinned rungs). "
             "The default moves only the background rung, which is a "
             "strict bits-and-energy win; larger values shed more "
             "ladder bits but let the MPC trade them into quality",
    )
    parser.add_argument(
        "--uncertainty", type=float, default=8.0,
        help="base angular error scale sigma in degrees of the robust "
             "planner's Gaussian error model (robust experiment; 0 "
             "degenerates to the point-prediction 'ours' bit-for-bit)",
    )
    parser.add_argument(
        "--uncertainty-growth", type=float, default=6.0,
        help="degrees of additional error scale per second of "
             "prediction horizon (robust experiment)",
    )
    parser.add_argument(
        "--robust-scheme", choices=("robust", "pano"), default="robust",
        help="robust planner variant: 'robust' maximizes expected "
             "viewport coverage; 'pano' adds the Pano-style perceptual "
             "polar discount to the hypothesis weights (robust "
             "experiment)",
    )
    parser.add_argument(
        "--retry-budget", type=int, default=2,
        help="download attempts beyond the first per segment before "
             "degrading to a skip (resilience experiment)",
    )
    parser.add_argument(
        "--timeout-slack", type=float, default=0.75,
        help="seconds past the playback deadline a segment fetch may "
             "run before being aborted (resilience experiment)",
    )
    return parser


def _workers_arg(raw: str) -> int:
    """Validate ``--workers`` at parse time with an actionable message
    instead of failing deep inside the process pool."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer worker count, got {raw!r}"
        )
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"{value} is not a valid worker count: pass a positive "
            "number of worker processes, or 0 to auto-detect CPUs"
        )
    return value


def _parse_csv(raw: str, convert, flag: str, parser) -> tuple:
    try:
        values = tuple(convert(part) for part in raw.split(",") if part.strip())
    except ValueError:
        parser.error(f"{flag} expects comma-separated values, got {raw!r}")
    if not values:
        parser.error(f"{flag} needs at least one value")
    return values


def _artifact_store(args: argparse.Namespace) -> ArtifactStore | None:
    if args.no_artifact_cache:
        return None
    return ArtifactStore(args.artifact_cache)


def _results_store(args: argparse.Namespace) -> ArtifactStore | None:
    if args.no_results_cache:
        return None
    if args.results_cache is not None:
        return ArtifactStore(args.results_cache)
    # By default the results cache shares the artifact-cache directory,
    # so disabling that disables this too unless a directory is given.
    if args.no_artifact_cache:
        return None
    return ArtifactStore(args.artifact_cache)


def _run_one(name: str, args: argparse.Namespace) -> None:
    if name == "table1":
        print_lines(table1_rows())
    elif name == "table2":
        print_lines(run_table2().report())
    elif name == "table3":
        print_lines(table3_rows())
    elif name == "fig2":
        print_lines(run_fig2(workers=args.workers).report())
    elif name == "fig4":
        print_lines(run_fig4().report())
    elif name == "fig5":
        setup = make_setup(max_duration_s=args.duration, seed=args.seed)
        print_lines(run_fig5(setup.dataset).report())
    elif name == "fig6":
        from .experiments import run_fig6

        print_lines(run_fig6().report())
    elif name == "fig7":
        setup = make_setup(max_duration_s=args.duration, seed=args.seed,
                           artifacts=_artifact_store(args))
        print_lines(run_fig7(setup).report())
    elif name == "fig8":
        print_lines(run_fig8(segments_per_video=60).report())
    elif name in ("fig9", "fig11"):
        device = get_device(args.device)
        setup = make_setup(max_duration_s=args.duration, seed=args.seed,
                           artifacts=_artifact_store(args))
        results = run_comparison(setup, device, users_per_video=args.users,
                                 workers=args.workers,
                                 results_store=_results_store(args))
        if name == "fig9":
            print_lines(summarize_energy(results, device.name).report())
        else:
            print_lines(summarize_qoe(results).report())
    elif name == "fig10":
        setup = make_setup(max_duration_s=args.duration, seed=args.seed,
                           artifacts=_artifact_store(args))
        for device_name in ("nexus5x", "galaxys20"):
            device = get_device(device_name)
            comparison = run_fig9(setup, device, users_per_video=args.users,
                                  workers=args.workers,
                                  results_store=_results_store(args))
            print_lines(comparison.report())
    elif name == "shared-cache":
        from .experiments import sweep_shared_cache

        videos = args.tenant_videos_parsed
        setup = make_setup(max_duration_s=args.duration, seed=args.seed,
                           video_ids=videos,
                           artifacts=_artifact_store(args))
        points = sweep_shared_cache(
            setup,
            capacities_mbit=args.cache_capacities_parsed,
            video_ids=videos,
            tenant_viewers=args.tenant_viewers,
            users=args.users,
            policy=args.cache_policy,
            workers=args.workers,
            results=_results_store(args),
        )
        print(f"-- shared edge cache ({args.cache_policy},"
              f" {len(videos)} tenant video(s)) --")
        for point in points:
            print(point.report())
    elif name == "resilience":
        from .experiments import sweep_resilience

        setup = make_setup(max_duration_s=args.duration, seed=args.seed,
                           video_ids=(8,),
                           artifacts=_artifact_store(args))
        points = sweep_resilience(
            setup,
            profiles=args.fault_profiles_parsed,
            users=args.users,
            fault_seed=args.fault_seed,
            retry_budget=args.retry_budget,
            timeout_slack_s=args.timeout_slack,
            workers=args.workers,
            results=_results_store(args),
        )
        print(f"-- resilience (seed {args.fault_seed}, "
              f"retry budget {args.retry_budget}, "
              f"timeout slack {args.timeout_slack:g}s) --")
        for point in points:
            print(point.report())
    elif name == "robust":
        from .experiments import sweep_robust

        setup = make_setup(max_duration_s=args.duration, seed=args.seed,
                           video_ids=(8,),
                           artifacts=_artifact_store(args))
        points = sweep_robust(
            setup,
            profiles=args.fault_profiles_parsed,
            device=get_device(args.device),
            users=args.users,
            uncertainty_deg=args.uncertainty,
            uncertainty_growth_deg_s=args.uncertainty_growth,
            perceptual=args.robust_scheme == "pano",
            fault_seed=args.fault_seed,
            retry_budget=args.retry_budget,
            timeout_slack_s=args.timeout_slack,
            workers=args.workers,
            results=_results_store(args),
        )
        print(f"-- robust planning ({args.robust_scheme}, "
              f"sigma {args.uncertainty:g}deg "
              f"+{args.uncertainty_growth:g}deg/s, "
              f"fault seed {args.fault_seed}) --")
        for point in points:
            print(point.report())
    elif name == "population":
        from .experiments import run_population
        from .traces.arrivals import DiurnalPoissonArrivals

        setup = make_setup(max_duration_s=args.duration, seed=args.seed,
                           video_ids=(8,),
                           artifacts=_artifact_store(args))
        arrivals = DiurnalPoissonArrivals(
            rate_per_s=args.arrival_rate,
            amplitude=args.diurnal_amplitude,
            # diurnal cycle compressed onto the simulated window so the
            # swing is visible inside short runs
            period_s=max(args.arrival_window, 1.0),
            seed=args.seed,
        )
        summary = run_population(
            setup,
            get_device(args.device),
            scheme_name=args.population_scheme,
            arrivals=arrivals,
            window_s=args.arrival_window,
        )
        print(f"-- population ({args.population_scheme}, "
              f"rate {args.arrival_rate:g}/s, "
              f"amplitude {args.diurnal_amplitude:g}, "
              f"window {args.arrival_window:g}s) --")
        print(summary.report())
    elif name == "serve":
        from .serving import DecisionService, ServiceConfig, build_planners
        from .serving import run_server

        videos = args.videos_parsed
        setup = make_setup(max_duration_s=args.duration, seed=args.seed,
                           video_ids=videos,
                           artifacts=_artifact_store(args))
        planners = build_planners(setup, videos,
                                  device=get_device(args.device),
                                  workers=args.workers)
        service = DecisionService(planners, ServiceConfig(
            max_batch=args.max_batch, batch_wait_us=args.batch_wait_us,
        ))

        def _on_ready(port: int) -> None:
            print(f"decision service: videos {sorted(planners)} on "
                  f"127.0.0.1:{port} (max batch {args.max_batch}, "
                  f"batch wait {args.batch_wait_us:g}us); Ctrl-C stops",
                  flush=True)

        run_server(service, port=args.port, on_ready=_on_ready)
        snap = service.stats.snapshot()
        print(f"served {snap['requests']} request(s) in "
              f"{snap['batches']} batch(es), mean batch "
              f"{snap['mean_batch_size']:.2f}, p50 {snap['p50_ms']:.3f}ms, "
              f"p99 {snap['p99_ms']:.3f}ms, {snap['errors']} error(s)")
    elif name == "ladder":
        from .encoding import LadderSearchConfig
        from .experiments import sweep_ladder

        setup = make_setup(max_duration_s=args.duration, seed=args.seed,
                           artifacts=_artifact_store(args))
        if args.ladder_cache is not None:
            ladder_store = ArtifactStore(args.ladder_cache)
        else:
            ladder_store = _artifact_store(args)
        config = LadderSearchConfig(
            movable_levels=(
                None if args.movable_levels == 0 else args.movable_levels
            ),
        )
        points = sweep_ladder(
            setup,
            device=get_device(args.device),
            users=args.users,
            quality_targets=args.quality_targets_parsed,
            search_config=config,
            ladder_store=ladder_store,
            workers=args.workers,
            results=_results_store(args),
        )
        targets_desc = (
            "q25 catalog targets" if args.quality_targets_parsed is None
            else f"targets {args.quality_targets}"
        )
        movable_desc = (
            "all rungs" if args.movable_levels == 0
            else f"lowest {args.movable_levels} rung(s)"
        )
        print(f"-- encoding ladder ({targets_desc}, {movable_desc}) --")
        for point in points:
            print(point.report())
    elif name == "ablation":
        from .experiments import (
            make_setup as _make_setup,
            sweep_bandwidth_estimator,
            sweep_clustering_sigma,
            sweep_edge_cache,
            sweep_frame_rate_ladder,
            sweep_mpc_horizon,
            sweep_qoe_tolerance,
            sweep_shared_cache,
            sweep_viewport_predictor,
        )

        setup = _make_setup(max_duration_s=args.duration, seed=args.seed,
                            video_ids=(5, 8),
                            artifacts=_artifact_store(args))
        sweeps = {
            "MPC horizon": sweep_mpc_horizon(
                setup, users=args.users, workers=args.workers
            ),
            "QoE tolerance": sweep_qoe_tolerance(
                setup, users=args.users, workers=args.workers
            ),
            "frame-rate ladder": sweep_frame_rate_ladder(
                setup, users=args.users, workers=args.workers
            ),
            "bandwidth estimator": sweep_bandwidth_estimator(
                setup, users=args.users, workers=args.workers
            ),
            "clustering sigma": sweep_clustering_sigma(
                setup, workers=args.workers
            ),
            "edge cache": sweep_edge_cache(
                setup, users=args.users, workers=args.workers
            ),
            "shared edge cache": sweep_shared_cache(
                setup, users=args.users, workers=args.workers,
                tenant_viewers=args.tenant_viewers,
                policy=args.cache_policy,
            ),
            "viewport predictor": sweep_viewport_predictor(
                setup, users=args.users, workers=args.workers
            ),
        }
        for title, points in sweeps.items():
            print(f"-- {title} --")
            for point in points:
                print(point.report())
    elif name == "report":
        from .experiments.full_report import ReportConfig, generate_report

        report_config = ReportConfig(
            max_duration_s=args.duration,
            users_per_video=args.users,
            device=args.device,
            seed=args.seed,
            workers=args.workers,
            artifacts=_artifact_store(args),
            results=_results_store(args),
        )
        text = generate_report(report_config, path=args.output)
        if args.output:
            print(f"report written to {args.output}")
        else:
            print(text)
    else:  # pragma: no cover - guarded by argparse choices
        raise ValueError(f"unknown experiment {name}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    try:
        return _main(argv)
    except BrokenPipeError:  # e.g. piped into `head`
        import os

        try:
            sys.stdout.close()
        except Exception:
            pass
        os._exit(0)


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tenant_viewers < 1:
        parser.error("--tenant-viewers must be >= 1")
    args.cache_capacities_parsed = _parse_csv(
        args.cache_capacities, float, "--cache-capacities", parser
    )
    args.tenant_videos_parsed = _parse_csv(
        args.tenant_videos, int, "--tenant-videos", parser
    )
    if any(c < 0 for c in args.cache_capacities_parsed):
        parser.error("--cache-capacities must be non-negative")
    args.fault_profiles_parsed = _parse_csv(
        args.fault_profile, str.strip, "--fault-profile", parser
    )
    args.videos_parsed = _parse_csv(args.videos, int, "--videos", parser)
    if args.quality_targets is None:
        args.quality_targets_parsed = None
    else:
        args.quality_targets_parsed = _parse_csv(
            args.quality_targets, float, "--quality-targets", parser
        )
        if any(not 0.0 <= t <= 100.0 for t in args.quality_targets_parsed):
            parser.error("--quality-targets must be Qo scores in [0, 100]")
    if args.movable_levels < 0:
        parser.error("--movable-levels must be >= 0 (0 = all non-pinned "
                     "rungs)")
    if not 0 <= args.port <= 65535:
        parser.error("--port must be in [0, 65535]")
    if args.max_batch < 1:
        parser.error("--max-batch must be >= 1")
    if args.batch_wait_us < 0:
        parser.error("--batch-wait-us must be >= 0")
    from .resilience.faults import FAULT_PROFILES

    unknown_profiles = [
        p for p in args.fault_profiles_parsed if p not in FAULT_PROFILES
    ]
    if unknown_profiles:
        parser.error(
            f"unknown fault profile(s) {', '.join(map(repr, unknown_profiles))}; "
            f"available: {', '.join(sorted(FAULT_PROFILES))}"
        )
    if args.retry_budget < 0:
        parser.error("--retry-budget must be >= 0 (0 = no retries)")
    if args.uncertainty < 0:
        parser.error("--uncertainty must be >= 0 degrees")
    if args.uncertainty_growth < 0:
        parser.error("--uncertainty-growth must be >= 0 degrees/second")
    if args.timeout_slack < 0:
        parser.error("--timeout-slack must be >= 0 seconds")
    if args.arrival_rate <= 0:
        parser.error("--arrival-rate must be positive")
    if not 0.0 <= args.diurnal_amplitude < 1.0:
        parser.error("--diurnal-amplitude must be in [0, 1)")
    if args.arrival_window <= 0:
        parser.error("--arrival-window must be positive")
    if args.experiment == "all":
        names = [
            "table1", "table2", "table3",
            "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11",
        ]
    else:
        names = [args.experiment]
    for name in names:
        print(f"== {name} ==")
        _run_one(name, args)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
