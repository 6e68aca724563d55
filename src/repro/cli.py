"""Command-line interface.

``repro-360`` regenerates any of the paper's tables and figures from the
terminal, one command per output, flags after the command::

    repro-360 table1
    repro-360 fig8
    repro-360 fig9 --device galaxys20 --duration 120 --users 2
    repro-360 all --duration 60 --users 1
    repro-360 fig9 --help

Each command takes only the flags it reads and each flag checks its own
value, so a bad value is a usage error (exit code 2) before any work
starts.  Session experiments trade fidelity for speed with
``--duration`` (clip videos to a prefix, seconds) and ``--users`` (test
users per video); the defaults run a moderate subsample.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice

from .experiments import (
    ArtifactStore,
    default_cache_dir,
    make_setup,
    print_lines,
    run_ablation,
    run_comparison,
    run_fig2,
    run_fig4,
    run_fig5,
    run_fig7,
    run_fig8,
    run_fig9,
    run_table2,
    summarize_energy,
    summarize_qoe,
    table1_rows,
    table3_rows,
)
from .power.models import DEVICES, get_device

__all__ = ["main", "build_parser"]


# Argument types.  Each raises ArgumentTypeError, which argparse reports
# as a usage error naming the flag.


def _checked(convert, valid, expected: str):
    """An argparse type: ``convert`` the string, then require ``valid``."""

    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_non_negative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive_float = _checked(float, lambda v: v > 0, "a positive number")
_non_negative_float = _checked(float, lambda v: v >= 0, "a number >= 0")
_port = _checked(int, lambda v: 0 <= v <= 65535, "a TCP port in [0, 65535]")
_workers_arg = _checked(int, lambda v: v >= 0, "a worker count: a positive "
                        "number of processes, or 0 to auto-detect CPUs")


def _csv(convert, check):
    """An argparse type for comma-separated ``convert``-ed values;
    ``check(values)`` returns an error message or None."""

    def parse(raw: str) -> tuple:
        try:
            values = tuple(
                convert(part.strip()) for part in raw.split(",") if part.strip()
            )
        except ValueError:
            values = ()
        error = (check(values) if values
                 else f"expected comma-separated values, got {raw!r}")
        if error:
            raise argparse.ArgumentTypeError(error)
        return values

    return parse


def _each(valid, expected: str):
    def check(values: tuple) -> str | None:
        bad = [str(v) for v in values if not valid(v)]
        return f"expected {expected}, got {', '.join(bad)}" if bad else None

    return check


def _known(noun: str, names):
    """Check values against ``names()``, imported only when parsed."""

    def check(values: tuple) -> str | None:
        available = names()
        unknown = [v for v in values if v not in available]
        if not unknown:
            return None
        return (f"unknown {noun}(s) {', '.join(map(repr, unknown))}; "
                f"available: {', '.join(map(str, sorted(available)))}")

    return check


def _video_ids() -> set[int]:
    from .video import VIDEO_CATALOG

    return {meta.video_id for meta in VIDEO_CATALOG}


def _fault_profiles():
    from .resilience.faults import FAULT_PROFILES

    return FAULT_PROFILES


_video_list = _csv(int, _known("video id", _video_ids))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-360",
        description=(
            "Reproduce tables and figures of 'Energy-Efficient and "
            "QoE-Aware 360-Degree Video Streaming on Mobile Devices' "
            "(ICDCS 2022). Run 'repro-360 COMMAND --help' for the flags "
            "of one command."
        ),
    )
    commands = parser.add_subparsers(
        dest="experiment", metavar="command", required=True,
        help="which table/figure to regenerate (or 'serve' to run the "
             "online decision service)",
    )

    # Flag groups shared by several commands, as parent parsers.
    def group() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False)

    dataset = group()
    dataset.add_argument("--duration", type=_positive_int, default=120,
                         help="clip videos to this many seconds")
    dataset.add_argument("--seed", type=int, default=2017,
                         help="dataset seed")
    users = group()
    users.add_argument("--users", type=_positive_int, default=2,
                       help="test users per video")
    device = group()
    device.add_argument("--device", choices=sorted(DEVICES),
                        default="pixel3", help="device power model")
    workers = group()
    workers.add_argument(
        "--workers", type=_workers_arg, default=1,
        help="worker processes for session sweeps (1 = serial, 0 = "
             "auto-detect CPUs); results are identical either way",
    )
    artifacts = group()
    artifacts.add_argument(
        "--artifact-cache", metavar="DIR", default=None,
        help="directory of the content-prep artifact cache (default: "
             f"{default_cache_dir()}; env REPRO_ARTIFACT_CACHE overrides). "
             "Warm runs skip manifest/Ptile/Ftile construction; results "
             "are identical either way",
    )
    artifacts.add_argument(
        "--no-artifact-cache", action="store_true",
        help="disable the artifact cache and rebuild all content-prep "
             "artifacts from scratch",
    )
    results = group()
    results.add_argument(
        "--results-cache", metavar="DIR", default=None,
        help="directory of the session-results cache (default: shares "
             "the artifact-cache directory); warm re-runs read stored "
             "results, identical either way",
    )
    results.add_argument(
        "--no-results-cache", action="store_true",
        help="disable the session-results cache and re-simulate every "
             "session",
    )
    tenants = group()
    tenants.add_argument(
        "--tenant-viewers", type=_positive_int, default=8,
        help="training viewers per tenant video in the shared-cache "
             "population",
    )
    tenants.add_argument("--cache-policy", choices=("lru", "lfu"),
                         default="lru",
                         help="eviction policy of the shared edge cache")
    faults = group()
    faults.add_argument(
        "--fault-profile", metavar="NAME[,NAME...]",
        type=_csv(str, _known("fault profile", _fault_profiles)),
        default="none,outages,collapse,lossy,stress",
        help="fault profiles to sweep, comma-separated; 'none' runs the "
             "ideal fault-free path",
    )
    faults.add_argument(
        "--fault-seed", type=int, default=7,
        help="seed of the deterministic fault plans; a fixed (profile, "
             "seed) pair always yields byte-identical sessions",
    )
    faults.add_argument(
        "--retry-budget", type=_non_negative_int, default=2,
        help="download attempts beyond the first per segment before "
             "degrading to a skip (0 = no retries)",
    )
    faults.add_argument(
        "--timeout-slack", type=_non_negative_float, default=0.75,
        help="seconds past the playback deadline a segment fetch may run "
             "before being aborted",
    )
    sessions = (dataset, artifacts, users, workers, results)

    def command(name: str, handler, *groups, help: str, runs=None):
        sub = commands.add_parser(name, parents=groups, help=help,
                                  description=help)
        sub.set_defaults(runs=runs or ((name, handler),))
        return sub

    paper = (
        ("table1", (), "Table I: power models of three phones",
         lambda args: table1_rows()),
        ("table2", (), "Table II: fitted QoE coefficients",
         lambda args: run_table2().report()),
        ("table3", (), "Table III: the eight test videos",
         lambda args: table3_rows()),
        ("fig2", (workers,), "Fig. 2: Ptile vs Ctile transmission and "
         "decoding energy",
         lambda args: run_fig2(workers=args.workers).report()),
        ("fig4", (), "Fig. 4: SI/TI and the quality model",
         lambda args: run_fig4().report()),
        ("fig5", (dataset,), "Fig. 5: view switching speed distribution",
         lambda args: run_fig5(make_setup(max_duration_s=args.duration,
                                          seed=args.seed).dataset).report()),
        ("fig6", (), "Fig. 6: Ptile split of an oversized cluster", _fig6),
        ("fig7", (dataset, artifacts),
         "Fig. 7: Ptiles per segment and users covered",
         lambda args: run_fig7(_setup(args)).report()),
        ("fig8", (), "Fig. 8: Ptile/Ctile size ratio",
         lambda args: run_fig8(segments_per_video=60).report()),
        ("fig9", (*sessions, device),
         "Fig. 9: energy per scheme on one device", _fig9),
        ("fig10", sessions,
         "Fig. 10: normalized energy on Nexus 5X and Galaxy S20", _fig10),
        ("fig11", (*sessions, device), "Fig. 11: QoE per scheme", _fig11),
    )
    for name, groups, help, handler in paper:
        command(name, handler, *groups, help=help)
    command("ablation", _ablation, dataset, artifacts, users, workers,
            tenants, help="ablation sweeps of the design choices")

    sub = command("shared-cache", _shared_cache, *sessions, tenants,
                  help="shared edge cache across tenant populations")
    sub.add_argument(
        "--cache-capacities", metavar="MBIT[,MBIT...]",
        type=_csv(float, _each(lambda c: c >= 0, "capacities >= 0")),
        default="0,500,2000,8000",
        help="shared edge-cache capacities to sweep, comma-separated Mbit "
             "(0 = no cache baseline)",
    )
    sub.add_argument(
        "--tenant-videos", metavar="ID[,ID...]", type=_video_list,
        default="5,8",
        help="video ids of the tenant populations competing for the "
             "shared edge cache",
    )

    command("resilience", _resilience, *sessions, faults,
            help="sessions under injected network faults")

    sub = command("robust", _robust, *sessions, faults, device,
                  help="uncertainty-aware planning under faults")
    sub.add_argument(
        "--uncertainty", type=_non_negative_float, default=8.0,
        help="base angular error scale sigma in degrees of the robust "
             "planner's Gaussian error model (0 degenerates to the "
             "point-prediction 'ours' bit-for-bit)",
    )
    sub.add_argument(
        "--uncertainty-growth", type=_non_negative_float, default=6.0,
        help="degrees of additional error scale per second of prediction "
             "horizon",
    )
    sub.add_argument(
        "--robust-scheme", choices=("robust", "pano"), default="robust",
        help="robust planner variant: 'robust' maximizes expected "
             "viewport coverage; 'pano' adds the Pano-style perceptual "
             "polar discount to the hypothesis weights",
    )

    sub = command("population", _population, dataset, artifacts, device,
                  help="a viewer population on the batched engine")
    sub.add_argument("--arrival-rate", type=_positive_float, default=0.5,
                     help="mean session arrivals per second")
    sub.add_argument(
        "--diurnal-amplitude", default=0.3,
        type=_checked(float, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)"),
        help="sinusoidal swing of the arrival rate (0 = homogeneous "
             "Poisson)",
    )
    sub.add_argument("--arrival-window", type=_positive_float,
                     default=120.0, help="seconds of arrivals to simulate")
    sub.add_argument(
        "--population-scheme", choices=("ctile", "ptile", "ours"),
        default="ours",
        help="streaming scheme the population runs (the batched engine "
             "supports these three)",
    )

    sub = command("serve", _serve, dataset, artifacts, device, workers,
                  help="run the online decision service over TCP")
    sub.add_argument(
        "--port", type=_port, default=7360,
        help="TCP port of the decision service (0 picks an ephemeral port)",
    )
    sub.add_argument(
        "--max-batch", type=_positive_int, default=64,
        help="most plan requests coalesced into one vectorized MPC pass",
    )
    sub.add_argument(
        "--batch-wait-us", type=_non_negative_float, default=200.0,
        help="microseconds the dispatcher waits after the first queued "
             "request for co-arrivals before serving the batch (0 = only "
             "coalesce what already queued)",
    )
    sub.add_argument(
        "--videos", metavar="ID[,ID...]", type=_video_list, default="8",
        help="video ids the decision service builds plan tables for",
    )

    sub = command("ladder", _ladder, *sessions, device,
                  help="per-video encoding-ladder optimization")
    sub.add_argument(
        "--quality-targets", metavar="QO[,QO...]", default=None,
        type=_csv(float, _each(lambda t: 0.0 <= t <= 100.0,
                               "Qo scores in [0, 100]")),
        help="per-level mean-quality (Eq. 3 Qo) floors the ladder "
             "optimizer must hold, comma-separated lowest-to-highest level "
             "(default: the catalog's 25th-percentile per-level quality "
             "under the fixed ladder)",
    )
    sub.add_argument(
        "--ladder-cache", metavar="DIR", default=None,
        help="directory of the per-video ladder-search cache (default: "
             "shares the artifact-cache directory); results are identical "
             "either way",
    )
    sub.add_argument(
        "--movable-levels", type=_non_negative_int, default=1,
        help="how many of the lowest quality rungs the ladder search may "
             "move (0 = all non-pinned rungs; the default moves only the "
             "background rung, a strict bits-and-energy win)",
    )

    sub = command("report", _report, *sessions, device,
                  help="the full paper report")
    sub.add_argument("--output", default=None,
                     help="write the report to this file")

    command("all", None, *sessions, device,
            help="every paper table and figure, in order",
            runs=tuple((name, run) for name, _, _, run in paper))
    return parser


# ----------------------------------------------------------------------
# One handler per command; each reads only the flags its command takes.


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


def _setup(args: argparse.Namespace, video_ids=None):
    return make_setup(max_duration_s=args.duration, seed=args.seed,
                      video_ids=video_ids, artifacts=_artifact_store(args))


def _fig6(args):
    from .experiments import run_fig6

    return run_fig6().report()


def _comparison(args):
    device = get_device(args.device)
    results = run_comparison(_setup(args), device, users_per_video=args.users,
                             workers=args.workers,
                             results_store=_results_store(args))
    return device, results


def _fig9(args):
    device, results = _comparison(args)
    return summarize_energy(results, device.name).report()


def _fig11(args):
    return summarize_qoe(_comparison(args)[1]).report()


def _fig10(args):
    setup = _setup(args)
    return [
        line for name in ("nexus5x", "galaxys20")
        for line in run_fig9(setup, get_device(name),
                             users_per_video=args.users, workers=args.workers,
                             results_store=_results_store(args)).report()
    ]


def _fault_options(args) -> dict:
    return dict(profiles=args.fault_profile, fault_seed=args.fault_seed,
                retry_budget=args.retry_budget,
                timeout_slack_s=args.timeout_slack)


def _run(args, points, results) -> list:
    """The rows of a command's points, from one grouped runner call."""
    return run_ablation(points, workers=args.workers, results=results)


def _section(title: str, points) -> list[str]:
    return [f"-- {title} --", *(point.report() for point in points)]


def _shared_cache(args):
    from .experiments import sweep_shared_cache

    videos = args.tenant_videos
    points = sweep_shared_cache(
        _setup(args, videos), capacities_mbit=args.cache_capacities,
        video_ids=videos, tenant_viewers=args.tenant_viewers,
        policy=args.cache_policy, users=args.users,
    )
    return _section(f"shared edge cache ({args.cache_policy}, "
                    f"{len(videos)} tenant video(s))",
                    _run(args, points, _results_store(args)))


def _resilience(args):
    from .experiments import sweep_resilience

    points = sweep_resilience(_setup(args, (8,)), **_fault_options(args),
                              users=args.users)
    return _section(f"resilience (seed {args.fault_seed}, "
                    f"retry budget {args.retry_budget}, "
                    f"timeout slack {args.timeout_slack:g}s)",
                    _run(args, points, _results_store(args)))


def _robust(args):
    from .experiments import sweep_robust

    points = sweep_robust(
        _setup(args, (8,)), device=get_device(args.device),
        uncertainty_deg=args.uncertainty,
        uncertainty_growth_deg_s=args.uncertainty_growth,
        perceptual=args.robust_scheme == "pano",
        **_fault_options(args), users=args.users,
    )
    return _section(f"robust planning ({args.robust_scheme}, "
                    f"sigma {args.uncertainty:g}deg "
                    f"+{args.uncertainty_growth:g}deg/s, "
                    f"fault seed {args.fault_seed})",
                    _run(args, points, _results_store(args)))


def _population(args):
    from .experiments import run_population
    from .traces.arrivals import DiurnalPoissonArrivals

    arrivals = DiurnalPoissonArrivals(
        rate_per_s=args.arrival_rate,
        amplitude=args.diurnal_amplitude,
        # diurnal cycle compressed onto the simulated window so the
        # swing is visible inside short runs
        period_s=max(args.arrival_window, 1.0),
        seed=args.seed,
    )
    summary = run_population(
        _setup(args, (8,)), get_device(args.device),
        scheme_name=args.population_scheme, arrivals=arrivals,
        window_s=args.arrival_window,
    )
    return _section(f"population ({args.population_scheme}, "
                    f"rate {args.arrival_rate:g}/s, "
                    f"amplitude {args.diurnal_amplitude:g}, "
                    f"window {args.arrival_window:g}s)", [summary])


def _serve(args):
    from .serving import DecisionService, ServiceConfig, build_planners
    from .serving import run_server

    videos = args.videos
    planners = build_planners(_setup(args, videos), videos,
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
    return [f"served {snap['requests']} request(s) in "
            f"{snap['batches']} batch(es), mean batch "
            f"{snap['mean_batch_size']:.2f}, p50 {snap['p50_ms']:.3f}ms, "
            f"p99 {snap['p99_ms']:.3f}ms, {snap['errors']} error(s)"]


def _ladder(args):
    from .encoding import LadderSearchConfig
    from .experiments import sweep_ladder

    if args.ladder_cache is not None:
        ladder_store = ArtifactStore(args.ladder_cache)
    else:
        ladder_store = _artifact_store(args)
    targets, movable = args.quality_targets, args.movable_levels
    points = sweep_ladder(
        _setup(args), device=get_device(args.device), users=args.users,
        quality_targets=targets,
        search_config=LadderSearchConfig(movable_levels=movable or None),
        ladder_store=ladder_store, workers=args.workers,
    )
    targets_desc = (
        "q25 catalog targets" if targets is None
        else "targets " + ",".join(f"{t:g}" for t in targets)
    )
    movable_desc = "all rungs" if movable == 0 else f"lowest {movable} rung(s)"
    return _section(f"encoding ladder ({targets_desc}, {movable_desc})",
                    _run(args, points, _results_store(args)))


def _ablation(args):
    from .experiments import (
        sweep_bandwidth_estimator,
        sweep_clustering_sigma,
        sweep_edge_cache,
        sweep_frame_rate_ladder,
        sweep_mpc_horizon,
        sweep_qoe_tolerance,
        sweep_shared_cache,
        sweep_viewport_predictor,
    )

    setup = _setup(args, (5, 8))
    users = args.users
    sweeps = {
        "MPC horizon": sweep_mpc_horizon(setup, users=users),
        "QoE tolerance": sweep_qoe_tolerance(setup, users=users),
        "frame-rate ladder": sweep_frame_rate_ladder(setup, users=users),
        "bandwidth estimator": sweep_bandwidth_estimator(setup, users=users),
        "clustering sigma": sweep_clustering_sigma(setup,
                                                   workers=args.workers),
        "edge cache": sweep_edge_cache(setup, users=users),
        "shared edge cache": sweep_shared_cache(
            setup, users=users, tenant_viewers=args.tenant_viewers,
            policy=args.cache_policy,
        ),
        "viewport predictor": sweep_viewport_predictor(setup, users=users),
    }
    # The results cache shares the artifact-cache directory, as in every
    # other sessions command, so --no-artifact-cache disables both.
    rows = iter(_run(args, [p for points in sweeps.values() for p in points],
                     _artifact_store(args)))
    return [line for title, points in sweeps.items()
            for line in _section(title, islice(rows, len(points)))]


def _report(args):
    from .experiments.full_report import ReportConfig, generate_report

    text = generate_report(ReportConfig(
        max_duration_s=args.duration, users_per_video=args.users,
        device=args.device, seed=args.seed, workers=args.workers,
        artifacts=_artifact_store(args), results=_results_store(args),
    ), path=args.output)
    return [f"report written to {args.output}" if args.output else text]


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
    args = build_parser().parse_args(argv)
    for name, handler in args.runs:
        print(f"== {name} ==")
        print_lines(handler(args))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
