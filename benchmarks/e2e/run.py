#!/usr/bin/env python3
"""End-to-end benchmark of the 360-degree streaming reproduction.

Four workloads, each run in its own process with its own stores under
``.e2e-work/`` in the repository (the user-level artifact cache is
never read):

* ``fig9`` — the Fig. 9 session matrix (every catalog video x 2 network
  traces x 5 schemes x test users) swept serially: a cold pass into a
  fresh results store, then warm re-runs served from that store.
* ``population-ours`` / ``population-ctile`` — ``run_population`` on
  video 8 with diurnal arrivals at mean concurrency 2; the MPC scheme
  and the MPC-free control.
* ``serve`` — the TCP decision service (``repro-360 serve``) driven over
  one connection: open-loop windows at 250 requests/s, then a closed
  loop of 256 requests in flight.

One workload, one run (the form ``BENCHMARK.json`` names)::

    python benchmarks/e2e/run.py --workload fig9 --seed 7 --seconds 20 --trace 0

prints progress, then one JSON line ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without ``--workload`` it runs the
suite — every workload ``--runs`` times (seeds ``seed``, ``seed + 1``,
...), plus one traced run each with ``--trace`` — and writes medians and
quartiles to ``--out``::

    python benchmarks/e2e/run.py --runs 3 --trace --out results.json

The dataset (catalog, head traces, Ptiles) is the paper's, seed 2017,
in every run; ``--seed`` draws what a run samples from it: the fig9 test
users, the population arrivals and user assignment, and the serve
requests.  Redrawing the dataset itself moves a run's work by up to 40 %
(its share of Ptile-planned segments changes), which would swamp the
changes the benchmark exists to measure.

Times are reported in *reference seconds*.  On a shared host the speed
of the whole machine swings by 40-70 % for seconds at a time as other
tenants come and go, so every timed part is bracketed by a fixed
calibration kernel that touches no program code, and a run reports
``K_REF_S * sum(part times) / sum(kernel times)``: the time the part
takes on a host where the kernel takes ``K_REF_S``.  ``serve`` is the
exception: its work spans two processes, which the kernel did not track
even when timed on the server's CPU, so its times are wall-clock, with
client and server pinned to separate CPUs.  Set-up time is the median
of several cold set-ups, each in a fresh process.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import hashlib
import json
import math
import os
import pickle
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".e2e-work"

WORKLOADS = ("fig9", "population-ours", "population-ctile", "serve")
RUN_LIMIT_S = 160  # a single workload run aborts (non-zero) past this

# Paper Fig. 9(c): energy normalized by Ctile, averaged over videos and traces.
PAPER_NORMALIZED = {"ptile": 0.697, "ours": 0.503}

DATASET_SEED = 2017
SERVE_VIDEOS = (2, 8)
POPULATION_VIDEO = 8
ARRIVAL_GAP_S = 30.0  # one arrival per 30 s: 60 s sessions -> concurrency 2
CHECK_EVERY = 50  # every 50th wire reply is re-planned in-process
VIEWPORT_POOL = 4096  # sampled (video, segment, user) viewports
GEN_LATE_LIMIT_MS = 50.0  # an open-loop phase is invalid past this lateness
K_REF_S = 0.002  # calibration-kernel time that defines a reference second


@dataclasses.dataclass(frozen=True)
class Scale:
    """Workload sizes.  ``full`` is the benchmark; ``smoke`` only checks
    that everything runs."""

    setups: int  # cold set-ups per run; setup_s is their median
    min_reps: int  # repetitions per run, however short --seconds is
    seconds: int  # default --seconds
    fig9_duration_s: int
    fig9_videos: tuple[int, ...] | None  # None: the whole catalog
    fig9_users: int
    fig9_warm_passes: int
    population_duration_s: int
    ours_sessions: int
    ctile_sessions: int
    serve_duration_s: int
    serve_requests: int  # distinct requests; ids beyond wrap around
    serve_closed_requests: int  # per closed-loop repetition
    serve_inflight: int


SCALES = {
    "full": Scale(
        setups=3, min_reps=2, seconds=20,
        fig9_duration_s=20, fig9_videos=None, fig9_users=2,
        fig9_warm_passes=2,
        population_duration_s=60, ours_sessions=240, ctile_sessions=50000,
        serve_duration_s=60, serve_requests=65536, serve_closed_requests=3000,
        serve_inflight=256,
    ),
    "smoke": Scale(
        setups=2, min_reps=1, seconds=1,
        fig9_duration_s=4, fig9_videos=SERVE_VIDEOS, fig9_users=1,
        fig9_warm_passes=1,
        population_duration_s=8, ours_sessions=16, ctile_sessions=400,
        serve_duration_s=8, serve_requests=2048, serve_closed_requests=200,
        serve_inflight=32,
    ),
}

# Per-layer metrics that are not plain (calls, self_pct) tracer totals.
EXTRA_LAYER_UNITS = {
    "experiments.artifacts.hit_ratio": "ratio",
    "experiments.artifacts.get_results_batch.rows": "count",
    "ptile.SegmentPtiles.match.hit_ratio": "ratio",
    "core.EnergyQoEMpc.choose_batch.mean_batch": "count",
    "serving.planner.plan_batch.mean_batch": "count",
    "serving.service.batches": "count",
    "serving.service.mean_batch": "count",
    "serving.service.p50_x": "x",
    "serving.service.p99_x": "x",
    "serving.client.p99_x": "x",
    "serving.client.p50_x.r1000": "x",
    "serving.client.p99_x.r1000": "x",
    "serving.client.p50_x.r2000": "x",
    "serving.client.p99_x.r2000": "x",
    "serving.client.p50_x.r3000": "x",
    "serving.client.p99_x.r3000": "x",
    "serving.client.p50_x.r4000": "x",
    "serving.client.p99_x.r4000": "x",
    "serving.client.gen_late_pct": "%",
    "serving.client.samples": "count",
    "trace.overhead_ratio": "x",
}


class Checks:
    """Operations attempted and failed; failures keep a short reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def count(self, attempted: int, failed: int = 0, reason: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.reasons) < 10:
            self.reasons.append(f"{failed}/{attempted}: {reason}")


class Run:
    """Everything one workload run reports."""

    def __init__(self, args: argparse.Namespace, scale: Scale, workdir: Path):
        self.args = args
        self.scale = scale
        self.workdir = workdir
        self.checks = Checks()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.detail: dict = {}
        self.servers: list = []  # live server processes, stopped on exit

    def tempdir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.workdir))

    def keep_going(self, reps: int, started: float) -> bool:
        return reps < self.scale.min_reps or (
            time.perf_counter() - started < self.args.seconds
        )


# ----------------------------------------------------------------------
# Timing in reference seconds
# ----------------------------------------------------------------------


def calibration_kernel() -> int:
    """Fixed interpreter, dict, hashing, pickling and small-array work
    (about 2 ms on a quiet 2.1 GHz core).  It touches no program code, so
    no change to the program can move it."""
    acc = 0
    counts: dict[int, int] = {}
    for i in range(6000):
        acc += i * i % 7
        counts[i % 97] = counts.get(i % 97, 0) + 1
    blob = pickle.dumps([(i, i * 0.5, str(i)) for i in range(800)])
    digest = hashlib.sha256()
    for _ in range(20):
        digest.update(blob)
    pickle.loads(blob)
    values = np.arange(256.0)
    for _ in range(150):
        values = np.sqrt(values * 1.0001 + 1.0)
    return acc + len(counts) + len(digest.digest())


def kernel_time() -> float:
    """The host's current speed: median of five kernel timings."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class RefClock:
    """Repeated parts of a run, timed in reference seconds.

    Each part is bracketed by kernel timings; :meth:`mean_s` is the mean
    part time rescaled to a host whose kernel takes ``K_REF_S``.  A part
    that directly follows another reuses the kernel timing between them;
    call :meth:`pause` when other work runs in between.
    """

    def __init__(self) -> None:
        self.wall_total = 0.0
        self.kernel_total = 0.0
        self.parts = 0
        self._edge: float | None = None

    def record(self, wall_s: float, kernel_s: float) -> None:
        self.wall_total += wall_s
        self.kernel_total += kernel_s
        self.parts += 1

    def measure(self, fn):
        before = self._edge if self._edge is not None else kernel_time()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self._edge = kernel_time()
        self.record(wall, (before + self._edge) / 2)
        return result

    def pause(self) -> None:
        self._edge = None

    def mean_s(self) -> float:
        return K_REF_S * self.wall_total / self.kernel_total

    def totals(self) -> dict:
        return {"parts": self.parts, "wall_s": self.wall_total,
                "mean_kernel_s": self.kernel_total / max(self.parts, 1)}


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def log(message: str) -> None:
    print(message, flush=True)


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def timed_in_fork(fn) -> float:
    """Run ``fn`` in a forked child and return its wall time.

    The child starts from this process's post-import state with none of
    the per-object memos an earlier set-up would have warmed, so each
    sample is a cold set-up without paying interpreter start-up again.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the caller's stack
        code = 1
        try:
            os.close(read_fd)
            start = time.perf_counter()
            fn()
            os.write(write_fd, repr(time.perf_counter() - start).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
    except BaseException:  # e.g. the run's time limit: reap the child
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError("a set-up in a forked child failed")
    return float(data)


def record_setups(run: Run, times: list[float]) -> None:
    """``setup_s``: the median set-up."""
    run.detail["setup_s"] = times
    run.metrics["setup_s"] = (statistics.median(times), "s")


def measure_setups(run: Run, build):
    """Median-of-N cold set-ups in reference seconds; returns the last
    one's product.

    ``build(workdir)`` performs the set-up with its stores in
    ``workdir``.  All but the last set-up run in forked children; the
    last runs here and its product is the workload's input.
    """
    times = []
    for i in range(run.scale.setups):
        before = kernel_time()
        if i < run.scale.setups - 1:
            wall = timed_in_fork(lambda: build(run.tempdir()))
        else:
            start = time.perf_counter()
            product = build(run.tempdir())
            wall = time.perf_counter() - start
        times.append(K_REF_S * wall / ((before + kernel_time()) / 2))
    record_setups(run, times)
    return product


@contextmanager
def traced(tracer):
    """Tracer installed for the block (no-op without a tracer)."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def store_hit_ratio(stores) -> float:
    hits = sum(s.stats.total_hits for s in stores)
    misses = sum(s.stats.total_misses for s in stores)
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(totals: dict, wall_s: float, extra: dict) -> dict:
    """The per-layer metric set: tracer totals plus ``extra`` values
    (zero where the workload never reaches a layer)."""
    metrics: dict[str, tuple[float, str]] = {}
    for name, total in totals.items():
        metrics[f"{name}.calls"] = (total["calls"], "count")
        metrics[f"{name}.self_pct"] = (100.0 * total["self_s"] / wall_s, "%")

    def per_call(name: str) -> float:
        calls = totals[name]["calls"]
        return totals[name]["amount"] / calls if calls else 0.0

    values = {
        "ptile.SegmentPtiles.match.hit_ratio":
            per_call("ptile.SegmentPtiles.match"),
        "experiments.artifacts.get_results_batch.rows":
            totals["experiments.artifacts.get_results_batch"]["amount"],
        "core.EnergyQoEMpc.choose_batch.mean_batch":
            per_call("core.EnergyQoEMpc.choose_batch"),
        "serving.planner.plan_batch.mean_batch":
            per_call("serving.planner.plan_batch"),
    }
    values.update(extra)
    for name, unit in EXTRA_LAYER_UNITS.items():
        metrics[name] = (float(values.get(name, 0.0)), unit)
    return metrics


def traced_layer_metrics(run: Run, tracer, extra: dict) -> None:
    dump = tracer.dump()
    run.detail["trace"] = dump
    run.metrics.update(layer_metrics(dump["layers"], dump["wall_s"], extra))


# ----------------------------------------------------------------------
# fig9: the Fig. 9 session matrix, cold then warm
# ----------------------------------------------------------------------


def fig9(run: Run, tracer) -> None:
    from repro.experiments import artifacts, runner
    from repro.experiments import setup as exp_setup
    from repro.experiments.fig9 import summarize_energy

    scale = run.scale
    stores: list = []

    def build(workdir: Path):
        store = artifacts.ArtifactStore(workdir / "artifacts")
        stores.append(store)
        setup = exp_setup.make_setup(
            max_duration_s=scale.fig9_duration_s, seed=DATASET_SEED,
            video_ids=scale.fig9_videos, artifacts=store,
        )
        return exp_setup.build_sweep(setup, workers=1)

    if tracer is None:
        context, all_jobs = measure_setups(run, build)
    else:
        with traced(tracer):
            context, all_jobs = build(run.tempdir())

    blob = pickle.dumps(context)
    videos = len(context.manifests)
    seen: dict = {}  # (key, user) -> outcome, across repetitions

    def sweep_pass(ctx, groups: dict, store_dir: Path,
                   clock: RefClock) -> list:
        """One pass over the matrix, timed per video group."""
        store = artifacts.ShardedResultsStore(store_dir)
        stores.append(store)
        results: list = []
        clock.pause()
        for video_jobs in groups.values():
            swept = clock.measure(lambda: runner.run_session_jobs(
                ctx, video_jobs, workers=1, results=store
            ))
            results.extend(swept.results)
        return results

    def outcomes(jobs: list, results: list) -> dict:
        return {
            (job.key, job.user_index):
                (r.total_energy_j, r.mean_qoe, r.total_stall_s)
            for job, r in zip(jobs, results)
        }

    def rep(index: int, cold_clock: RefClock, warm_clock: RefClock) -> int:
        jobs = seeded_jobs(all_jobs, run.args.seed, index, scale.fig9_users)
        groups: dict[int, list] = defaultdict(list)
        for job in jobs:  # jobs are ordered video-major
            groups[job.video_id].append(job)
        ctx = pickle.loads(blob)  # fresh objects: every memo starts cold
        store_dir = run.tempdir()
        cold = sweep_pass(ctx, groups, store_dir, cold_clock)
        check_sessions(run, ctx, jobs, cold)
        cold_out = outcomes(jobs, cold)
        if not seen:
            report_energy(run, summarize_energy(_by_key(jobs, cold),
                                                ctx.device.name))
        repeated = [k for k in cold_out if k in seen]
        run.checks.count(
            len(repeated), sum(cold_out[k] != seen[k] for k in repeated),
            "a session differs from its earlier cold run",
        )
        seen.update(cold_out)
        for _ in range(scale.fig9_warm_passes):
            warm_out = outcomes(
                jobs, sweep_pass(ctx, groups, store_dir, warm_clock)
            )
            run.checks.count(
                len(jobs), sum(warm_out[k] != v for k, v in cold_out.items()),
                "warm pass differs from the cold pass",
            )
        shutil.rmtree(store_dir)
        return len(jobs)

    def pass_s(clock: RefClock) -> float:
        return clock.mean_s() * videos

    if tracer is None:
        cold_clock, warm_clock = RefClock(), RefClock()
        reps, started = 0, time.perf_counter()
        while run.keep_going(reps, started):
            sessions = rep(reps, cold_clock, warm_clock)
            reps += 1
        cold_s, warm_s = pass_s(cold_clock), pass_s(warm_clock)
        run.metrics["throughput_per_s"] = (sessions / cold_s, "1/s")
        run.metrics["latency_ms"] = (1e3 * warm_s, "ms")
        run.detail.update(reps=reps, cold=cold_clock.totals(),
                          warm=warm_clock.totals())
        log(f"fig9: {sessions} sessions x {reps} reps; cold "
            f"{sessions / cold_s:.1f} sessions/s, warm re-run "
            f"{1e3 * warm_s:.1f} ms (reference)")
        return

    def rep_s(clocks: tuple[RefClock, RefClock]) -> float:
        return pass_s(clocks[0]) + scale.fig9_warm_passes * pass_s(clocks[1])

    plain = (RefClock(), RefClock())
    rep(0, *plain)
    with traced(tracer):
        traced_clocks = (RefClock(), RefClock())
        rep(0, *traced_clocks)
    traced_layer_metrics(run, tracer, {
        "experiments.artifacts.hit_ratio": store_hit_ratio(stores),
        "trace.overhead_ratio": rep_s(traced_clocks) / rep_s(plain),
    })
    # Every pass digests the same context once per video group, so the
    # warm passes carry warm_passes / (1 + warm_passes) of its self time.
    digest = run.detail["trace"]["layers"][
        "experiments.artifacts.sweep_context_digest"]["self_s"]
    passes = 1 + scale.fig9_warm_passes
    share = (digest * scale.fig9_warm_passes / passes
             / traced_clocks[1].wall_total)
    run.detail["warm_pass_digest_share"] = share
    log(f"fig9: sweep_context_digest is {share:.0%} of the warm passes")


def seeded_jobs(jobs: list, seed: int, rep: int, count: int) -> list:
    """The jobs of ``count`` test users per video, drawn from
    ``(seed, rep)``: each repetition sweeps a fresh draw, so a run
    averages over several instead of depending on one."""
    rng = np.random.default_rng([seed, rep])
    users: dict[int, set] = defaultdict(set)
    for job in jobs:
        users[job.video_id].add(job.user_index)
    picks = {
        video_id: set(rng.choice(sorted(pool), size=count, replace=False)
                      .tolist())
        for video_id, pool in sorted(users.items())
    }
    return [job for job in jobs if job.user_index in picks[job.video_id]]


def _by_key(jobs, results) -> dict:
    grouped: dict = {}
    for job, result in zip(jobs, results):
        grouped.setdefault(job.key, []).append(result)
    return grouped


def check_sessions(run: Run, ctx, jobs, results) -> None:
    """Eq. 1 energy components finite and >= 0; one record per segment."""
    bad = 0
    for job, result in zip(jobs, results):
        expected = ctx.manifests[job.video_id].num_segments
        if ctx.config.max_segments is not None:
            expected = min(expected, ctx.config.max_segments)
        energy = result.energy
        parts = (energy.transmission_j, energy.decoding_j, energy.rendering_j)
        ok = (
            all(math.isfinite(p) and p >= 0 for p in parts)
            and [r.index for r in result.records] == list(range(expected))
        )
        bad += not ok
    run.checks.count(len(results), bad, "session energy/record invariant")


def report_energy(run: Run, comparison) -> None:
    normalized = comparison.normalized()
    run.detail["normalized_energy"] = normalized
    log("fig9: energy normalized by Ctile: " + ", ".join(
        f"{scheme} {normalized[scheme]:.3f} (paper {paper:.3f})"
        for scheme, paper in PAPER_NORMALIZED.items()
    ))


# ----------------------------------------------------------------------
# population-*: run_population on video 8
# ----------------------------------------------------------------------


def population(run: Run, tracer, scheme_name: str) -> None:
    from repro.experiments import artifacts
    from repro.experiments import population as exp_population
    from repro.experiments import setup as exp_setup
    from repro.traces.arrivals import DiurnalPoissonArrivals

    scale = run.scale
    sessions = (
        scale.ours_sessions if scheme_name == "ours" else scale.ctile_sessions
    )
    stores: list = []

    def build(workdir: Path):
        store = artifacts.ArtifactStore(workdir / "artifacts")
        stores.append(store)
        setup = exp_setup.make_setup(
            max_duration_s=scale.population_duration_s, seed=DATASET_SEED,
            video_ids=(POPULATION_VIDEO,), artifacts=store,
        )
        setup.manifest(POPULATION_VIDEO)
        if scheme_name != "ctile":
            setup.ptiles(POPULATION_VIDEO)
        return setup

    if tracer is None:
        setup = measure_setups(run, build)
    else:
        with traced(tracer):
            setup = build(run.tempdir())

    window_s = sessions * ARRIVAL_GAP_S
    blob = pickle.dumps(setup)

    def rep(index: int, clock: RefClock) -> None:
        # Each repetition draws its own arrivals and user assignment from
        # (seed, rep), so a run averages over several draws.
        arrivals = DiurnalPoissonArrivals(
            rate_per_s=1.0 / ARRIVAL_GAP_S, amplitude=0.3,
            period_s=window_s,
            seed=int(np.random.SeedSequence([run.args.seed, index])
                     .generate_state(1)[0]),
        )
        fresh = pickle.loads(blob)  # fresh objects: every memo starts cold
        clock.pause()
        summary = clock.measure(lambda: exp_population.run_population(
            fresh, video_id=POPULATION_VIDEO, scheme_name=scheme_name,
            arrivals=arrivals, window_s=window_s, sessions=sessions,
        ))
        result = summary.result
        ok = np.ones(result.num_sessions, dtype=bool)
        for part in (result.transmission_j, result.decoding_j,
                     result.rendering_j):
            ok &= np.isfinite(part) & (part >= 0)
        run.checks.count(result.num_sessions, int((~ok).sum()),
                         "population energy not finite/non-negative")
        run.detail.setdefault("mean_concurrency", summary.mean_concurrency)

    if tracer is None:
        clock = RefClock()
        reps, started = 0, time.perf_counter()
        while run.keep_going(reps, started):
            rep(reps, clock)
            reps += 1
        rep_s = clock.mean_s()
        run.metrics["throughput_per_s"] = (sessions / rep_s, "1/s")
        run.metrics["latency_ms"] = (1e3 * rep_s, "ms")
        run.detail.update(reps=reps, clock=clock.totals())
        log(f"population-{scheme_name}: {sessions} sessions x {reps} reps;"
            f" {sessions / rep_s:.1f} sessions/s (reference)")
    else:
        plain = RefClock()
        rep(0, plain)
        with traced(tracer):
            traced_clock = RefClock()
            rep(0, traced_clock)
        traced_layer_metrics(run, tracer, {
            "experiments.artifacts.hit_ratio": store_hit_ratio(stores),
            "trace.overhead_ratio": traced_clock.mean_s() / plain.mean_s(),
        })
        choose = run.detail["trace"]["layers"]["core.EnergyQoEMpc.choose"]
        share = choose["self_s"] / traced_clock.wall_total
        run.detail["run_choose_share"] = share
        log(f"population-{scheme_name}: EnergyQoEMpc.choose is {share:.0%}"
            " of the population run")
    spot_check_population(run, setup, scheme_name)


def spot_check_population(run: Run, setup, scheme_name: str) -> None:
    """Eight sessions at start 0: the engine must match run_session."""
    from repro.experiments.setup import make_schemes
    from repro.power.models import PIXEL_3
    from repro.streaming import PopulationEngine, run_session

    scheme = make_schemes(PIXEL_3)[scheme_name]
    manifest = setup.manifest(POPULATION_VIDEO)
    traces = setup.dataset.test_traces(POPULATION_VIDEO)[:8]
    ptiles = setup.ptiles(POPULATION_VIDEO) if scheme_name != "ctile" else None
    network = setup.trace2.scaled(0.5, name="trace2/2")
    config = setup.session_config
    engine = PopulationEngine(
        scheme, manifest, traces, network, PIXEL_3, ptiles=ptiles,
        config=config,
    )
    batch = engine.run(list(range(len(traces))))
    bad = 0
    for j, trace in enumerate(traces):
        scalar = run_session(scheme, manifest, trace, network, PIXEL_3,
                             ptiles=ptiles, config=config)
        pairs = (
            (batch.transmission_j[j], scalar.energy.transmission_j),
            (batch.decoding_j[j], scalar.energy.decoding_j),
            (batch.rendering_j[j], scalar.energy.rendering_j),
            (batch.mean_qoe[j], scalar.session_qoe.mean_q),
            (batch.total_stall_s[j], scalar.total_stall_s),
            (batch.mean_quality_level[j], scalar.mean_quality_level),
            (batch.mean_frame_rate[j], scalar.mean_frame_rate),
        )
        ok = all(
            math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
            for got, want in pairs
        ) and int(batch.rebuffer_count[j]) == scalar.rebuffer_count
        bad += not ok
    run.checks.count(len(traces), bad, "population engine != run_session")


# ----------------------------------------------------------------------
# serve: the TCP decision service
# ----------------------------------------------------------------------

READY_RE = re.compile(rb"on 127\.0\.0\.1:(\d+)")
SERVED_RE = re.compile(
    rb"served (\d+) request\(s\) in (\d+) batch\(es\), mean batch ([\d.]+),"
    rb" p50 ([\d.]+)ms, p99 ([\d.]+)ms, (\d+) error"
)


class Server:
    """One ``repro-360 serve`` process on an ephemeral port."""

    def __init__(self, run: Run, trace_out: Path | None = None,
                 cpus: set | None = None):
        args = [
            "serve", "--port", "0",
            "--videos", ",".join(map(str, SERVE_VIDEOS)),
            "--duration", str(run.scale.serve_duration_s),
            "--seed", str(DATASET_SEED), "--no-artifact-cache",
        ]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   "--out", str(trace_out), "--", *args]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log_path = run.tempdir() / "server.err"
        self._log = open(self.log_path, "wb")
        self._live = run.servers
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
            preexec_fn=None if cpus is None
            else lambda: os.sched_setaffinity(0, cpus),
        )
        self._live.append(self)
        self.port = None
        while self.port is None:
            line = self.proc.stdout.readline()
            if not line:
                self.stop()
                raise RuntimeError(
                    "server exited before listening:\n"
                    + self.log_path.read_text(errors="replace")[-2000:]
                )
            match = READY_RE.search(line)
            if match:
                self.port = int(match.group(1))
        self.ready_s = time.perf_counter() - start

    def stop(self) -> dict:
        """SIGTERM, wait, and parse the service's final stats line."""
        stats: dict = {}
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=10)
        except BaseException:  # no clean shutdown (or the run's time limit)
            self.proc.kill()
            self.proc.communicate()
            raise
        finally:
            if self in self._live:
                self._live.remove(self)
            self._log.close()
        match = SERVED_RE.search(out or b"")
        if match:
            stats = {
                "requests": int(match.group(1)),
                "batches": int(match.group(2)),
                "mean_batch": float(match.group(3)),
                "p50_ms": float(match.group(4)),
                "p99_ms": float(match.group(5)),
                "errors": int(match.group(6)),
            }
        return stats


def serve_bodies(run: Run):
    """The seeded request bodies and in-process planners to check them.

    Viewports cycle through a sample of (video, segment, test user)
    triples; buffer, bandwidth and speed are drawn afresh for every
    request, as they vary continuously for real clients — a repeated
    speed would hit the planner's per-speed memo, which real traffic
    rarely does.  The JSON body is what the service parses, so checks
    rebuild their request from it too.
    """
    from repro.experiments.setup import make_setup
    from repro.serving import build_planners

    setup = make_setup(max_duration_s=run.scale.serve_duration_s,
                       seed=DATASET_SEED, video_ids=SERVE_VIDEOS)
    planners = build_planners(setup, SERVE_VIDEOS)
    rng = np.random.default_rng([run.args.seed, 360])
    seg_s = setup.session_config.segment_seconds
    fov = setup.session_config.fov_deg
    places = []
    for _ in range(VIEWPORT_POOL):
        video_id = SERVE_VIDEOS[int(rng.integers(len(SERVE_VIDEOS)))]
        traces = setup.dataset.test_traces(video_id)
        trace = traces[int(rng.integers(len(traces)))]
        num_segments = planners[video_id].num_segments
        k = int(rng.integers(num_segments))
        viewport = trace.viewport_at((k + 0.5) * seg_s, fov)
        places.append({
            "video_id": video_id, "segment_index": k,
            "yaw": float(viewport.yaw), "pitch": float(viewport.pitch),
            "fov_h": float(viewport.fov_h), "fov_v": float(viewport.fov_v),
            "window": min(5, num_segments - k),
        })
    count = run.scale.serve_requests
    buffers = rng.uniform(0.0, 3.0, count).tolist()
    bandwidths = rng.uniform(4.0, 40.0, count).tolist()
    speeds = rng.uniform(0.0, 30.0, count).tolist()
    bodies = [
        json.dumps(dict(places[i % VIEWPORT_POOL], buffer_s=buffers[i],
                        bandwidth_mbps=bandwidths[i],
                        speed_deg_s=speeds[i])).encode()
        for i in range(count)
    ]
    return bodies, planners


class WireLoad:
    """Load generator on one TCP connection, in this process's one thread.

    Request ``i`` carries id ``i`` and body ``i mod len(bodies)``.
    Open-loop latency is measured from each request's *scheduled* send
    time, so a stall also charges the requests queued behind it.
    """

    def __init__(self, reader, writer, bodies: list[bytes]):
        self.reader, self.writer, self.bodies = reader, writer, bodies
        self.due: list[float] = []
        self.late: list[float] = []
        self.reply: list[float] = []
        self.kept: dict[int, bytes] = {}
        self.errors = 0
        self.outstanding = 0
        self.closed_left = 0
        self.eof = False

    def body(self, rid: int) -> bytes:
        return self.bodies[rid % len(self.bodies)]

    def _send(self, due: float) -> None:
        rid = len(self.due)
        self.due.append(due)
        self.reply.append(math.nan)
        self.writer.write(b'{"id": %d, "request": %s}\n' % (rid, self.body(rid)))
        self.late.append(time.perf_counter() - due)
        self.outstanding += 1

    async def read_replies(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    return
                now = time.perf_counter()
                payload = json.loads(line)
                rid = payload["id"]
                self.reply[rid] = now
                if "error" in payload:
                    self.errors += 1
                elif rid % CHECK_EVERY == 0:
                    self.kept[rid] = line
                self.outstanding -= 1
                if self.closed_left > 0:
                    self.closed_left -= 1
                    self._send(now)
        finally:
            self.eof = True

    async def _quiesce(self) -> None:
        deadline = time.perf_counter() + 60.0
        while self.outstanding:
            if self.eof or time.perf_counter() > deadline:
                raise RuntimeError("server stopped answering")
            await asyncio.sleep(0.001)

    async def open_loop(self, rate: float, duration_s: float) -> dict:
        """Send on a fixed schedule; latency percentiles of the phase."""
        count = max(1, int(rate * duration_s))
        first = len(self.due)
        start = time.perf_counter() + 0.002
        for i in range(count):
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await self.writer.drain()
                await asyncio.sleep(delay)
            self._send(due)
        await self.writer.drain()
        await self._quiesce()
        ids = range(first, first + count)
        latencies = sorted(self.reply[i] - self.due[i] for i in ids)
        late = sorted(self.late[i] for i in ids)
        return {
            "samples": count,
            "p50_ms": 1e3 * percentile(latencies, 0.50),
            "p99_ms": 1e3 * percentile(latencies, 0.99),
            "gen_late_ms": 1e3 * percentile(late, 0.99),
        }

    async def closed_loop(self, total: int, inflight: int) -> dict:
        """Keep ``inflight`` requests outstanding until ``total`` answered."""
        first = len(self.due)
        start = time.perf_counter()
        initial = min(total, inflight)
        self.closed_left = total - initial
        for _ in range(initial):
            self._send(start)
        await self.writer.drain()
        await self._quiesce()
        return {"requests": total,
                "elapsed_s": max(self.reply[first:]) - start}


async def drive(port: int, bodies: list[bytes], plan: list[tuple],
                scale: Scale):
    """Run ``plan`` over one connection.

    ``plan`` holds ``("open", label, rate, seconds)`` phases and
    ``("closed", label, seconds, min_reps)`` loops, repeated until
    ``seconds`` are spent and at least ``min_reps`` times.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    load = WireLoad(reader, writer, bodies)
    replies = asyncio.get_running_loop().create_task(load.read_replies())
    phases: dict[str, list] = defaultdict(list)
    try:
        for kind, label, *params in plan:
            if kind == "open":
                phases[label].append(await load.open_loop(*params))
                continue
            budget_s, min_reps = params
            started, reps = time.perf_counter(), 0
            while reps < min_reps or (
                time.perf_counter() - started < budget_s
            ):
                phases[label].append(await load.closed_loop(
                    scale.serve_closed_requests, scale.serve_inflight
                ))
                reps += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        try:
            await asyncio.wait_for(replies, 10)
        except asyncio.TimeoutError:
            replies.cancel()
    return load, dict(phases)


def verify_replies(run: Run, load: WireLoad, planners) -> None:
    from repro.serving import PlanRequest
    from repro.serving.protocol import decode_response_line

    missing = sum(1 for t in load.reply if math.isnan(t))
    run.checks.count(len(load.due), load.errors + missing,
                     "error or missing wire replies")
    mismatched = 0
    for rid, line in load.kept.items():
        _, plan = decode_response_line(line)
        request = PlanRequest(**json.loads(load.body(rid)))
        mismatched += plan != planners[request.video_id].plan_one(request)
    run.checks.count(len(load.kept), mismatched,
                     "wire reply != VideoPlanner.plan_one")


def check_generator(phases: dict) -> float:
    """Worst p99 send lateness (ms); past the limit the run is invalid."""
    worst = max(
        p["gen_late_ms"] for ps in phases.values() for p in ps
        if "gen_late_ms" in p
    )
    if worst > GEN_LATE_LIMIT_MS:
        raise RuntimeError(
            f"load generator ran {worst:.1f} ms late (limit "
            f"{GEN_LATE_LIMIT_MS} ms): open-loop phases are invalid"
        )
    return worst


def closed_rate(entries: list[dict]) -> float:
    """Upper quartile of the per-repetition decisions/s.

    Slowdowns of the host only ever drag a repetition down; the upper
    quartile is the rate the service sustains while the host runs at
    speed, and it moved least between runs."""
    rates = sorted(e["requests"] / e["elapsed_s"] for e in entries)
    if len(rates) < 2:
        return rates[0]
    return statistics.quantiles(rates, n=4)[2]


def split_cpus() -> tuple[set, set] | None:
    """One CPU for the load generator and another for the server, so
    the scheduler never puts both on one core; None on a 1-CPU host."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return ({cpus[0]}, {cpus[1]}) if len(cpus) >= 2 else None


def serve(run: Run, traced_run: bool) -> None:
    cpus = split_cpus()
    if cpus is not None:
        os.sched_setaffinity(0, cpus[0])
    server_cpus = cpus[1] if cpus is not None else None
    bodies, planners = serve_bodies(run)
    seconds, scale = run.args.seconds, run.scale

    def session(server: Server, plan: list[tuple]):
        try:
            load, phases = asyncio.run(drive(server.port, bodies, plan, scale))
            rss = vm_hwm_mb(server.proc.pid)
        finally:
            stats = server.stop()
        verify_replies(run, load, planners)
        return phases, stats, rss

    # The first closed-loop repetition after open-loop traffic is slow
    # (larger batches, first-time array sizes); it only warms up.
    warmup = [("open", "warmup", 1000, max(0.5, 0.1 * seconds)),
              ("closed", "warmup-closed", 0.0, 1)]
    if not traced_run:
        ready = []
        for i in range(scale.setups):
            server = Server(run, cpus=server_cpus)
            ready.append(server.ready_s)
            if i < scale.setups - 1:
                server.stop()
        record_setups(run, ready)
        # Latency is gated at 250/s, where requests rarely overlap and
        # p50 is the decision latency of a lone request.  From about
        # 1000/s requests queue behind each other's batches, and p50
        # swings with how batches happen to form.
        windows = max(2, round(0.4 * seconds))
        plan = (
            warmup
            + [("open", "r250", 250, 0.4 * seconds / windows)] * windows
            + [("closed", "closed", 0.5 * seconds, scale.min_reps)]
        )
        phases, stats, rss = session(server, plan)
        gen_late = check_generator(phases)
        latency = statistics.mean(w["p50_ms"] for w in phases["r250"])
        rate = closed_rate(phases["closed"])
        run.metrics["throughput_per_s"] = (rate, "1/s")
        run.metrics["latency_ms"] = (latency, "ms")
        run.metrics["peak_rss_mb"] = (rss, "MB")
        run.detail.update(phases=phases, service=stats)
        log(f"serve: closed loop {rate:.0f} decisions/s; p50 at 250/s "
            f"{latency:.2f} ms; generator p99 lateness {gen_late:.2f} ms")
        return

    # Traced: an untraced server gives the latency-versus-load curve and
    # the untraced closed-loop rate; a traced one gives the layer totals.
    # The 1000/s phase runs last and fills the service's latency
    # reservoir, so its server-side percentiles cover the same requests
    # as the client's.
    reservoir = 8192
    untraced_plan = warmup + [
        ("open", "r250", 250, max(1.0, 0.1 * seconds)),
        ("open", "r2000", 2000, 0.1 * seconds),
        ("open", "r3000", 3000, 0.1 * seconds),
        ("open", "r4000", 4000, 0.1 * seconds),
        ("closed", "closed", 0.0, 1),
        ("open", "r1000", 1000, min(reservoir / 1000 + 0.2,
                                    max(1.0, seconds))),
    ]
    phases, stats, _ = session(Server(run, cpus=server_cpus), untraced_plan)
    gen_late = check_generator(phases)
    trace_out = run.tempdir() / "trace.json"
    traced_plan = warmup + [("open", "r250", 250, 1.0),
                            ("open", "r1000", 1000, 1.0),
                            ("closed", "closed", 0.0, 1)]
    traced_phases, _, _ = session(
        Server(run, trace_out, cpus=server_cpus), traced_plan
    )
    dump = json.loads(trace_out.read_text())
    run.detail.update(trace=dump, phases=phases, traced_phases=traced_phases,
                      service=stats)
    base, r1000 = phases["r250"][0], phases["r1000"][0]
    extra = {
        "serving.service.batches": stats["batches"],
        "serving.service.mean_batch": stats["mean_batch"],
        "serving.service.p50_x": stats["p50_ms"] / r1000["p50_ms"],
        "serving.service.p99_x": stats["p99_ms"] / r1000["p99_ms"],
        "serving.client.p99_x": base["p99_ms"] / base["p50_ms"],
        "serving.client.gen_late_pct": 100.0 * gen_late / GEN_LATE_LIMIT_MS,
        "serving.client.samples": base["samples"],
        "trace.overhead_ratio": (
            closed_rate(phases["closed"])
            / closed_rate(traced_phases["closed"])
        ),
    }
    for rate in ("r1000", "r2000", "r3000", "r4000"):
        for stat in ("p50", "p99"):
            extra[f"serving.client.{stat}_x.{rate}"] = (
                phases[rate][0][f"{stat}_ms"] / base["p50_ms"]
            )
    run.metrics.update(layer_metrics(dump["layers"], dump["wall_s"], extra))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def run_workload(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    def on_alarm(signum, frame):
        raise TimeoutError(f"workload run exceeded {RUN_LIMIT_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_LIMIT_S)
    scale = SCALES[args.scale]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-"))
    run = Run(args, scale, workdir)
    tracer = None
    if args.trace and args.workload != "serve":
        from tracer import Tracer

        tracer = Tracer()
    try:
        if args.workload == "fig9":
            fig9(run, tracer)
        elif args.workload == "serve":
            serve(run, bool(args.trace))
        else:
            population(run, tracer, args.workload.split("-", 1)[1])
    finally:
        signal.alarm(0)
        for server in list(run.servers):
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    if not args.trace and "peak_rss_mb" not in run.metrics:
        run.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    checks = run.checks
    for reason in checks.reasons:
        log(f"CHECK FAILED {reason}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(run.metrics.items())
        },
    }
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "scale": args.scale,
            "trace": bool(args.trace), "result": result,
            "detail": run.detail,
        }, default=str))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def summarize(values: list[float]) -> dict:
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3,
            "values": values}


def run_suite(args: argparse.Namespace) -> int:
    """Every workload ``--runs`` times (+1 traced), each in a fresh process."""
    WORK.mkdir(exist_ok=True)
    suite_dir = Path(tempfile.mkdtemp(dir=WORK, prefix="suite-"))
    report = {
        "scale": args.scale, "seed": args.seed, "runs": args.runs,
        "seconds": args.seconds, "k_ref_s": K_REF_S,
        "host": {"cpus": os.cpu_count(), "python": sys.version.split()[0]},
        "workloads": {},
    }
    status = 0
    try:
        for workload in WORKLOADS:
            plans = [(args.seed + i, 0) for i in range(args.runs)]
            if args.trace:
                plans.append((args.seed, 1))
            entry: dict = {"runs": [], "traced": None}
            for seed, trace in plans:
                out = suite_dir / f"{workload}-{seed}-{trace}.json"
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--scale", args.scale, "--out", str(out)]
                start = time.perf_counter()
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True, timeout=600)
                wall = time.perf_counter() - start
                if done.returncode != 0 or not out.exists():
                    status = 1
                    print(f"{workload} seed {seed} trace {trace}: exit "
                          f"{done.returncode}\n{done.stdout[-2000:]}"
                          f"{done.stderr[-4000:]}", file=sys.stderr)
                    continue
                record = json.loads(out.read_text())
                record["process_wall_s"] = wall
                if trace:
                    entry["traced"] = record
                else:
                    entry["runs"].append(record)
                res = record["result"]
                log(f"{workload:17s} seed {seed} trace {trace}: "
                    f"{res['attempted']} checked, {res['failed']} failed, "
                    f"{wall:.1f} s")
            names = sorted({
                name for r in entry["runs"] for name in r["result"]["metrics"]
            })
            entry["summary"] = {
                name: dict(
                    unit=entry["runs"][0]["result"]["metrics"][name]["unit"],
                    **summarize([
                        r["result"]["metrics"][name]["value"]
                        for r in entry["runs"]
                    ]),
                )
                for name in names
            }
            attempted = sum(r["result"]["attempted"] for r in entry["runs"])
            failed = sum(r["result"]["failed"] for r in entry["runs"])
            entry["failed_frac"] = failed / attempted if attempted else 0.0
            report["workloads"][workload] = entry
            for name, s in entry["summary"].items():
                log(f"  {name:18s} {s['median']:12.4f} {s['unit']:5s} "
                    f"[{s['q1']:.4f}, {s['q3']:.4f}]")
            log(f"  failed_frac        {entry['failed_frac']:.6f}")
    finally:
        shutil.rmtree(suite_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload once (default: the suite)")
    parser.add_argument("--seed", type=int, default=2017,
                        help="seed of the sampled inputs: fig9 users, "
                             "arrivals, requests")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per run (default: per scale)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload (suite)")
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    parser.add_argument("--out", help="write the detailed JSON report here")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds is None:
        args.seconds = SCALES[args.scale].seconds
    if args.runs < 1:
        raise SystemExit("--runs must be >= 1")
    if args.workload:
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
