"""Sweep-throughput micro-benchmarks (sessions/second).

Quantifies:

* the MPC solver's batching — ``EnergyQoEMpc.choose`` (one window per
  call, the session loop's path) versus ``choose_batch`` over 64-row
  stacks (the population engine's and decision service's path), on
  identical H=5 windows, the two sides timed in alternating rounds;
* end-to-end session throughput through the sweep runner, serial and
  with a 2-worker pool (on multicore hardware the pool multiplies the
  serial gain; on one core it only adds dispatch overhead);
* shared viewport predictions — a cold Fig. 9 video group where every
  session replays its own copy of the head trace versus the same group
  on the shared traces, whose sessions read the ridge predictions the
  first replay of each trace computed;
* the size table's work — on a cold Fig. 9 video group, encoder-formula
  evaluations against the table's (segment, area, level) cells and
  noise draws against distinct noise keys.  Counts, not times, so the
  gate gives one answer per commit whatever the host load.

Throughput lands in ``extra_info`` (``--benchmark-json`` exposes it), so
before/after comparisons are one jq invocation away.
"""

from __future__ import annotations

import pickle
import time
from collections import Counter
from unittest import mock

import numpy as np

from repro.core.optimizer import EnergyQoEMpc, MpcWindow
from repro.experiments import make_schemes, make_setup
from repro.experiments.runner import SessionJob, run_session_jobs
from repro.experiments.setup import build_sweep
from repro.power import PIXEL_3
from repro.power.energy import EnergyModel
from repro.streaming import NontileScheme, run_session
from repro.video import EncoderModel
from repro.video.framerate import DEFAULT_LADDER

from conftest import bench_users, run_once, shared_setup

_MPC_BATCH = 64
_ROUNDS = 5


def _mpc_windows(n_windows: int = 4 * _MPC_BATCH):
    rng = np.random.default_rng(2022)
    rates = DEFAULT_LADDER.rates()
    windows = []
    for _ in range(n_windows):
        sizes = np.sort(rng.lognormal(1.0, 0.8, size=5))[:, None] * (
            0.7 + 0.3 * np.asarray(rates) / max(rates)
        )
        qoe = np.sort(rng.uniform(1.0, 5.0, size=5))[:, None] * np.sort(
            rng.uniform(0.6, 1.0, size=len(rates))
        )
        window = MpcWindow(
            sizes_mbit=np.repeat(sizes[None], 5, axis=0),
            qoe=np.repeat(qoe[None], 5, axis=0),
            frame_rates=rates,
        )
        windows.append((window, float(10 ** rng.uniform(0.0, 2.0)), 2.0))
    return windows


def test_mpc_choose_batch(benchmark):
    """The same windows solved one per ``choose`` call (B=1) and 64 rows
    per ``choose_batch`` call.  The sides alternate over ``_ROUNDS``
    rounds, so a slow spell of the host hits both, and each keeps its
    fastest round."""
    mpc = EnergyQoEMpc(EnergyModel(PIXEL_3, 1.0))
    windows = _mpc_windows()
    rates = windows[0][0].frame_rates
    blocks = []
    for lo in range(0, len(windows), _MPC_BATCH):
        block = windows[lo:lo + _MPC_BATCH]
        blocks.append((
            np.stack([w.sizes_mbit for w, _, _ in block]),
            np.stack([w.qoe for w, _, _ in block]),
            np.array([bw for _, bw, _ in block]),
            np.array([b for _, _, b in block]),
        ))

    single: list = []
    single_s = float("inf")

    def single_round():
        nonlocal single_s
        t0 = time.perf_counter()
        single[:] = [mpc.choose(w, bw, b) for w, bw, b in windows]
        single_s = min(single_s, time.perf_counter() - t0)
        return (), {}

    def solve():
        return [
            mpc.choose_batch(sizes, qoe, rates, bws, bufs)
            for sizes, qoe, bws, bufs in blocks
        ]

    columns = benchmark.pedantic(solve, setup=single_round, rounds=_ROUNDS)
    batch_s = benchmark.stats["min"]
    quality, rate_idx, energy = (np.concatenate(c) for c in zip(*columns))
    assert list(zip(quality.tolist(), rate_idx.tolist(), energy.tolist())) == [
        (d.quality - 1, d.frame_rate_index - 1, d.planned_energy_j)
        for d in single
    ]
    benchmark.extra_info["rounds"] = _ROUNDS
    benchmark.extra_info["single_s"] = single_s
    benchmark.extra_info["batch_s"] = batch_s
    benchmark.extra_info["mpc_batch_speedup"] = single_s / batch_s


def _sweep_inputs():
    setup = shared_setup()
    vid = setup.videos[0].meta.video_id
    context = setup.sweep_context(
        make_schemes(PIXEL_3), PIXEL_3, {"trace2": setup.trace2}, (vid,),
        bench_users(), ftiles=True,
    )
    jobs = [
        SessionJob(key=(name, vid, u), scheme=name, video_id=vid,
                   network="trace2", user_index=u)
        for name in context.schemes
        for u in range(len(context.head_traces[vid]))
    ]
    return context, jobs


def test_sweep_serial_throughput(benchmark):
    context, jobs = _sweep_inputs()
    run = run_once(
        benchmark, run_session_jobs, context, jobs, workers=1
    )
    assert not run.failures
    benchmark.extra_info["sessions_per_second"] = run.sessions_per_second
    benchmark.extra_info["num_sessions"] = run.num_jobs


def test_sweep_pool_throughput(benchmark):
    context, jobs = _sweep_inputs()
    run = run_once(
        benchmark, run_session_jobs, context, jobs, workers=2
    )
    assert not run.failures
    benchmark.extra_info["sessions_per_second"] = run.sessions_per_second
    benchmark.extra_info["workers"] = run.workers


_SHARED_ROUNDS = 15


def _run_group(context, jobs, heads):
    """``context.run_job`` of each job, on the given head traces."""
    return [
        run_session(
            context.schemes[job.scheme],
            context.manifests[job.video_id],
            head,
            context.networks[job.network],
            context.device,
            ptiles=context.ptiles.get(job.video_id) if job.use_ptiles else None,
            ftiles=context.ftiles.get(job.video_id) if job.use_ftiles else None,
            config=context.config,
        )
        for job, head in zip(jobs, heads)
    ]


def test_shared_prediction_speedup(benchmark):
    """Cold video group: each session on its own trace copy vs shared traces.

    The group is one video of the Fig. 9 sweep: all five schemes on both
    networks for two users of a 20-s video (20 sessions, dataset seed
    2017).  Every round starts from a freshly unpickled context, so all
    memos start cold; the own-trace side also unpickles one trace per
    session (outside the timed region), so each session fits the ridge
    model on every segment, as every session did before predictions
    were shared.  The two sides alternate round by round; min-of-rounds
    on both, identical results asserted.
    """
    setup = make_setup(max_duration_s=20, video_ids=(8,))
    context, jobs = build_sweep(setup, workers=1)
    jobs = [job for job in jobs if job.user_index < 2]
    blob = pickle.dumps(context)

    def heads(ctx):
        return [ctx.head_traces[job.video_id][job.user_index]
                for job in jobs]

    own: list = []
    own_s = float("inf")

    def own_round_then_shared_args():
        # The rounds alternate, so a slow spell of the host hits both.
        nonlocal own_s
        ctx = pickle.loads(blob)
        own_heads = [pickle.loads(pickle.dumps(head)) for head in heads(ctx)]
        t0 = time.perf_counter()
        own[:] = _run_group(ctx, jobs, own_heads)
        own_s = min(own_s, time.perf_counter() - t0)
        ctx = pickle.loads(blob)
        return (ctx, jobs, heads(ctx)), {}

    shared = benchmark.pedantic(_run_group, setup=own_round_then_shared_args,
                                rounds=_SHARED_ROUNDS)
    shared_s = benchmark.stats["min"]
    assert shared == own

    speedup = own_s / shared_s
    benchmark.extra_info["sessions"] = len(jobs)
    benchmark.extra_info["own_traces_ms"] = 1e3 * own_s
    benchmark.extra_info["shared_traces_ms"] = 1e3 * shared_s
    benchmark.extra_info["shared_prediction_speedup"] = speedup


def test_size_table_counts(benchmark):
    """Cold video group: formula evaluations and noise draws, counted.

    The group of ``test_shared_prediction_speedup`` (video 8, all five
    schemes on both networks, two users), on a freshly unpickled
    context.  The size table evaluates the encoder formula once per
    (segment, area, quality) — every level of the ladder for an area,
    every Nontile rung for the whole frame — and never per region or
    frame rate, and draws each region's noise once.  Every formula
    call goes through one per-(area, quality) memo, so the first bound
    holds for any workload, a fault plan's frame sizes included.
    """
    setup = make_setup(max_duration_s=20, video_ids=(8,))
    context, jobs = build_sweep(setup, workers=1)
    jobs = [job for job in jobs if job.user_index < 2]
    ctx = pickle.loads(pickle.dumps(context))
    manifest = ctx.manifests[8]
    segments = {(seg.si, seg.ti) for seg in manifest}
    assert len(segments) == manifest.num_segments  # (si, ti) names a segment

    formula = EncoderModel.region_size_mbit
    noise = EncoderModel.noise_factor
    evaluations: Counter = Counter()
    draws: Counter = Counter()

    def counted_formula(encoder, quality, si, ti, area_fraction, **kwargs):
        assert kwargs.get("frame_rate") is None  # rates scale table rows
        evaluations[(si, ti, area_fraction, quality)] += 1
        return formula(encoder, quality, si, ti, area_fraction, **kwargs)

    def counted_noise(encoder, key):
        draws[key] += 1
        return noise(encoder, key)

    with mock.patch.object(EncoderModel, "region_size_mbit", counted_formula), \
            mock.patch.object(EncoderModel, "noise_factor", counted_noise):
        run_once(benchmark, _run_group, ctx, jobs,
                 [ctx.head_traces[8][job.user_index] for job in jobs])

    levels = manifest.encoder.ladder.levels
    frame = len(set(levels) | set(NontileScheme().qualities(len(levels))))
    cells = {(si, ti, area) for si, ti, area, _ in evaluations}
    bound = sum(frame if area == 1.0 else len(levels) for _, _, area in cells)
    total = sum(evaluations.values())
    assert max(evaluations.values()) == 1  # no (segment, area, level) twice
    assert total <= bound
    assert max(draws.values()) == 1  # no noise key drawn twice

    benchmark.extra_info["formula_evaluations"] = total
    benchmark.extra_info["formula_bound"] = bound
    benchmark.extra_info["formula_evaluation_ratio"] = total / bound
    benchmark.extra_info["noise_draws"] = sum(draws.values())
    benchmark.extra_info["noise_keys"] = len(draws)
    benchmark.extra_info["noise_draw_ratio"] = sum(draws.values()) / len(draws)
