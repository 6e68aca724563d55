"""Sweep-throughput micro-benchmarks (sessions/second).

Quantifies:

* the MPC solver's batching — ``EnergyQoEMpc.choose`` (one window per
  call, the session loop's path) versus ``choose_batch`` over 64-row
  stacks (the population engine's and decision service's path), on
  identical H=5 windows;
* end-to-end session throughput through the sweep runner, serial and
  with a 2-worker pool (on multicore hardware the pool multiplies the
  serial gain; on one core it only adds dispatch overhead).

Throughput lands in ``extra_info`` (``--benchmark-json`` exposes it), so
before/after comparisons are one jq invocation away.
"""

from __future__ import annotations

import numpy as np

from repro.core.optimizer import EnergyQoEMpc, MpcWindow
from repro.experiments import make_schemes
from repro.experiments.runner import SessionJob, run_session_jobs
from repro.power import PIXEL_3
from repro.power.energy import EnergyModel
from repro.video.framerate import DEFAULT_LADDER

from conftest import bench_users, run_once, shared_setup

_MPC_BATCH = 64


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


def test_mpc_choose_single(benchmark):
    """One window per call (B=1)."""
    mpc = EnergyQoEMpc(EnergyModel(PIXEL_3, 1.0))
    windows = _mpc_windows()

    def solve():
        return [mpc.choose(w, bw, b) for w, bw, b in windows]

    decisions = run_once(benchmark, solve)
    assert len(decisions) == len(windows)


def test_mpc_choose_batch(benchmark):
    """The same windows, 64 rows per ``choose_batch`` call."""
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

    def solve():
        return [
            d
            for sizes, qoe, bws, bufs in blocks
            for d in mpc.choose_batch(sizes, qoe, rates, bws, bufs)
        ]

    decisions = run_once(benchmark, solve)
    assert decisions == [mpc.choose(w, bw, b) for w, bw, b in windows]


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
