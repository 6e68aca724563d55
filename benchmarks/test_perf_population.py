"""Population-engine throughput benchmark (sessions/second).

Quantifies the structure-of-arrays engine against the per-session
Python loop it batches: both paths simulate the identical session list
(same scheme, traces, network, and config), so the speedup is purely
the vectorization of the session dynamics plus the shared per-trace
plan precomputation.  The two sides alternate over ``_ROUNDS`` rounds
and each keeps its fastest round.

The speedup uses the Ctile scheme, whose planning path never touches
the MPC, so the measured ratio gates the engine's core batching.  A
second benchmark runs the same session list under Ours, where every
segment step solves its MPC rows in one ``choose_batch`` call, and
records the engine's absolute MPC-heavy throughput.  ``extra_info``
carries the speedup and both throughputs for ``check_baseline.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import OursScheme
from repro.power import PIXEL_3
from repro.streaming import (
    CtileScheme,
    PopulationEngine,
    SessionConfig,
    run_session,
)

from conftest import run_once, shared_setup

_VIDEO_ID = 8
_SESSIONS_PER_TRACE = 8
_ROUNDS = 5


def _population_inputs():
    setup = shared_setup()
    manifest = setup.manifest(_VIDEO_ID)
    traces = setup.dataset.test_traces(_VIDEO_ID)
    users = list(range(len(traces))) * _SESSIONS_PER_TRACE
    return setup, manifest, traces, users


def test_population_engine_speedup(benchmark):
    setup, manifest, traces, users = _population_inputs()
    config = setup.session_config
    scheme = CtileScheme()
    network = setup.trace2
    device = PIXEL_3

    scalar: list = []
    scalar_elapsed = float("inf")

    def scalar_round():
        # The rounds alternate, so a slow spell of the host hits both
        # sides; each side keeps its fastest round.
        nonlocal scalar_elapsed
        t0 = time.perf_counter()
        scalar[:] = [
            run_session(scheme, manifest, traces[u], network, device,
                        config=config)
            for u in users
        ]
        scalar_elapsed = min(scalar_elapsed, time.perf_counter() - t0)
        return (), {}

    def solve():
        # Fresh engine per round: include the per-trace precomputation
        # in the measured time, as a cold scalar loop pays it too.
        eng = PopulationEngine(
            scheme, manifest, traces, network, device, config=config
        )
        return eng.run(users)

    result = benchmark.pedantic(solve, setup=scalar_round, rounds=_ROUNDS)
    elapsed = benchmark.stats["min"]

    # Numeric agreement on the benchmarked inputs (spot-check energy).
    want = np.array([r.total_energy_j for r in scalar])
    assert np.allclose(result.total_energy_j, want, rtol=1e-9)

    benchmark.extra_info["num_sessions"] = len(users)
    benchmark.extra_info["rounds"] = _ROUNDS
    benchmark.extra_info["scalar_sessions_per_second"] = (
        len(users) / scalar_elapsed
    )
    benchmark.extra_info["population_sessions_per_second"] = (
        len(users) / elapsed
    )
    benchmark.extra_info["population_speedup"] = scalar_elapsed / elapsed


def test_population_ours_throughput(benchmark):
    setup, manifest, traces, users = _population_inputs()
    config = setup.session_config
    scheme = OursScheme(device=PIXEL_3)
    ptiles = setup.ptiles(_VIDEO_ID)

    def solve():
        # Fresh scheme and engine per round: plan tables, MPC caches and
        # per-trace windows are all rebuilt inside the measured time.
        eng = PopulationEngine(
            OursScheme(device=PIXEL_3), manifest, traces, setup.trace2,
            PIXEL_3, ptiles=ptiles, config=config,
        )
        return eng.run(users)

    result = run_once(benchmark, solve)
    elapsed = benchmark.stats["mean"]

    # Numeric agreement with the per-session loop (spot-check energy).
    want = np.array([
        run_session(scheme, manifest, traces[u], setup.trace2, PIXEL_3,
                    ptiles=ptiles, config=config).total_energy_j
        for u in range(len(traces))
    ])
    assert np.allclose(
        result.total_energy_j[: len(traces)], want, rtol=1e-9
    )

    benchmark.extra_info["num_sessions"] = len(users)
    benchmark.extra_info["population_sessions_per_second"] = (
        len(users) / elapsed
    )
