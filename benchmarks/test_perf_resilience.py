"""Resilience-layer overhead benchmark.

Gates the guarantee that a benign fault config costs nothing: an idle
:class:`FaultPlan` plus a no-retry, effectively deadline-free
:class:`DownloadPolicy` must reproduce the faults-off session byte for
byte (both fetch every segment through the same bounded walk) while
costing at most ~10% extra wall time.
The median of the paired per-round overhead ratios lands in
``extra_info`` for the CI regression gate (``baseline.json`` holds the
1.10 ceiling).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

from repro.power import PIXEL_3
from repro.resilience import DownloadPolicy, FaultPlan
from repro.streaming import PtileScheme, run_session

from conftest import bench_users, shared_setup


def _session_inputs():
    setup = shared_setup()
    vid = setup.videos[0].meta.video_id
    manifest = setup.manifest(vid)
    ptiles = setup.ptiles(vid)
    heads = setup.dataset.test_traces(vid)[: bench_users()]
    return setup, manifest, ptiles, heads


_ROUNDS = 15


def _run_all(scheme, manifest, ptiles, heads, trace, config):
    return [
        run_session(
            scheme, manifest, head, trace, PIXEL_3,
            config=config, ptiles=ptiles,
        )
        for head in heads
    ]


def test_resilience_layer_overhead(benchmark):
    setup, manifest, ptiles, heads = _session_inputs()
    scheme = PtileScheme()
    faults_off_config = setup.session_config
    # Benign resilient config: every fetch is bounded by the policy's
    # timeout, but an idle plan plus a zero-retry, deadline-free policy
    # makes each download a single clean attempt — results must match
    # exactly.
    benign_config = replace(
        faults_off_config,
        fault_plan=FaultPlan(),
        download_policy=DownloadPolicy(retry_budget=0, timeout_slack_s=1e9),
    )

    # Warm shared memos (plan tables, trace integrals) outside the
    # timed regions so both variants see identical cache state.
    _run_all(scheme, manifest, ptiles, heads, setup.trace2,
             faults_off_config)

    # The rounds alternate (a faults-off round before each benign one)
    # and the gate reads the median of the paired per-round ratios: a
    # slow spell of the host hits both halves of a pair, and the median
    # ignores the odd disturbed pair.  A ratio of the two sides' minima
    # pairs rounds that ran at different times, so it moved by ±0.1
    # between runs of the same code.
    faults_off: list = []
    faults_off_rounds: list[float] = []

    def faults_off_round():
        t0 = time.perf_counter()
        faults_off[:] = _run_all(
            scheme, manifest, ptiles, heads, setup.trace2, faults_off_config
        )
        faults_off_rounds.append(time.perf_counter() - t0)
        return (scheme, manifest, ptiles, heads, setup.trace2,
                benign_config), {}

    benign = benchmark.pedantic(
        _run_all, setup=faults_off_round, rounds=_ROUNDS
    )
    benign_rounds = benchmark.stats.stats.data

    assert benign == faults_off, (
        "benign fault-config sessions diverged from the faults-off sessions"
    )
    ratio = statistics.median(
        r / l for r, l in zip(benign_rounds, faults_off_rounds)
    )
    benchmark.extra_info["faults_off_s"] = statistics.median(faults_off_rounds)
    benchmark.extra_info["benign_s"] = statistics.median(benign_rounds)
    benchmark.extra_info["min_ratio"] = (
        min(benign_rounds) / min(faults_off_rounds)
    )
    benchmark.extra_info["overhead_ratio"] = ratio
