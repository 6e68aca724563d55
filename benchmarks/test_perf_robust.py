"""Robust-planner overhead benchmark.

Gates the PR-level guarantee: with a degenerate error model
(sigma = 0) :class:`~repro.core.robust.RobustScheme` delegates to the
point-prediction ``ours`` path, reproducing its sessions byte for byte
while costing at most ~15% extra wall time (the sigma check per
segment plus subclass dispatch).  The measured overhead ratio lands in
``extra_info`` for the CI regression gate (``baseline.json`` holds the
1.15 ceiling); the active-sigma ratio is recorded alongside for trend
visibility without gating — probabilistic tile selection does real
extra work by design.
"""

from __future__ import annotations

import time

from repro.core import OursScheme, RobustScheme
from repro.power import PIXEL_3
from repro.prediction import AngularErrorModel
from repro.streaming import run_session

from conftest import bench_users, shared_setup


def _session_inputs():
    setup = shared_setup()
    vid = setup.videos[0].meta.video_id
    manifest = setup.manifest(vid)
    ptiles = setup.ptiles(vid)
    heads = setup.dataset.test_traces(vid)[: bench_users()]
    return setup, manifest, ptiles, heads


_ROUNDS = 5


def _run_all(scheme, manifest, ptiles, heads, trace, config):
    return [
        run_session(
            scheme, manifest, head, trace, PIXEL_3,
            config=config, ptiles=ptiles,
        )
        for head in heads
    ]


def test_robust_layer_overhead(benchmark):
    setup, manifest, ptiles, heads = _session_inputs()
    config = setup.session_config
    point = OursScheme(device=PIXEL_3)
    degenerate = RobustScheme(device=PIXEL_3)  # sigma = 0 everywhere
    active = RobustScheme(
        device=PIXEL_3,
        error_model=AngularErrorModel(
            base_sigma_deg=8.0, growth_deg_per_s=6.0
        ),
    )

    # Warm shared memos (plan tables, hypothesis grids, trace
    # integrals) outside the timed regions so every variant sees
    # identical cache state.
    _run_all(point, manifest, ptiles, heads, setup.trace2, config)
    _run_all(degenerate, manifest, ptiles, heads, setup.trace2, config)
    _run_all(active, manifest, ptiles, heads, setup.trace2, config)

    # Min-of-rounds on both sides: the gate compares two sub-100ms
    # regions, so a single noisy round would dominate the ratio.  The
    # rounds alternate (a point-prediction round before each sigma=0
    # robust one), so a slow spell of the host hits both sides.
    baseline: list = []
    baseline_s = float("inf")

    def point_round():
        nonlocal baseline_s
        t0 = time.perf_counter()
        baseline[:] = _run_all(
            point, manifest, ptiles, heads, setup.trace2, config
        )
        baseline_s = min(baseline_s, time.perf_counter() - t0)
        return (degenerate, manifest, ptiles, heads, setup.trace2,
                config), {}

    robust = benchmark.pedantic(_run_all, setup=point_round, rounds=_ROUNDS)
    robust_s = benchmark.stats["min"]

    # Bit-parity: the records must be identical (session objects differ
    # only in the scheme name they carry).
    for got, want in zip(robust, baseline):
        assert got.records == want.records, (
            "sigma=0 robust sessions diverged from the point-prediction "
            "path"
        )

    # The tracked, ungated active-sigma side: its own rounds, after the
    # gated pair, so its heavier work never precedes a gated round.
    active_s = float("inf")
    for _ in range(_ROUNDS):
        t0 = time.perf_counter()
        _run_all(active, manifest, ptiles, heads, setup.trace2, config)
        active_s = min(active_s, time.perf_counter() - t0)

    ratio = robust_s / baseline_s if baseline_s > 0 else float("inf")
    active_ratio = active_s / baseline_s if baseline_s > 0 else float("inf")
    benchmark.extra_info["point_s"] = baseline_s
    benchmark.extra_info["robust_s"] = robust_s
    benchmark.extra_info["active_s"] = active_s
    benchmark.extra_info["overhead_ratio"] = ratio
    benchmark.extra_info["active_overhead_ratio"] = active_ratio
