"""Robust-planner overhead benchmark.

Gates the PR-level guarantee: with a degenerate error model
(sigma = 0) :class:`~repro.core.robust.RobustScheme` delegates to the
point-prediction ``ours`` path, reproducing its sessions byte for byte
while costing at most ~15% extra wall time (the sigma check per
segment plus subclass dispatch).  The median of the paired per-round
overhead ratios lands in ``extra_info`` for the CI regression gate
(``baseline.json`` holds the 1.15 ceiling); the active-sigma ratio is
recorded alongside for trend visibility without gating — probabilistic
tile selection does real extra work by design.
"""

from __future__ import annotations

import math
import statistics
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
# Each timed round replays the session list this many times over (set
# from a timed warm pass), so a round lasts at least this long: one pass is
# ~50 ms, short enough that the host's jitter moved the ratio by ±0.2.
_ROUND_S = 0.3


def _run_all(scheme, manifest, ptiles, heads, trace, config, passes=1):
    for _ in range(passes):
        results = [
            run_session(
                scheme, manifest, head, trace, PIXEL_3,
                config=config, ptiles=ptiles,
            )
            for head in heads
        ]
    return results


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
    t0 = time.perf_counter()
    _run_all(point, manifest, ptiles, heads, setup.trace2, config)
    passes = max(1, math.ceil(_ROUND_S / (time.perf_counter() - t0)))
    _run_all(degenerate, manifest, ptiles, heads, setup.trace2, config)
    _run_all(active, manifest, ptiles, heads, setup.trace2, config)

    # Each round is ``passes`` replays of the session list (>= _ROUND_S),
    # so one noisy pass cannot dominate it.  The rounds alternate (a
    # point-prediction round before each sigma=0 robust one) and the
    # gate reads the median of the paired per-round ratios: a slow spell
    # of the host hits both halves of a pair, and the median ignores the
    # odd disturbed pair.  A ratio of the two sides' minima pairs rounds
    # that ran at different times; it read up to 1.28 on identical work.
    baseline: list = []
    point_rounds: list[float] = []

    def point_round():
        t0 = time.perf_counter()
        baseline[:] = _run_all(
            point, manifest, ptiles, heads, setup.trace2, config, passes
        )
        point_rounds.append(time.perf_counter() - t0)
        return (degenerate, manifest, ptiles, heads, setup.trace2,
                config, passes), {}

    robust = benchmark.pedantic(_run_all, setup=point_round, rounds=_ROUNDS)
    robust_rounds = benchmark.stats.stats.data
    baseline_s = min(point_rounds)

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
        _run_all(active, manifest, ptiles, heads, setup.trace2, config,
                 passes)
        active_s = min(active_s, time.perf_counter() - t0)

    ratio = statistics.median(
        r / p for r, p in zip(robust_rounds, point_rounds)
    )
    active_ratio = active_s / baseline_s if baseline_s > 0 else float("inf")
    benchmark.extra_info["point_s"] = statistics.median(point_rounds)
    benchmark.extra_info["robust_s"] = statistics.median(robust_rounds)
    benchmark.extra_info["active_s"] = active_s
    benchmark.extra_info["passes"] = passes
    benchmark.extra_info["min_ratio"] = min(robust_rounds) / baseline_s
    benchmark.extra_info["overhead_ratio"] = ratio
    benchmark.extra_info["active_overhead_ratio"] = active_ratio
