"""Encoding-ladder search benchmarks.

Quantifies the ladder subsystem's caching contract: the per-video
coordinate search is pure and content-addressed, so a warm ladder store
turns `optimize_catalog` into pure deserialization.  The acceptance bar
is a >= 10x warm-lookup speedup over the cold search, with identical
results either way (asserted here and in
``tests/test_encoding_optimizer.py``).  The sides alternate over
``_ROUNDS`` rounds and each keeps its fastest; the cold-search wall time
lands in ``extra_info`` for the CI regression gate's wall-time ceiling.
"""

from __future__ import annotations

import time

from repro.encoding import optimize_catalog
from repro.experiments import ArtifactStore

from conftest import shared_setup, run_once

_ROUNDS = 5


def _catalog():
    setup = shared_setup()
    videos = [setup.dataset.video(v.meta.video_id) for v in setup.videos]
    return videos, setup.encoder


def test_ladder_search_cold_vs_warm(benchmark, tmp_path):
    videos, encoder = _catalog()
    store = ArtifactStore(tmp_path / "ladder-cache")
    cold = optimize_catalog(videos, encoder, store=store)  # warms the store
    assert store.stats.total_hits == 0

    cold_s = float("inf")
    rounds = iter(range(_ROUNDS))

    def cold_round():
        # The rounds alternate, so a slow spell of the host hits both
        # sides; each side keeps its fastest round.  Every cold round
        # searches into a fresh store.
        nonlocal cold_s
        fresh = ArtifactStore(tmp_path / f"cold-{next(rounds)}")
        t0 = time.perf_counter()
        optimize_catalog(videos, encoder, store=fresh)
        cold_s = min(cold_s, time.perf_counter() - t0)
        assert fresh.stats.total_hits == 0
        return (), {}

    benchmark.pedantic(
        lambda: optimize_catalog(videos, encoder, store=store),
        setup=cold_round, rounds=_ROUNDS,
    )
    warm_s = benchmark.stats["min"]
    warm = optimize_catalog(videos, encoder, store=store)
    assert store.stats.misses.get("ladder") == len(videos)  # cold only

    # cold == warm: the cache changes wall time, never results.
    for vid in cold:
        assert warm[vid].ladder == cold[vid].ladder
        assert warm[vid].qo_opt == cold[vid].qo_opt

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    benchmark.extra_info["rounds"] = _ROUNDS
    benchmark.extra_info["cold_s"] = cold_s
    benchmark.extra_info["warm_s"] = warm_s
    benchmark.extra_info["warm_ladder_speedup"] = speedup
    benchmark.extra_info["ladder_search_s"] = cold_s
    benchmark.extra_info["videos"] = len(videos)
    assert speedup >= 10.0, (
        f"warm ladder lookup only {speedup:.1f}x faster than cold search"
        f" ({warm_s:.3f}s vs {cold_s:.3f}s)"
    )


def test_ladder_search_parallel(benchmark):
    """Cold catalog search fanned across videos on the process pool."""
    videos, encoder = _catalog()
    serial = optimize_catalog(videos, encoder, workers=1)
    pooled = run_once(
        benchmark, optimize_catalog, videos, encoder, workers=2
    )
    benchmark.extra_info["videos"] = len(videos)
    for vid in serial:
        assert pooled[vid].ladder == serial[vid].ladder
