"""Content-preparation artifact-store benchmarks.

Quantifies the PR-level optimization: a warm artifact store turns the
content-preparation phase (manifest construction, Algorithm 1 Ptile
clustering, Ftile partitioning) into pure deserialization.  The
acceptance bar is a >= 3x speedup of the content-prep phase on a warm
cache, with byte-identical downstream results (asserted in
``tests/test_artifacts.py``); the measured cold/warm wall times and the
speedup land in ``extra_info`` for the CI regression gate.

``test_viewport_tiles_vs_reference`` times FoV-tile coverage (the inner
loop of Ptile construction and of every Ctile plan) against the per-tile
reference loop it replaced, in the same process on the same viewports.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.experiments import ArtifactStore, make_setup
from repro.geometry import TileGrid, Viewport

from conftest import bench_duration, run_once

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.content_reference import viewport_tiles_reference  # noqa: E402


def _fresh_setup(store: ArtifactStore | None):
    # A new ExperimentSetup each time: in-memory memos start empty, so
    # only the disk store can carry artifacts between runs.
    return make_setup(max_duration_s=bench_duration(), artifacts=store)


def test_content_prep_cold_vs_warm(benchmark, tmp_path):
    cache_dir = tmp_path / "artifact-cache"

    cold_setup = _fresh_setup(ArtifactStore(cache_dir))
    t0 = time.perf_counter()
    cold_setup.prepare()
    cold_s = time.perf_counter() - t0
    assert cold_setup.artifacts.stats.total_hits == 0

    warm_setup = _fresh_setup(ArtifactStore(cache_dir))
    run_once(benchmark, warm_setup.prepare)
    warm_s = benchmark.stats["mean"]
    assert warm_setup.artifacts.stats.total_misses == 0

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    benchmark.extra_info["cold_s"] = cold_s
    benchmark.extra_info["warm_s"] = warm_s
    benchmark.extra_info["warm_speedup"] = speedup
    benchmark.extra_info["store_bytes"] = warm_setup.artifacts.size_bytes()
    assert speedup >= 3.0, (
        f"warm content prep only {speedup:.1f}x faster than cold"
        f" ({warm_s:.2f}s vs {cold_s:.2f}s)"
    )


def test_content_prep_parallel_cold(benchmark, tmp_path):
    """Cold construction fanned across videos on the process pool."""
    setup = _fresh_setup(ArtifactStore(tmp_path / "parallel-cache"))
    run_once(benchmark, setup.prepare, workers=2)
    assert setup.artifacts.stats.total_hits == 0
    benchmark.extra_info["videos"] = len(setup.videos)


def _min_time(func, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - t0)
    return best


def test_viewport_tiles_vs_reference(benchmark):
    rng = np.random.default_rng(16)
    viewports = [
        Viewport(float(yaw), float(pitch))
        for yaw, pitch in zip(rng.uniform(0.0, 360.0, 2000),
                              rng.uniform(-85.0, 85.0, 2000))
    ]
    grid = TileGrid(4, 8)

    def fast():
        grid._viewport_cache.clear()  # time the geometry, not the memo
        return [grid.viewport_tiles(vp) for vp in viewports]

    def reference():
        return [viewport_tiles_reference(grid, vp) for vp in viewports]

    assert [list(s) for s in fast()] == [list(s) for s in reference()]
    reference_s = _min_time(reference, 3)
    fast_s = _min_time(fast, 5)
    run_once(benchmark, fast)
    speedup = reference_s / fast_s
    benchmark.extra_info["reference_us"] = 1e6 * reference_s / len(viewports)
    benchmark.extra_info["viewport_tiles_us"] = 1e6 * fast_s / len(viewports)
    benchmark.extra_info["viewport_tiles_speedup"] = speedup
    assert speedup >= 4.0, (
        f"viewport_tiles only {speedup:.1f}x faster than the per-tile loop"
    )
