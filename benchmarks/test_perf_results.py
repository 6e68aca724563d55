"""Session-results cache benchmarks.

Three gates on the results-store layer:

* ``test_results_cache_cold_vs_warm`` — the PR-level optimization: with
  a (sharded) results store, a warm re-run of an identical sweep
  deserializes every session instead of re-simulating it.  The
  acceptance bar is a >= 5x speedup of the full sweep (content prep +
  sessions) on warm artifact + results stores, with byte-identical
  aggregates (asserted in ``tests/test_results_cache.py`` /
  ``tests/test_results_shards.py``).

* ``test_shard_read_vs_per_pickle`` — the storage-layer optimization
  that unlocks population scale: serving one (context, video) group
  from a single columnar shard read must be >= 10x faster than reading
  the same rows one pickle per row through the per-object
  ``ArtifactStore.get`` path.  Measured on a many-row store of small
  payloads so per-file open/stat overhead — exactly what a
  million-session sweep would multiply — dominates the comparison.

* ``test_context_digest_cost`` — every sweep pass digests its context
  once per video group to key that group's shard, so a warm re-run costs
  little more than its shard reads only while the digest stays cheap.
  The cost is gated as a ratio to ``pickle.dumps`` of the same sliced
  context: both walk the same objects, so the ratio is scale-invariant,
  and a return of per-node hashing or of array repr-printing in the
  fingerprint multiplies it.

The measured speedups land in ``extra_info`` for the CI regression
gate.
"""

from __future__ import annotations

import pickle
import time

from repro.experiments import make_setup, run_comparison
from repro.experiments.artifacts import (
    ArtifactStore,
    content_digest,
    sweep_context_digest,
)
from repro.experiments.setup import build_sweep
from repro.power import PIXEL_3

from conftest import bench_duration, bench_users, run_once


def _fresh_setup(cache_dir):
    # A fresh setup and store each time: in-memory memos start empty, so
    # only the disk stores can carry anything between runs.  Setup
    # construction (synthesizing the dataset) happens outside the timed
    # region — the cache accelerates the sweep, not input generation.
    store = ArtifactStore(cache_dir)
    return make_setup(max_duration_s=bench_duration(), artifacts=store), store


def _sweep(setup, store):
    return run_comparison(
        setup, PIXEL_3, users_per_video=bench_users(), results_store=store
    )


def test_results_cache_cold_vs_warm(benchmark, tmp_path):
    cache_dir = tmp_path / "results-cache"

    cold_setup, cold_store = _fresh_setup(cache_dir)
    t0 = time.perf_counter()
    cold = _sweep(cold_setup, cold_store)
    cold_s = time.perf_counter() - t0

    warm_setup, warm_store = _fresh_setup(cache_dir)
    warm = run_once(benchmark, _sweep, warm_setup, warm_store)
    warm_s = benchmark.stats["mean"]
    assert sorted(warm) == sorted(cold)
    assert warm_store.stats.misses.get("results") is None

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    benchmark.extra_info["cold_s"] = cold_s
    benchmark.extra_info["warm_s"] = warm_s
    benchmark.extra_info["warm_speedup"] = speedup
    assert speedup >= 5.0, (
        f"warm full sweep only {speedup:.1f}x faster than cold"
        f" ({warm_s:.2f}s vs {cold_s:.2f}s)"
    )


_SHARD_ROWS = 20_000
_SHARD_ROUNDS = 5


def test_shard_read_vs_per_pickle(benchmark, tmp_path):
    """Warm many-row read: one shard open vs one open per session.

    Rows are small on purpose: a per-row layout's cost at population
    scale is per-*file* overhead (open/read/close per session), which
    small payloads isolate.  The per-row side stores the same payloads
    under a per-object artifact kind, one pickle file each.  Min-of-rounds on both sides — the first
    pass pays page-cache and allocator warmup that a warm sweep never
    sees again, and the gate is a same-process ratio of sub-second
    regions.
    """
    store = ArtifactStore(tmp_path)
    payloads = {
        content_digest("job", i): float(i) for i in range(_SHARD_ROWS)
    }
    for digest, payload in payloads.items():
        store.put("manifest", digest, payload)
    shard_digest = content_digest("bench-shard-group")
    store.merge_shard(shard_digest, payloads)
    entries = list(payloads)
    expected = list(payloads.values())

    def read_per_pickle():
        reader = ArtifactStore(tmp_path)
        return [reader.get("manifest", digest) for digest in entries]

    def read_shard():
        reader = ArtifactStore(tmp_path)
        return reader.get_results_batch(shard_digest, entries)

    assert read_per_pickle() == expected
    per_pickle_s = float("inf")
    for _ in range(_SHARD_ROUNDS):
        t0 = time.perf_counter()
        out = read_per_pickle()
        per_pickle_s = min(per_pickle_s, time.perf_counter() - t0)
    assert out == expected

    sharded = benchmark.pedantic(read_shard, rounds=_SHARD_ROUNDS,
                                 iterations=1)
    shard_s = benchmark.stats["min"]
    assert sharded == expected  # bit-for-bit the same rows

    speedup = per_pickle_s / shard_s if shard_s > 0 else float("inf")
    benchmark.extra_info["rows"] = _SHARD_ROWS
    benchmark.extra_info["per_pickle_s"] = per_pickle_s
    benchmark.extra_info["shard_s"] = shard_s
    benchmark.extra_info["shard_read_speedup"] = speedup
    assert speedup >= 10.0, (
        f"shard read only {speedup:.1f}x faster than per-pickle"
        f" ({shard_s * 1e6 / _SHARD_ROWS:.2f}us/row vs"
        f" {per_pickle_s * 1e6 / _SHARD_ROWS:.2f}us/row)"
    )


_DIGEST_ROUNDS = 9


def test_context_digest_cost(benchmark):
    """Per-video sliced-context digest vs pickling the same slice.

    The slice is what ``run_session_jobs`` digests for one video group
    of the Fig. 9 sweep: all five schemes, both networks, and one
    video's manifest, Ptiles, Ftiles and test head traces (20-s video,
    dataset seed 2017).  Min-of-rounds on both sides.
    """
    # A one-video catalog: its sweep context is already that slice.
    setup = make_setup(max_duration_s=20, video_ids=(8,))
    context, _ = build_sweep(setup, workers=1)

    pickle_s = float("inf")
    for _ in range(_DIGEST_ROUNDS):
        t0 = time.perf_counter()
        pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        pickle_s = min(pickle_s, time.perf_counter() - t0)

    benchmark.pedantic(sweep_context_digest, args=(context,),
                       rounds=_DIGEST_ROUNDS, iterations=1)
    digest_s = benchmark.stats["min"]

    ratio = digest_s / pickle_s
    benchmark.extra_info["digest_ms"] = 1e3 * digest_s
    benchmark.extra_info["pickle_ms"] = 1e3 * pickle_s
    benchmark.extra_info["digest_pickle_ratio"] = ratio
