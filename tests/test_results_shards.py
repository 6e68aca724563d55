"""Tests for the columnar session-results shard store.

The load-bearing properties, on top of everything
``tests/test_results_cache.py`` already pins for the flat store:

* **Identity** — shard-served aggregates are byte-identical to
  cache-off and to the legacy per-pickle store, cold or warm, at any
  worker count.
* **One file per group** — a sweep touches exactly one shard file per
  ``(sweep-context digest, video)`` group and writes no per-session
  ``results/*.pkl``.
* **Append-merge** — partial misses run only the missing jobs and fold
  them into the existing shard; concurrent writers with disjoint job
  sets both land in the final shard.
* **Migration** — legacy per-session pickles seed shard misses and are
  folded into the shard, after which the shard alone serves the sweep.
* **Robustness** — corrupt or truncated shards are misses (dropped and
  rebuilt), and a transient ``MemoryError`` never deletes a shard.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import make_schemes, run_comparison
from repro.experiments.artifacts import (
    ArtifactStore,
    ShardedResultsStore,
    content_digest,
    results_key,
    results_key_from_digest,
    results_shard_key,
    session_job_digest,
    sweep_context_digest,
)
from repro.experiments.runner import (
    SessionJob,
    SweepContext,
    run_session_jobs,
)
from repro.experiments.setup import ExperimentSetup
from repro.streaming.session import SessionConfig
from repro.video import EncoderModel


@pytest.fixture(scope="module")
def sweep_context(small_dataset, manifest2, ptiles2, ftiles2,
                  network_traces, device):
    trace1, trace2 = network_traces
    return SweepContext(
        schemes=make_schemes(device),
        device=device,
        networks={"trace1": trace1, "trace2": trace2},
        manifests={2: manifest2},
        head_traces={2: tuple(small_dataset.test_traces(2))},
        ptiles={2: ptiles2},
        ftiles={2: ftiles2},
        config=SessionConfig(),
    )


def make_jobs(schemes=("ctile", "ours"), users=2):
    return [
        SessionJob(key=(name, 2, u), scheme=name, video_id=2,
                   network="trace2", user_index=u)
        for name in schemes
        for u in range(users)
    ]


def session_signature(result):
    return (
        result.scheme_name,
        result.video_id,
        result.user_id,
        result.total_energy_j,
        result.mean_qoe,
        result.total_stall_s,
        result.rebuffer_count,
    )


def entry_for(context_digest, job):
    digest = session_job_digest(job)
    return digest, results_key_from_digest(context_digest, digest)


class TestShardStoreUnit:
    """Direct batch-interface behavior, no sweep machinery."""

    def shard(self, tmp_path, payloads):
        store = ShardedResultsStore(tmp_path)
        shard = content_digest("group")
        entries = {
            content_digest("job", i): payload
            for i, payload in enumerate(payloads)
        }
        store.merge_shard(shard, entries)
        return store, shard, entries

    def batch_entries(self, entries):
        return [
            (digest, results_key_from_digest(content_digest("ctx"), digest))
            for digest in entries
        ]

    def test_roundtrip_in_request_order(self, tmp_path):
        payloads = [{"row": i, "data": list(range(i))} for i in range(8)]
        store, shard, entries = self.shard(tmp_path, payloads)
        asked = self.batch_entries(entries)
        out, migrated = store.get_results_batch(shard, asked)
        assert out == payloads  # request order, not sorted shard order
        assert migrated == {}
        assert store.stats.hits == {"results": len(payloads)}
        assert "results" not in store.stats.misses

    def test_missing_rows_are_none_and_counted(self, tmp_path):
        store, shard, entries = self.shard(tmp_path, ["a", "b"])
        asked = self.batch_entries(entries) + [
            (content_digest("absent"), content_digest("absent-key"))
        ]
        out, migrated = store.get_results_batch(shard, asked)
        assert out == ["a", "b", None]
        assert migrated == {}
        assert store.stats.hits == {"results": 2}
        assert store.stats.misses == {"results": 1}

    def test_absent_shard_is_all_misses(self, tmp_path):
        store = ShardedResultsStore(tmp_path)
        out, migrated = store.get_results_batch(
            content_digest("nothing"),
            [(content_digest("job"), content_digest("key"))],
        )
        assert out == [None] and migrated == {}
        assert store.stats.misses == {"results": 1}

    def test_merge_overlays_new_values(self, tmp_path):
        store, shard, entries = self.shard(tmp_path, ["old-0", "old-1"])
        first = next(iter(entries))
        store.merge_shard(shard, {first: "new-0"})
        out, _ = store.get_results_batch(shard, self.batch_entries(entries))
        assert out == ["new-0", "old-1"]

    def test_corrupt_shard_is_a_miss_and_removed(self, tmp_path):
        store, shard, entries = self.shard(tmp_path, ["a"])
        path = store.shard_path(shard)
        path.write_bytes(b"RSHARD1\nnot an index")
        out, _ = store.get_results_batch(shard, self.batch_entries(entries))
        assert out == [None]
        assert not path.exists()

    def test_truncated_payload_is_a_miss_and_removed(self, tmp_path):
        store, shard, entries = self.shard(tmp_path, [list(range(100))])
        path = store.shard_path(shard)
        path.write_bytes(path.read_bytes()[:-30])
        out, _ = store.get_results_batch(shard, self.batch_entries(entries))
        assert out == [None]
        assert not path.exists()

    def test_memory_error_leaves_shard_intact(self, tmp_path, monkeypatch):
        store, shard, entries = self.shard(tmp_path, ["a"])
        path = store.shard_path(shard)

        def oom(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("builtins.open", oom)
        with pytest.raises(MemoryError):
            open(path)  # the patch is live
        out, _ = store.get_results_batch(shard, self.batch_entries(entries))
        monkeypatch.undo()
        assert out == [None]
        assert path.exists()  # NOT unlinked, unlike a corrupt shard
        out, _ = store.get_results_batch(shard, self.batch_entries(entries))
        assert out == ["a"]

    def test_malformed_shard_digest_rejected(self, tmp_path):
        store = ShardedResultsStore(tmp_path)
        with pytest.raises(ValueError):
            store.shard_path("../escape")
        with pytest.raises(ValueError):
            store.merge_shard(content_digest("ok"), {"not-a-digest": 1})

    def test_legacy_fallback_and_migration(self, tmp_path):
        """Rows absent from the shard are served from legacy per-session
        pickles and handed back for folding into the shard."""
        store = ShardedResultsStore(tmp_path)
        shard = content_digest("group")
        digest = content_digest("job")
        legacy_key = results_key_from_digest(content_digest("ctx"), digest)
        ArtifactStore(tmp_path).put("results", legacy_key, {"legacy": True})

        out, migrated = store.get_results_batch(
            shard, [(digest, legacy_key)]
        )
        assert out == [{"legacy": True}]
        assert migrated == {digest: {"legacy": True}}
        assert store.stats.hits == {"results": 1}  # counted exactly once

        store.merge_shard(shard, migrated)
        store.path_for("results", legacy_key).unlink()
        out, migrated = store.get_results_batch(
            shard, [(digest, legacy_key)]
        )
        assert out == [{"legacy": True}] and migrated == {}

    def test_shard_files_counted_and_cleared(self, tmp_path):
        store, shard, entries = self.shard(tmp_path, ["a", "b"])
        assert store.size_bytes() > 0
        assert store.clear() >= 1
        assert store.size_bytes() == 0
        assert not store.shard_path(shard).exists()

    def test_concurrent_disjoint_merges_lose_nothing(self, tmp_path):
        """Two writers merging disjoint job sets into one shard: the
        final shard must hold the union (the merge lock serializes the
        read-merge-replace cycles)."""
        store = ShardedResultsStore(tmp_path)
        shard = content_digest("group")
        sets = [
            {content_digest("w", w, i): (w, i) for i in range(20)}
            for w in range(2)
        ]
        barrier = threading.Barrier(2)
        errors = []

        def writer(entries):
            try:
                barrier.wait()
                writer_store = ShardedResultsStore(tmp_path)
                writer_store.merge_shard(shard, entries)
            except Exception as exc:  # pragma: no cover - must not happen
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(s,)) for s in sets
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        union = {**sets[0], **sets[1]}
        out, _ = store.get_results_batch(
            shard,
            [(d, content_digest("k", d)) for d in union],
        )
        assert out == list(union.values())


class TestMergeProperties:
    @given(
        first=st.dictionaries(
            st.integers(0, 30), st.integers(), max_size=12
        ),
        second=st.dictionaries(
            st.integers(0, 30), st.integers(), max_size=12
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_sequential_merges_are_dict_union(self, tmp_path_factory,
                                              first, second):
        """merge(A) then merge(B) ≡ {**A, **B}: nothing from A is lost
        on the digests B does not touch, and B wins on overlap."""
        tmp_path = tmp_path_factory.mktemp("shard-prop")
        store = ShardedResultsStore(tmp_path)
        shard = content_digest("group")

        def as_digests(entries):
            return {content_digest("job", k): v for k, v in entries.items()}

        store.merge_shard(shard, as_digests(first))
        store.merge_shard(shard, as_digests(second))

        expected = as_digests({**first, **second})
        out, _ = store.get_results_batch(
            shard,
            [(d, content_digest("k", d)) for d in expected],
        )
        assert out == list(expected.values())


class TestSweepIdentity:
    def test_off_legacy_sharded_identical_any_worker_count(
        self, sweep_context, tmp_path
    ):
        jobs = make_jobs()
        off = run_session_jobs(sweep_context, jobs, workers=1)
        legacy = run_session_jobs(
            sweep_context, jobs, workers=1,
            results=ArtifactStore(tmp_path / "legacy"),
        )

        cold_store = ShardedResultsStore(tmp_path / "shards")
        cold = run_session_jobs(sweep_context, jobs, workers=1,
                                results=cold_store)
        assert cold.cache_hits == 0
        assert cold_store.stats.writes.get("results") == len(jobs)

        for workers in (1, 2):
            warm_store = ShardedResultsStore(tmp_path / "shards")
            warm = run_session_jobs(sweep_context, jobs, workers=workers,
                                    results=warm_store)
            assert warm.cache_hits == len(jobs)
            assert warm_store.stats.misses.get("results") is None
            assert [session_signature(r) for r in warm.results] == [
                session_signature(r) for r in off.results
            ]
        assert (
            [session_signature(r) for r in cold.results]
            == [session_signature(r) for r in legacy.results]
            == [session_signature(r) for r in off.results]
        )

    def test_one_shard_per_group_and_no_session_pickles(
        self, sweep_context, tmp_path
    ):
        jobs = make_jobs()
        store = ShardedResultsStore(tmp_path)
        run_session_jobs(sweep_context, jobs, workers=1, results=store)

        shards = list((tmp_path / "results-shards").glob("*.shard"))
        assert len(shards) == 1  # one (context, video) group in this sweep
        assert not list(tmp_path.rglob("results/*.pkl"))
        context_digest = sweep_context_digest(
            sweep_context.slice({2})
        )
        assert shards[0].stem == results_shard_key(context_digest, 2)

    def test_warm_run_opens_only_the_shard(self, sweep_context, tmp_path,
                                           monkeypatch):
        """A fully warm sharded run executes no session and never reads
        a per-session pickle (the group's one shard serves everything)."""
        jobs = make_jobs()
        run_session_jobs(sweep_context, jobs, workers=1,
                         results=ShardedResultsStore(tmp_path))

        def boom(self, job):  # pragma: no cover - must not run
            raise AssertionError("a session ran on a warm shard store")

        def no_pickle_get(self, kind, digest):  # pragma: no cover
            raise AssertionError("per-session pickle read on a warm shard")

        monkeypatch.setattr(SweepContext, "run_job", boom)
        monkeypatch.setattr(ShardedResultsStore, "get", no_pickle_get)
        warm = run_session_jobs(sweep_context, jobs, workers=1,
                                results=ShardedResultsStore(tmp_path))
        assert warm.cache_hits == len(jobs)
        assert all(r is not None for r in warm.results)
        assert not warm.failures and not warm.timings

    def test_partial_miss_appends_into_existing_shard(self, sweep_context,
                                                      tmp_path):
        first = make_jobs(schemes=("ctile",))
        run_session_jobs(sweep_context, first, workers=1,
                         results=ShardedResultsStore(tmp_path))

        both = make_jobs(schemes=("ctile", "ours"))
        store = ShardedResultsStore(tmp_path)
        mixed = run_session_jobs(sweep_context, both, workers=1,
                                 results=store)
        assert mixed.cache_hits == len(first)
        assert len(list((tmp_path / "results-shards").glob("*.shard"))) == 1

        baseline = run_session_jobs(sweep_context, both, workers=1)
        assert [session_signature(r) for r in mixed.results] == [
            session_signature(r) for r in baseline.results
        ]
        # And the merged shard now serves everything.
        warm = run_session_jobs(sweep_context, both, workers=1,
                                results=ShardedResultsStore(tmp_path))
        assert warm.cache_hits == len(both)

    def test_legacy_pickles_migrate_into_shard(self, sweep_context,
                                               tmp_path):
        """A cache populated by the flat store serves a sharded run with
        all hits, and the run folds the rows into a shard that then
        serves alone (the legacy pickles can be deleted)."""
        jobs = make_jobs()
        legacy = run_session_jobs(sweep_context, jobs, workers=1,
                                  results=ArtifactStore(tmp_path))

        store = ShardedResultsStore(tmp_path)
        migrated = run_session_jobs(sweep_context, jobs, workers=1,
                                    results=store)
        assert migrated.cache_hits == len(jobs)
        assert len(list((tmp_path / "results-shards").glob("*.shard"))) == 1

        for pkl in (tmp_path / "results").glob("*.pkl"):
            pkl.unlink()
        warm = run_session_jobs(sweep_context, jobs, workers=1,
                                results=ShardedResultsStore(tmp_path))
        assert warm.cache_hits == len(jobs)
        assert [session_signature(r) for r in warm.results] == [
            session_signature(r) for r in legacy.results
        ]

    def test_shard_rows_byte_identical_to_legacy_pickles(self, sweep_context,
                                                         tmp_path):
        """The shard column of a job is bit-for-bit the pickle the
        legacy per-session path would have written."""
        jobs = make_jobs(schemes=("ctile",), users=1)
        legacy_store = ArtifactStore(tmp_path / "legacy")
        run_session_jobs(sweep_context, jobs, workers=1,
                         results=legacy_store)
        shard_store = ShardedResultsStore(tmp_path / "shards")
        run_session_jobs(sweep_context, jobs, workers=1,
                         results=shard_store)

        context_digest = sweep_context_digest(sweep_context.slice({2}))
        legacy_blob = legacy_store.path_for(
            "results", results_key(context_digest, jobs[0])
        ).read_bytes()

        raw = shard_store._read_shard_raw(
            results_shard_key(context_digest, 2)
        )
        digests, offsets, ends, buf, base = raw
        want = np.frombuffer(
            bytes.fromhex(session_job_digest(jobs[0])), dtype="S32"
        )
        row = int(np.searchsorted(digests, want)[0])
        shard_blob = buf[base + int(offsets[row]) : base + int(ends[row])]
        assert shard_blob == legacy_blob


class TestRunComparisonShards:
    def test_one_shard_per_video_and_warm_runs_no_session(
        self, small_dataset, network_traces, device, tmp_path, monkeypatch
    ):
        """The full comparison entry point over a two-video catalog:
        one shard per (context, video) group, no per-session pickles,
        and a warm re-run served entirely from the shards."""
        setup = ExperimentSetup(
            dataset=small_dataset,
            encoder=EncoderModel(),
            trace1=network_traces[0],
            trace2=network_traces[1],
        )
        kwargs = dict(users_per_video=1, video_ids=(2, 8),
                      scheme_names=("ctile", "ours"))
        off = run_comparison(setup, device, **kwargs)
        cold = run_comparison(setup, device,
                              results_store=ShardedResultsStore(tmp_path),
                              **kwargs)
        shards = sorted((tmp_path / "results-shards").glob("*.shard"))
        assert len(shards) == 2, [s.name for s in shards]
        assert not list(tmp_path.rglob("results/*.pkl"))

        def boom(self, job):  # pragma: no cover - must not run
            raise AssertionError("a session ran on a warm shard store")

        monkeypatch.setattr(SweepContext, "run_job", boom)
        warm_store = ShardedResultsStore(tmp_path)
        warm = run_comparison(setup, device, results_store=warm_store,
                              **kwargs)
        assert warm_store.stats.misses.get("results") is None

        def signature(results):
            return [
                (key, session_signature(r))
                for key, sessions in sorted(results.items())
                for r in sessions
            ]

        assert signature(off) == signature(cold) == signature(warm)
