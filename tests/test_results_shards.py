"""Tests for the columnar session-results shards.

Session results have one on-disk layout: one columnar shard per
``(sweep-context digest, video)`` group.  The load-bearing properties:

* **Identity** — shard-served sessions are byte-identical to cache-off,
  cold or warm, at any worker count, and satisfy the per-segment
  invariants of ``tests/session_invariants.py``.
* **Accounting** — every requested row counts exactly once: a cold pass
  records one miss and one write per job, a warm pass one hit per job
  and no miss.
* **One file per group** — a sweep touches exactly one shard file per
  group and writes no per-session ``results/*.pkl``; per-session
  pickles left by older releases are never read.
* **Append-merge** — partial misses run only the missing jobs and fold
  them into the existing shard; concurrent writers with disjoint job
  sets both land in the final shard.
* **Robustness** — corrupt, truncated, or inconsistently indexed shards
  are misses (dropped and rebuilt), never a foreign row, and a
  transient ``MemoryError`` never deletes a shard.
* **Key stability** — golden shard keys and job digests pin the key
  formulas, so shards written by earlier builds of this version keep
  serving warm.
"""

from __future__ import annotations

import io
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.experiments import make_schemes, run_comparison
from repro.experiments.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    RESULTS_SCHEMA_VERSION,
    ArtifactStore,
    ShardedResultsStore,
    content_digest,
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

from .session_invariants import check_invariants


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


def write_shard(path, digests, offsets, ends, payload):
    """Write a shard file from a hand-built index (no validation)."""
    with open(path, "wb") as fh:
        fh.write(b"RSHARD1\n")
        for array in (
            np.array(digests, dtype="S32"),
            np.array(offsets, dtype=np.int64),
            np.array(ends, dtype=np.int64),
        ):
            np.lib.format.write_array(fh, array, allow_pickle=False)
        fh.write(payload)


def read_index(path):
    """``(digests, offsets, ends, payload)`` of a valid shard file."""
    buf = path.read_bytes()
    bio = io.BytesIO(buf)
    bio.seek(len(b"RSHARD1\n"))
    arrays = [
        np.lib.format.read_array(bio, allow_pickle=False) for _ in range(3)
    ]
    return (*arrays, buf[bio.tell():])


class TestShardStoreUnit:
    """Direct batch-interface behavior, no sweep machinery."""

    def shard(self, tmp_path, payloads):
        store = ArtifactStore(tmp_path)
        shard = content_digest("group")
        entries = {
            content_digest("job", i): payload
            for i, payload in enumerate(payloads)
        }
        store.merge_shard(shard, entries)
        return store, shard, entries

    def test_roundtrip_in_request_order(self, tmp_path):
        payloads = [{"row": i, "data": list(range(i))} for i in range(8)]
        store, shard, entries = self.shard(tmp_path, payloads)
        out = store.get_results_batch(shard, list(entries))
        assert out == payloads  # request order, not sorted shard order
        assert store.stats.hits == {"results": len(payloads)}
        assert "results" not in store.stats.misses

    def test_missing_rows_are_none_and_counted(self, tmp_path):
        store, shard, entries = self.shard(tmp_path, ["a", "b"])
        asked = list(entries) + [content_digest("absent")]
        out = store.get_results_batch(shard, asked)
        assert out == ["a", "b", None]
        assert store.stats.hits == {"results": 2}
        assert store.stats.misses == {"results": 1}

    def test_absent_shard_is_all_misses(self, tmp_path):
        store = ArtifactStore(tmp_path)
        out = store.get_results_batch(
            content_digest("nothing"), [content_digest("job")]
        )
        assert out == [None]
        assert store.stats.misses == {"results": 1}
        assert not store.stats.hits

    def test_merge_overlays_new_values(self, tmp_path):
        store, shard, entries = self.shard(tmp_path, ["old-0", "old-1"])
        first = next(iter(entries))
        store.merge_shard(shard, {first: "new-0"})
        out = store.get_results_batch(shard, list(entries))
        assert out == ["new-0", "old-1"]

    def test_sharded_name_is_the_one_store(self):
        assert ShardedResultsStore is ArtifactStore

    def assert_dropped(self, store, shard, asked):
        path = store.shard_path(shard)
        out = store.get_results_batch(shard, asked)
        assert out == [None] * len(asked)
        assert store.stats.misses == {"results": len(asked)}
        assert not store.stats.hits
        assert not path.exists()

    def test_corrupt_shard_is_a_miss_and_removed(self, tmp_path):
        store, shard, entries = self.shard(tmp_path, ["a"])
        store.shard_path(shard).write_bytes(b"RSHARD1\nnot an index")
        self.assert_dropped(store, shard, list(entries))

    def test_truncated_payload_is_a_miss_and_removed(self, tmp_path):
        store, shard, entries = self.shard(tmp_path, [list(range(100))])
        path = store.shard_path(shard)
        path.write_bytes(path.read_bytes()[:-30])
        self.assert_dropped(store, shard, list(entries))

    def test_corrupt_payload_under_valid_index_is_a_miss(self, tmp_path):
        store, shard, entries = self.shard(tmp_path, ["a", "b"])
        path = store.shard_path(shard)
        digests, offsets, ends, payload = read_index(path)
        write_shard(path, digests, offsets, ends, b"\xff" * len(payload))
        self.assert_dropped(store, shard, list(entries))

    def test_swapped_offsets_never_serve_a_foreign_row(self, tmp_path):
        """Swapping two rows' byte ranges in the index keeps every range
        inside the file, yet would serve row b for job a: the shard is
        corrupt, not a source of foreign results."""
        store, shard, entries = self.shard(tmp_path, ["row-a", "row-b"])
        path = store.shard_path(shard)
        digests, offsets, ends, payload = read_index(path)
        write_shard(path, digests, offsets[::-1], ends[::-1], payload)
        self.assert_dropped(store, shard, list(entries))

    def test_unsorted_digests_are_a_miss_and_removed(self, tmp_path):
        """A self-consistent index listed in descending digest order: the
        binary search could miss or mismatch rows, so it is rejected."""
        store, shard, entries = self.shard(tmp_path, ["row-a", "row-b"])
        path = store.shard_path(shard)
        digests, offsets, ends, payload = read_index(path)
        blobs = [payload[int(o):int(e)] for o, e in zip(offsets, ends)]
        lengths = [len(blob) for blob in reversed(blobs)]
        write_shard(
            path, digests[::-1], [0, lengths[0]],
            [lengths[0], lengths[0] + lengths[1]],
            b"".join(reversed(blobs)),
        )
        self.assert_dropped(store, shard, list(entries))

    def test_trailing_bytes_are_a_miss_and_removed(self, tmp_path):
        store, shard, entries = self.shard(tmp_path, ["a", "b"])
        path = store.shard_path(shard)
        path.write_bytes(path.read_bytes() + b"trailing")
        self.assert_dropped(store, shard, list(entries))

    def test_empty_shard_reads_as_all_misses(self, tmp_path):
        store = ArtifactStore(tmp_path)
        shard = content_digest("group")
        store.merge_shard(shard, {})
        out = store.get_results_batch(shard, [content_digest("job")])
        assert out == [None]
        assert store.shard_path(shard).exists()  # valid, merely empty

    def test_memory_error_leaves_shard_intact(self, tmp_path, monkeypatch):
        store, shard, entries = self.shard(tmp_path, ["a"])
        path = store.shard_path(shard)

        def oom(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("builtins.open", oom)
        with pytest.raises(MemoryError):
            open(path)  # the patch is live
        out = store.get_results_batch(shard, list(entries))
        monkeypatch.undo()
        assert out == [None]
        assert path.exists()  # NOT unlinked, unlike a corrupt shard
        out = store.get_results_batch(shard, list(entries))
        assert out == ["a"]

    def test_malformed_shard_digest_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError):
            store.shard_path("../escape")
        with pytest.raises(ValueError):
            store.merge_shard(content_digest("ok"), {"not-a-digest": 1})

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
        store = ArtifactStore(tmp_path)
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
                writer_store = ArtifactStore(tmp_path)
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
        out = store.get_results_batch(shard, list(union))
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
        store = ArtifactStore(tmp_path)
        shard = content_digest("group")

        def as_digests(entries):
            return {content_digest("job", k): v for k, v in entries.items()}

        store.merge_shard(shard, as_digests(first))
        store.merge_shard(shard, as_digests(second))

        expected = as_digests({**first, **second})
        out = store.get_results_batch(shard, list(expected))
        assert out == list(expected.values())


class TestSweepIdentity:
    def test_off_cold_warm_identical_any_worker_count(
        self, sweep_context, tmp_path
    ):
        jobs = make_jobs()
        off = run_session_jobs(sweep_context, jobs, workers=1)

        cold_store = ArtifactStore(tmp_path)
        cold = run_session_jobs(sweep_context, jobs, workers=1,
                                results=cold_store)
        assert cold.cache_hits == 0
        assert cold_store.stats.misses == {"results": len(jobs)}
        assert cold_store.stats.writes == {"results": len(jobs)}

        runs = [off, cold]
        for workers in (1, 2):
            warm_store = ArtifactStore(tmp_path)
            warm = run_session_jobs(sweep_context, jobs, workers=workers,
                                    results=warm_store)
            assert warm.cache_hits == len(jobs)
            assert warm_store.stats.hits == {"results": len(jobs)}
            assert warm_store.stats.misses.get("results") is None
            runs.append(warm)
        for run in runs:
            assert [session_signature(r) for r in run.results] == [
                session_signature(r) for r in off.results
            ]
            for result in run.results:
                check_invariants(result, sweep_context.config)

    def test_one_shard_per_group_and_no_session_pickles(
        self, sweep_context, tmp_path
    ):
        jobs = make_jobs()
        store = ArtifactStore(tmp_path)
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
        """A fully warm run executes no session and never reads a
        per-object pickle (the group's one shard serves everything)."""
        jobs = make_jobs()
        run_session_jobs(sweep_context, jobs, workers=1,
                         results=ArtifactStore(tmp_path))

        def boom(self, job):  # pragma: no cover - must not run
            raise AssertionError("a session ran on a warm shard store")

        def no_pickle_get(self, kind, digest):  # pragma: no cover
            raise AssertionError("per-object pickle read on a warm shard")

        monkeypatch.setattr(SweepContext, "run_job", boom)
        monkeypatch.setattr(ArtifactStore, "get", no_pickle_get)
        warm = run_session_jobs(sweep_context, jobs, workers=1,
                                results=ArtifactStore(tmp_path))
        assert warm.cache_hits == len(jobs)
        assert all(r is not None for r in warm.results)
        assert not warm.failures and not warm.timings

    def test_partial_miss_appends_into_existing_shard(self, sweep_context,
                                                      tmp_path):
        first = make_jobs(schemes=("ctile",))
        run_session_jobs(sweep_context, first, workers=1,
                         results=ArtifactStore(tmp_path))

        both = make_jobs(schemes=("ctile", "ours"))
        store = ArtifactStore(tmp_path)
        mixed = run_session_jobs(sweep_context, both, workers=1,
                                 results=store)
        assert mixed.cache_hits == len(first)
        assert store.stats.hits == {"results": len(first)}
        assert store.stats.misses == {"results": len(both) - len(first)}
        assert len(list((tmp_path / "results-shards").glob("*.shard"))) == 1

        baseline = run_session_jobs(sweep_context, both, workers=1)
        assert [session_signature(r) for r in mixed.results] == [
            session_signature(r) for r in baseline.results
        ]
        # And the merged shard now serves everything.
        warm = run_session_jobs(sweep_context, both, workers=1,
                                results=ArtifactStore(tmp_path))
        assert warm.cache_hits == len(both)

    def test_per_session_pickles_of_older_releases_are_ignored(
        self, sweep_context, tmp_path
    ):
        """Older releases also cached one pickle per session under
        ``results/<key>.pkl``.  Poisoned files at exactly those keys
        must neither be served nor cleared: the sweep equals the
        uncached run."""
        jobs = make_jobs(users=1)
        context_digest = sweep_context_digest(sweep_context.slice({2}))
        legacy_dir = tmp_path / "results"
        legacy_dir.mkdir()
        poisoned = []
        for job in jobs:
            key = content_digest(
                ARTIFACT_SCHEMA_VERSION, __version__, "results",
                RESULTS_SCHEMA_VERSION, context_digest,
                session_job_digest(job),
            )
            path = legacy_dir / f"{key}.pkl"
            path.write_bytes(pickle.dumps("poison"))
            poisoned.append(path)

        off = run_session_jobs(sweep_context, jobs, workers=1)
        store = ArtifactStore(tmp_path)
        cold = run_session_jobs(sweep_context, jobs, workers=1,
                                results=store)
        assert cold.cache_hits == 0
        assert store.stats.misses == {"results": len(jobs)}
        assert [session_signature(r) for r in cold.results] == [
            session_signature(r) for r in off.results
        ]
        store.clear()
        assert all(path.exists() for path in poisoned)


class TestKeyGoldens:
    """Key formulas recorded before the per-session layout was removed.

    A change here strands every shard already on disk (each would
    become a cold miss), so it must come with a schema-version bump.
    The package version is part of every shard key, so a release bump
    re-records the shard-key goldens.
    """

    JOBS = (
        (SessionJob(key=("ctile", 2, 0), scheme="ctile", video_id=2,
                    network="trace2", user_index=0),
         "8af2f8bc1193adea7b954a8a6c3dc00b579ea46e21f9b0ac51f02c049fb73eb0"),
        (SessionJob(key="x", scheme="ours", video_id=8, network="trace1",
                    user_index=3, use_ptiles=False),
         "82d2758cc3cf43b5ad88e3c9b79a66acaa7ee47f0e28c70fd81c6f2cbda1a6c8"),
        (SessionJob(key=None, scheme="ptile", video_id=2, network="trace2",
                    user_index=1, use_ftiles=False,
                    config=SessionConfig(max_segments=3)),
         "10db7e311c4ff88dbc08ded3c8a44adcf01530ae1c3e659df9e71a3506f2a9b1"),
    )

    def test_session_job_digests(self):
        for job, golden in self.JOBS:
            assert session_job_digest(job) == golden, job

    def test_shard_keys(self, sweep_context):
        assert __version__ == "1.0.0"
        assert results_shard_key(content_digest("ctx"), 2) == (
            "e8c07e385609d00a3d9c5954bcecf51e04cc2c47a9e65f612d6a7abb6c7bd3c5"
        )
        assert results_shard_key(sweep_context_digest(sweep_context), 2) == (
            "e319ac75fadc9c9b18048d9301136a9f602d70683c85d6dc4f48b992c40e1a15"
        )


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
                              results_store=ArtifactStore(tmp_path),
                              **kwargs)
        shards = sorted((tmp_path / "results-shards").glob("*.shard"))
        assert len(shards) == 2, [s.name for s in shards]
        assert not list(tmp_path.rglob("results/*.pkl"))

        def boom(self, job):  # pragma: no cover - must not run
            raise AssertionError("a session ran on a warm shard store")

        monkeypatch.setattr(SweepContext, "run_job", boom)
        warm_store = ArtifactStore(tmp_path)
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
