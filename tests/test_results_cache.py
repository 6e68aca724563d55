"""Tests for the session-results cache.

The load-bearing properties mirror the content-prep artifact store:

* **Identity** — warm aggregates are byte-identical to cache-off runs,
  at any worker count, and every session satisfies the per-segment
  invariants of ``tests/session_invariants.py``.
* **No recomputation** — a fully warm run never executes a session.
* **Invalidation** — any input that changes a session's outcome
  (device, traces, session config, job parameters) changes the key;
  the display-only job ``key`` label does not.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import make_schemes, run_comparison
from repro.experiments.artifacts import (
    ArtifactStore,
    session_job_digest,
    structural_fingerprint,
    sweep_context_digest,
)
from repro.experiments.runner import (
    SessionJob,
    SweepContext,
    run_session_groups,
    run_session_jobs,
)
from repro.experiments.setup import ExperimentSetup
from repro.power import GALAXY_S20
from repro.streaming import EdgeHitModel
from repro.streaming.session import SessionConfig
from repro.video import EncoderModel

from .session_invariants import check_invariants


@pytest.fixture(scope="module")
def sweep_context(small_dataset, manifest2, ptiles2, ftiles2, ptiles2_key,
                  ftiles2_key, network_traces, device):
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
        ptiles_keys={2: ptiles2_key},
        ftiles_keys={2: ftiles2_key},
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


class TestWarmIdentity:
    def test_off_cold_warm_identical_any_worker_count(self, sweep_context,
                                                      tmp_path):
        jobs = make_jobs()
        off = run_session_jobs(sweep_context, jobs, workers=1)

        store = ArtifactStore(tmp_path)
        cold = run_session_jobs(sweep_context, jobs, workers=1,
                                results=store)
        assert cold.cache_hits == 0
        assert store.stats.misses == {"results": len(jobs)}
        assert store.stats.writes == {"results": len(jobs)}
        assert not store.stats.hits

        runs = [off, cold]
        for workers in (1, 2):
            warm_store = ArtifactStore(tmp_path)
            warm = run_session_jobs(sweep_context, jobs, workers=workers,
                                    results=warm_store)
            assert warm.cache_hits == len(jobs)
            assert warm_store.stats.hits == {"results": len(jobs)}
            assert not warm_store.stats.misses
            assert not warm_store.stats.writes
            runs.append(warm)
        for run in runs:
            assert [session_signature(r) for r in run.results] == [
                session_signature(r) for r in off.results
            ]
            for result in run.results:
                check_invariants(result, sweep_context.config)

    def test_partial_hits_merge_in_job_order(self, sweep_context, tmp_path):
        store = ArtifactStore(tmp_path)
        first = make_jobs(schemes=("ctile",))
        run_session_jobs(sweep_context, first, workers=1, results=store)

        both = make_jobs(schemes=("ctile", "ours"))
        mixed = run_session_jobs(sweep_context, both, workers=1,
                                 results=ArtifactStore(tmp_path))
        assert mixed.cache_hits == len(first)
        baseline = run_session_jobs(sweep_context, both, workers=1)
        assert [session_signature(r) for r in mixed.results] == [
            session_signature(r) for r in baseline.results
        ]

    def test_warm_run_executes_no_session(self, sweep_context, tmp_path,
                                          monkeypatch):
        jobs = make_jobs()
        store = ArtifactStore(tmp_path)
        run_session_jobs(sweep_context, jobs, workers=1, results=store)

        def boom(self, jobs):  # pragma: no cover - must not run
            raise AssertionError("a session ran on a warm results cache")

        monkeypatch.setattr(SweepContext, "run_jobs", boom)
        warm = run_session_jobs(sweep_context, jobs, workers=1,
                                results=ArtifactStore(tmp_path))
        assert warm.cache_hits == len(jobs)
        assert all(r is not None for r in warm.results)
        assert not warm.failures and not warm.timings

    def test_failures_not_cached_and_reindexed(self, sweep_context,
                                               tmp_path):
        jobs = [
            SessionJob(key="ok", scheme="ctile", video_id=2,
                       network="trace2", user_index=0),
            SessionJob(key="bad", scheme="ctile", video_id=2,
                       network="trace2", user_index=999),
        ]
        store = ArtifactStore(tmp_path)
        run = run_session_jobs(sweep_context, jobs, workers=1,
                               strict=False, results=store)
        assert run.results[1] is None
        assert [f.job_index for f in run.failures] == [1]
        assert store.stats.writes.get("results") == 1

        # Re-run: the good job hits, the bad one re-executes and fails
        # again at its original index.
        again = run_session_jobs(sweep_context, jobs, workers=1,
                                 strict=False,
                                 results=ArtifactStore(tmp_path))
        assert again.cache_hits == 1
        assert [f.job_index for f in again.failures] == [1]


class TestGroupedRuns:
    """run_session_groups keys every job by (shard key, job digest)
    across groups: a session shared by groups runs once and every shard
    takes one merge."""

    DISTINCT = 6  # distinct (shard key, job digest) pairs of ``groups``

    @pytest.fixture
    def groups(self, sweep_context):
        # An equal context built apart shares its shard key; another
        # config is another shard.
        twin = dataclasses.replace(sweep_context)
        short = dataclasses.replace(
            sweep_context, config=SessionConfig(max_segments=3)
        )
        return [
            (sweep_context, make_jobs(schemes=("ctile", "ours"))),
            (twin, make_jobs(schemes=("ours", "ctile"), users=1)),
            (short, make_jobs(schemes=("ctile",))),
        ]

    def test_shared_jobs_run_once_and_shards_merge_once(
        self, groups, tmp_path, monkeypatch
    ):
        off = run_session_groups(groups).results
        calls, merges = [], []
        run_jobs, merge_shard = SweepContext.run_jobs, ArtifactStore.merge_shard
        monkeypatch.setattr(
            SweepContext, "run_jobs",
            lambda self, jobs: calls.extend(jobs) or run_jobs(self, jobs),
        )
        monkeypatch.setattr(
            ArtifactStore, "merge_shard",
            lambda self, shard, entries: (
                merges.append(shard) or merge_shard(self, shard, entries)
            ),
        )
        store = ArtifactStore(tmp_path)
        cold = run_session_groups(groups, results=store)
        assert len(calls) == self.DISTINCT
        assert len(merges) == len(set(merges)) == 2
        assert store.stats.misses == {"results": self.DISTINCT}
        assert store.stats.writes == {"results": self.DISTINCT}
        assert cold.cache_hits == 0 and len(cold.timings) == self.DISTINCT
        assert cold.results == off
        # The twin group's slots hold the first group's sessions.
        assert cold.results[4] is cold.results[2]
        assert cold.results[5] is cold.results[0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_off_cold_warm_identical(self, groups, tmp_path, monkeypatch,
                                     workers):
        per_group = [
            r for context, jobs in groups
            for r in run_session_jobs(context, jobs).results
        ]
        off = run_session_groups(groups, workers=workers)
        store = ArtifactStore(tmp_path)
        cold = run_session_groups(groups, workers=workers, results=store)
        assert store.stats.writes == {"results": self.DISTINCT}

        def boom(self, jobs):  # pragma: no cover - must not run
            raise AssertionError("a session ran on a warm results cache")

        monkeypatch.setattr(SweepContext, "run_jobs", boom)
        warm_store = ArtifactStore(tmp_path)
        warm = run_session_groups(groups, workers=workers,
                                  results=warm_store)
        assert warm.cache_hits == len(per_group)
        assert warm_store.stats.hits == {"results": self.DISTINCT}
        assert not warm_store.stats.misses and not warm_store.stats.writes
        assert not warm.timings
        assert off.results == cold.results == warm.results == per_group


class TestInvalidation:
    def test_key_ignores_display_label(self, sweep_context):
        a = SessionJob(key="label-a", scheme="ctile", video_id=2,
                       network="trace2", user_index=0)
        b = dataclasses.replace(a, key=("entirely", "different"))
        assert session_job_digest(a) == session_job_digest(b)

    def test_key_sensitive_to_job_parameters(self):
        base = SessionJob(key="k", scheme="ctile", video_id=2,
                          network="trace2", user_index=0)
        for changed in (
            dataclasses.replace(base, scheme="ours"),
            dataclasses.replace(base, network="trace1"),
            dataclasses.replace(base, user_index=1),
            dataclasses.replace(base, use_ptiles=False),
            dataclasses.replace(base, config=SessionConfig(max_segments=3)),
        ):
            assert session_job_digest(changed) != session_job_digest(base)

    def test_context_digest_sensitive_to_device_and_config(
        self, sweep_context
    ):
        base = sweep_context_digest(sweep_context)
        other_device = dataclasses.replace(sweep_context, device=GALAXY_S20)
        assert sweep_context_digest(other_device) != base
        other_config = dataclasses.replace(
            sweep_context, config=SessionConfig(horizon=3)
        )
        assert sweep_context_digest(other_config) != base

    def test_context_digest_sensitive_to_video_configs(self, sweep_context):
        base = sweep_context_digest(sweep_context)
        model = EdgeHitModel(hit_ratios=(0.5, 0.5))
        with_edge = dataclasses.replace(
            sweep_context,
            video_configs={2: SessionConfig(edge_model=model)},
        )
        assert sweep_context_digest(with_edge) != base
        # The digest must see *into* the per-video edge model, not just
        # its presence: different hit ratios → different key.
        other_model = dataclasses.replace(model, hit_ratios=(0.9, 0.9))
        other_edge = dataclasses.replace(
            sweep_context,
            video_configs={2: SessionConfig(edge_model=other_model)},
        )
        assert sweep_context_digest(other_edge) != sweep_context_digest(
            with_edge
        )

    def test_slice_drops_other_videos_configs(self, sweep_context):
        # A video-8 override must not perturb keys of a video-2 batch.
        wide = dataclasses.replace(
            sweep_context,
            video_configs={
                8: SessionConfig(edge_model=EdgeHitModel(hit_ratios=(1.0,)))
            },
        )
        assert sweep_context_digest(wide.slice({2})) == sweep_context_digest(
            sweep_context
        )

    def test_video_config_overrides_are_cached_separately(
        self, sweep_context, tmp_path
    ):
        jobs = make_jobs(schemes=("ctile",), users=1)
        store = ArtifactStore(tmp_path)
        plain = run_session_jobs(sweep_context, jobs, workers=1,
                                 results=store)

        model = EdgeHitModel(hit_ratios=(0.8,) * 8)
        edged_context = dataclasses.replace(
            sweep_context,
            video_configs={
                2: dataclasses.replace(
                    sweep_context.config, edge_model=model
                )
            },
        )
        edged = run_session_jobs(edged_context, jobs, workers=1,
                                 results=ArtifactStore(tmp_path))
        assert edged.cache_hits == 0  # distinct key, no false hit
        assert session_signature(edged.results[0]) != session_signature(
            plain.results[0]
        )
        warm = run_session_jobs(edged_context, jobs, workers=1,
                                results=ArtifactStore(tmp_path))
        assert warm.cache_hits == len(jobs)
        assert [session_signature(r) for r in warm.results] == [
            session_signature(r) for r in edged.results
        ]

    def test_context_digest_stable_across_slicing(self, sweep_context,
                                                  manifest8, small_dataset):
        # run_session_jobs digests the *sliced* context, so a job batch
        # must map to the same key whether the caller's catalog holds
        # extra videos or not.
        wide = dataclasses.replace(
            sweep_context,
            manifests={**sweep_context.manifests, 8: manifest8},
            head_traces={
                **sweep_context.head_traces,
                8: tuple(small_dataset.test_traces(8)),
            },
        )
        assert sweep_context_digest(wide.slice({2})) == sweep_context_digest(
            sweep_context
        )

    def test_different_context_misses(self, sweep_context, tmp_path):
        jobs = make_jobs(schemes=("ctile",), users=1)
        store = ArtifactStore(tmp_path)
        run_session_jobs(sweep_context, jobs, workers=1, results=store)

        other = dataclasses.replace(sweep_context, device=GALAXY_S20)
        run = run_session_jobs(other, jobs, workers=1,
                               results=ArtifactStore(tmp_path))
        assert run.cache_hits == 0


class TestStructuralFingerprint:
    def test_deterministic(self, sweep_context):
        # Fingerprints embed raw numpy arrays, so compare via digest.
        from repro.experiments.artifacts import content_digest

        assert content_digest(
            structural_fingerprint(sweep_context)
        ) == content_digest(structural_fingerprint(sweep_context))

    def test_primitives_and_collections(self):
        assert structural_fingerprint((1, "a")) == structural_fingerprint(
            [1, "a"]
        )
        assert structural_fingerprint({"b": 2, "a": 1}) == (
            structural_fingerprint({"a": 1, "b": 2})
        )
        assert structural_fingerprint({1, 2, 3}) == structural_fingerprint(
            {3, 2, 1}
        )

    def test_callables_by_qualname(self):
        def strategy(trace, fov, window):  # pragma: no cover - never called
            return None

        fp = structural_fingerprint(SessionConfig(predictor_factory=strategy))
        assert fp != structural_fingerprint(SessionConfig())

    def test_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            structural_fingerprint(object())


class TestRunComparisonResultsStore:
    def test_results_store_identity_and_hits(self, small_dataset,
                                             network_traces, device,
                                             tmp_path):
        setup = ExperimentSetup(
            dataset=small_dataset,
            encoder=EncoderModel(),
            trace1=network_traces[0],
            trace2=network_traces[1],
        )
        kwargs = dict(users_per_video=1, video_ids=(2,),
                      scheme_names=("ctile", "ours"))
        off = run_comparison(setup, device, **kwargs)

        store = ArtifactStore(tmp_path)
        cold = run_comparison(setup, device, results_store=store, **kwargs)
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
