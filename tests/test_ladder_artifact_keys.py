"""Regression gate: every cache key moves when the encoding ladder does.

A per-video ladder changes encoded sizes, plan tables, and session
outcomes, so *every* content-addressed reuse path must fold the ladder
into its key — manifests, the ladder search itself, sweep/results
digests, columnar result shards, and the serving plan-table memos.  A
single stale path would silently replay fixed-ladder results under an
optimized ladder.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import OursScheme
from repro.encoding import EncodingLadder, LadderSearchConfig
from repro.experiments import (
    ArtifactStore,
    SweepContext,
    content_digest,
    make_setup,
    results_shard_key,
    structural_fingerprint,
    sweep_context_digest,
)
from repro.experiments.artifacts import (
    encoder_fingerprint,
    ladder_key,
    manifest_key,
    ptiles_key,
)
from repro.power import PIXEL_3
from repro.video import VideoManifest

ALT_LADDER = EncodingLadder(crfs=(41.0, 33.0, 28.0, 23.0, 18.0))


@pytest.fixture(scope="module")
def alt_encoder(encoder):
    return dataclasses.replace(encoder, ladder=ALT_LADDER)


class TestFingerprints:
    def test_encoder_fingerprint_includes_ladder(self, encoder, alt_encoder):
        assert encoder_fingerprint(encoder) != encoder_fingerprint(alt_encoder)

    def test_manifest_key_changes(self, video8, encoder, alt_encoder):
        assert manifest_key(video8, encoder) != manifest_key(video8, alt_encoder)

    def test_structural_fingerprint_of_manifest_changes(
        self, video8, encoder, alt_encoder
    ):
        a = content_digest(structural_fingerprint(VideoManifest(video8, encoder)))
        b = content_digest(structural_fingerprint(VideoManifest(video8, alt_encoder)))
        assert a != b

    def test_ladder_key_axes(self, video8, video2, encoder):
        targets = (40.0, 50.0, 60.0, 70.0, 80.0)
        base = ladder_key(video8, encoder, targets, LadderSearchConfig(), None)
        assert ladder_key(
            video2, encoder, targets, LadderSearchConfig(), None
        ) != base
        assert ladder_key(
            video8, encoder, (41.0, 50.0, 60.0, 70.0, 80.0),
            LadderSearchConfig(), None,
        ) != base
        assert ladder_key(
            video8, encoder, targets,
            LadderSearchConfig(movable_levels=None), None,
        ) != base
        # Same inputs, same key: the cache is deterministic.
        assert ladder_key(
            video8, encoder, targets, LadderSearchConfig(), None
        ) == base


class TestSetupAndPrepare:
    @pytest.fixture(scope="class")
    def setup(self):
        return make_setup(max_duration_s=20, n_users=6, n_train=4,
                          video_ids=(8,))

    def test_with_ladders_rebuilds_manifests(self, setup):
        override = setup.with_ladders({8: ALT_LADDER})
        assert override.manifest(8).encoder.ladder == ALT_LADDER
        # The base setup's memo is untouched.
        assert setup.manifest(8).encoder.ladder != ALT_LADDER

    def test_with_ladders_shares_ptiles(self, setup):
        # Ptile clustering depends only on traces and geometry, never on
        # the ladder, so the expensive artifacts are shared, not rebuilt.
        override = setup.with_ladders({8: ALT_LADDER})
        assert override.ptiles(8) is setup.ptiles(8)

    def test_prepare_artifact_keys_disjoint(self, setup, tmp_path):
        # Two prepares under different ladders on one store must not
        # reuse each other's manifests.
        from repro.experiments import ArtifactStore

        store = ArtifactStore(tmp_path / "cache")
        video = setup.dataset.video(8)
        a = manifest_key(video, setup.encoder)
        b = manifest_key(
            video, dataclasses.replace(setup.encoder, ladder=ALT_LADDER)
        )
        store.put("manifest", a, setup.manifest(8))
        assert store.get("manifest", b) is None


class TestResultsKeys:
    @pytest.fixture(scope="class")
    def contexts(self):
        setup = make_setup(max_duration_s=20, n_users=6, n_train=4,
                           video_ids=(8,))
        override = setup.with_ladders({8: ALT_LADDER})
        scheme = OursScheme(device=PIXEL_3)

        def ctx(s):
            return SweepContext(
                schemes={"ours": scheme},
                device=PIXEL_3,
                networks={"trace2": s.trace2},
                manifests={8: s.manifest(8)},
                head_traces={8: tuple(s.dataset.test_traces(8)[:1])},
                ptiles={8: s.ptiles(8)},
                ptiles_keys={8: ptiles_key(
                    s.dataset.video(8), s.dataset.train_traces(8), s.grid,
                    s.ptile_config,
                )},
            )

        return ctx(setup), ctx(override)

    def test_sweep_context_digest_changes(self, contexts):
        base, override = contexts
        assert sweep_context_digest(base) != sweep_context_digest(override)

    def test_results_shard_keys_disjoint(self, contexts):
        base, override = contexts
        assert results_shard_key(
            sweep_context_digest(base), 8
        ) != results_shard_key(sweep_context_digest(override), 8)

    def test_sharded_store_no_cross_reads(self, contexts, tmp_path):
        base, override = contexts
        store = ArtifactStore(tmp_path / "results")
        key_a = results_shard_key(sweep_context_digest(base), 8)
        key_b = results_shard_key(sweep_context_digest(override), 8)
        job = content_digest("job")
        store.merge_shard(key_a, {job: {"job": "payload"}})
        assert store.get_results_batch(key_b, [job]) == [None]
        assert store.get_results_batch(key_a, [job]) == [{"job": "payload"}]


class TestServingMemos:
    def test_plan_tables_memo_split_by_ladder(self, video8, encoder,
                                              alt_encoder, device):
        scheme = OursScheme(device=device)
        for enc in (encoder, alt_encoder):
            scheme._plan_tables(VideoManifest(video8, enc))
        # One memo entry per ladder: the optimized ladder never replays
        # the fixed ladder's tables.
        assert len(scheme._tables_cache) == 2
