"""Tests for the disk-backed content-prep artifact store.

The load-bearing properties:

* **Identity** — `run_comparison` aggregates are byte-identical across
  cache-off, cache-cold, and cache-warm runs, at any worker count.
* **Invalidation** — any input that changes the artifacts (clustering
  δ/σ, grid geometry, training traces, encoder, video) changes the
  content key, so a stale hit is impossible.
* **Robustness** — corrupt or truncated cache files are treated as
  misses and rebuilt, never crashing a run.
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro.experiments import run_comparison
from repro.experiments.artifacts import (
    ArtifactStore,
    content_digest,
    default_cache_dir,
    encoder_fingerprint,
    ftiles_key,
    manifest_key,
    ptiles_key,
    traces_fingerprint,
    video_fingerprint,
)
from repro.experiments.setup import ExperimentSetup
from repro.geometry.tiling import DEFAULT_GRID, TileGrid
from repro.power import PIXEL_3
from repro.ptile.construction import PtileConfig
from repro.video import EncoderModel


@pytest.fixture()
def fresh_setup(small_dataset, network_traces):
    def make(artifacts=None, **overrides):
        return ExperimentSetup(
            dataset=small_dataset,
            encoder=EncoderModel(),
            trace1=network_traces[0],
            trace2=network_traces[1],
            artifacts=artifacts,
            **overrides,
        )

    return make


def result_signature(results):
    return [
        (key, r.user_id, r.total_energy_j, r.mean_qoe, r.total_stall_s,
         r.rebuffer_count, r.mean_frame_rate)
        for key, sessions in sorted(results.items())
        for r in sessions
    ]


SWEEP_KW = dict(
    users_per_video=1, video_ids=(2,), scheme_names=("ctile", "ours")
)


class TestContentDigest:
    def test_deterministic_and_type_tagged(self):
        assert content_digest(1, "a", 2.0) == content_digest(1, "a", 2.0)
        assert content_digest(1) != content_digest("1")
        assert content_digest(1.0) != content_digest(1)
        assert content_digest(("ab", "c")) != content_digest(("a", "bc"))
        assert content_digest(None) != content_digest(0)
        assert content_digest(True) != content_digest(1)

    def test_arrays_and_dicts(self):
        import numpy as np

        a = np.arange(6, dtype=float)
        assert content_digest(a) == content_digest(a.copy())
        assert content_digest(a) != content_digest(a.reshape(2, 3))
        assert content_digest({"x": 1, "y": 2}) == content_digest(
            {"y": 2, "x": 1}
        )

    def test_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            content_digest(object())


class TestKeyComposition:
    def test_ptiles_key_sensitive_to_all_inputs(self, small_dataset):
        video = small_dataset.video(2)
        train = small_dataset.train_traces(2)
        base = ptiles_key(video, train, DEFAULT_GRID, PtileConfig())

        assert ptiles_key(
            video, train, DEFAULT_GRID, PtileConfig(delta=3.0)
        ) != base
        assert ptiles_key(
            video, train, DEFAULT_GRID, PtileConfig(sigma=60.0)
        ) != base
        assert ptiles_key(
            video, train, TileGrid(rows=6, cols=12), PtileConfig()
        ) != base
        assert ptiles_key(video, train[:-1], DEFAULT_GRID, PtileConfig()) != base
        other_video = small_dataset.video(8)
        assert ptiles_key(
            other_video, train, DEFAULT_GRID, PtileConfig()
        ) != base

    def test_resolved_defaults_hash_like_explicit_values(self, small_dataset):
        """sigma=None resolves to the tile width; the two spellings build
        identical Ptiles, so they must share a cache slot."""
        video = small_dataset.video(2)
        train = small_dataset.train_traces(2)
        assert ptiles_key(
            video, train, DEFAULT_GRID, PtileConfig()
        ) == ptiles_key(
            video, train, DEFAULT_GRID,
            PtileConfig(sigma=DEFAULT_GRID.tile_width,
                        delta=DEFAULT_GRID.tile_width / 4.0),
        )

    def test_manifest_key_sensitive_to_encoder(self, small_dataset):
        video = small_dataset.video(2)
        assert manifest_key(video, EncoderModel()) != manifest_key(
            video, EncoderModel(noise_sigma=0.0)
        )

    def test_ftiles_key_sensitive_to_traces(self, small_dataset):
        video = small_dataset.video(2)
        train = small_dataset.train_traces(2)
        assert ftiles_key(video, train) != ftiles_key(video, train[:-1])

    def test_fingerprints_are_digestible(self, small_dataset):
        video = small_dataset.video(2)
        content_digest(video_fingerprint(video))
        content_digest(encoder_fingerprint(EncoderModel()))
        content_digest(traces_fingerprint(small_dataset.train_traces(2)))


class TestArtifactStore:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = content_digest("x")
        assert store.get("ptiles", digest) is None
        store.put("ptiles", digest, {"payload": [1, 2, 3]})
        assert store.get("ptiles", digest) == {"payload": [1, 2, 3]}
        assert store.stats.hits == {"ptiles": 1}
        assert store.stats.misses == {"ptiles": 1}
        assert store.stats.writes == {"ptiles": 1}
        assert store.size_bytes() > 0

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path).get("bogus", "00")
        # Session results live only in shards, never as per-object
        # pickles.
        store = ArtifactStore(tmp_path)
        digest = content_digest("job")
        for call in (store.path_for, store.get):
            with pytest.raises(ValueError):
                call("results", digest)
        with pytest.raises(ValueError):
            store.put("results", digest, "payload")

    def test_corrupt_file_is_a_miss_and_removed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = content_digest("y")
        path = store.put("manifest", digest, [1, 2])
        path.write_bytes(b"not a pickle")
        assert store.get("manifest", digest) is None
        assert not path.exists()

    def test_truncated_pickle_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = content_digest("z")
        path = store.put("ftiles", digest, list(range(100)))
        path.write_bytes(pickle.dumps(list(range(100)))[:10])
        assert store.get("ftiles", digest) is None

    def test_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("ptiles", content_digest(1), "a")
        store.put("manifest", content_digest(2), "b")
        assert store.clear() == 2
        assert store.size_bytes() == 0

    def test_memory_error_is_a_miss_but_file_survives(self, tmp_path,
                                                      monkeypatch):
        """A transient OOM must not be treated as corruption: the entry
        stays on disk and a later load (with memory back) hits."""
        store = ArtifactStore(tmp_path)
        digest = content_digest("big")
        path = store.put("manifest", digest, {"payload": list(range(50))})

        def oom(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(pickle, "load", oom)
        assert store.get("manifest", digest) is None
        assert path.exists()  # NOT unlinked, unlike a corrupt pickle
        assert store.stats.misses == {"manifest": 1}

        monkeypatch.undo()
        assert store.get("manifest", digest) == {"payload": list(range(50))}

    def test_malformed_digest_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for bad in (
            "../../../../etc/passwd",
            "deadbeef",  # too short
            content_digest("x").upper(),  # not lowercase hex
            content_digest("x")[:-1] + "/",
            content_digest("x") + "00",  # too long
            "g" * 64,  # right length, not hex
            "",
        ):
            with pytest.raises(ValueError):
                store.path_for("manifest", bad)
            with pytest.raises(ValueError):
                store.get("manifest", bad)
            with pytest.raises(ValueError):
                store.put("manifest", bad, "payload")

    def test_path_stays_inside_kind_directory(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.path_for("ptiles", content_digest("x"))
        assert path.parent == tmp_path / "ptiles"

    def test_stale_tmp_files_swept(self, tmp_path):
        """A crashed writer's temp file is invisible to the glob-based
        clear()/size_bytes(); the age-gated sweep reclaims it while a
        fresh (possibly live) writer's file is left alone."""
        store = ArtifactStore(tmp_path, stale_tmp_age_s=60.0)
        store.put("manifest", content_digest("keep"), "v")
        kind_dir = tmp_path / "manifest"

        stale = kind_dir / f".{content_digest('dead')}.12345.tmp"
        stale.write_bytes(b"x" * 100)
        old = time.time() - 3600
        os.utime(stale, (old, old))
        fresh = kind_dir / f".{content_digest('live')}.12346.tmp"
        fresh.write_bytes(b"y" * 100)

        size = store.size_bytes()
        assert not stale.exists()  # orphan reclaimed
        assert fresh.exists()  # live writer untouched
        assert size >= 100  # fresh tmp is counted while it exists

        os.utime(fresh, (old, old))
        removed = store.clear()
        assert removed == 2  # the artifact + the now-stale tmp
        assert not fresh.exists()
        assert store.size_bytes() == 0

    def test_default_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"
        assert ArtifactStore().root == tmp_path / "env"
        monkeypatch.delenv("REPRO_ARTIFACT_CACHE")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro-360"

    def test_stats_report_renders(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.get("ptiles", content_digest("miss"))
        assert "ptiles: 0 hit(s), 1 miss(es)" in store.stats.report()


class TestRunComparisonIdentity:
    def test_off_cold_warm_identical(self, fresh_setup, tmp_path, device):
        off = run_comparison(fresh_setup(None), device, **SWEEP_KW)

        cold_setup = fresh_setup(ArtifactStore(tmp_path))
        cold = run_comparison(cold_setup, device, **SWEEP_KW)
        assert cold_setup.artifacts.stats.total_hits == 0
        assert cold_setup.artifacts.stats.writes == {
            "manifest": 1, "ptiles": 1, "ftiles": 1
        }

        warm_setup = fresh_setup(ArtifactStore(tmp_path))
        warm = run_comparison(warm_setup, device, **SWEEP_KW)
        assert warm_setup.artifacts.stats.total_misses == 0
        assert warm_setup.artifacts.stats.hits == {
            "manifest": 1, "ptiles": 1, "ftiles": 1
        }

        assert (
            result_signature(off)
            == result_signature(cold)
            == result_signature(warm)
        )

    def test_warm_identical_across_worker_counts(
        self, fresh_setup, tmp_path, device
    ):
        store = ArtifactStore(tmp_path)
        cold = run_comparison(fresh_setup(store), device, **SWEEP_KW)
        warm_pooled = run_comparison(
            fresh_setup(ArtifactStore(tmp_path)), device, workers=2,
            **SWEEP_KW,
        )
        assert result_signature(cold) == result_signature(warm_pooled)

    def test_parallel_cold_prep_identical(self, fresh_setup, device,
                                          tmp_path):
        serial = run_comparison(fresh_setup(None), device,
                                users_per_video=1,
                                scheme_names=("ctile", "ours"))
        pooled_setup = fresh_setup(ArtifactStore(tmp_path / "p"))
        pooled = run_comparison(pooled_setup, device, users_per_video=1,
                                scheme_names=("ctile", "ours"), workers=2)
        assert result_signature(serial) == result_signature(pooled)

    def test_warm_run_skips_construction(self, fresh_setup, tmp_path,
                                         device, monkeypatch):
        """On a warm store the construction entry points must never run,
        and the multi-video sweep still reproduces the cold run."""
        kwargs = dict(SWEEP_KW, video_ids=(2, 8))
        store = ArtifactStore(tmp_path)
        cold = run_comparison(fresh_setup(store), device, **kwargs)

        import repro.experiments.setup as setup_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("construction ran on a warm cache")

        monkeypatch.setattr(setup_mod, "build_video_ptiles", boom)
        monkeypatch.setattr(setup_mod, "build_video_ftiles", boom)
        monkeypatch.setattr(setup_mod, "VideoManifest", boom)
        warm_setup = fresh_setup(ArtifactStore(tmp_path))
        warm = run_comparison(warm_setup, device, **kwargs)
        assert warm_setup.artifacts.stats.total_misses == 0
        assert warm_setup.artifacts.stats.hits == {
            "manifest": 2, "ptiles": 2, "ftiles": 2
        }
        assert result_signature(warm) == result_signature(cold)


class TestInvalidation:
    def test_changed_clustering_params_rebuild(self, fresh_setup, tmp_path,
                                               device):
        store = ArtifactStore(tmp_path)
        run_comparison(fresh_setup(store), device, **SWEEP_KW)

        changed = fresh_setup(
            ArtifactStore(tmp_path),
            ptile_config=PtileConfig(delta=2.0, sigma=50.0),
        )
        run_comparison(changed, device, **SWEEP_KW)
        # Manifests/Ftiles don't depend on δ/σ: warm.  Ptiles: rebuilt.
        assert changed.artifacts.stats.misses.get("ptiles") == 1
        assert changed.artifacts.stats.writes.get("ptiles") == 1
        assert "manifest" not in changed.artifacts.stats.misses
        assert "ftiles" not in changed.artifacts.stats.misses

    def test_changed_grid_rebuilds_ptiles(self, fresh_setup, tmp_path,
                                          device):
        store = ArtifactStore(tmp_path)
        base = fresh_setup(store)
        base.prepare((2,))
        changed = fresh_setup(
            ArtifactStore(tmp_path), grid=TileGrid(rows=6, cols=12)
        )
        changed.prepare((2,), manifests=False, ftiles=False)
        assert changed.artifacts.stats.misses.get("ptiles") == 1

    def test_changed_train_traces_rebuild(self, tmp_path, network_traces):
        from repro.traces import build_dataset

        for seed in (7, 8):  # different split => different train traces
            dataset = build_dataset(n_users=16, n_train=12, video_ids=(2,),
                                    max_duration_s=20, seed=seed)
            setup = ExperimentSetup(
                dataset=dataset,
                encoder=EncoderModel(),
                trace1=network_traces[0],
                trace2=network_traces[1],
                artifacts=ArtifactStore(tmp_path),
            )
            setup.prepare((2,))
            # The video itself is seed-independent, so the manifest may
            # hit on the second round — but Ptiles/Ftiles depend on the
            # training traces and must be rebuilt for the new split.
            assert setup.artifacts.stats.hits.get("ptiles") is None
            assert setup.artifacts.stats.hits.get("ftiles") is None
            assert setup.artifacts.stats.misses.get("ptiles") == 1
            assert setup.artifacts.stats.misses.get("ftiles") == 1


class TestPrepare:
    def test_prepare_is_idempotent(self, fresh_setup, tmp_path):
        setup = fresh_setup(ArtifactStore(tmp_path))
        setup.prepare()
        ptiles = setup.ptiles(2)
        setup.prepare()
        assert setup.ptiles(2) is ptiles  # memo untouched

    def test_prepare_without_store(self, fresh_setup):
        setup = fresh_setup(None)
        setup.prepare((2,), workers=1)
        assert setup.ptiles(2)
        assert setup.ftiles(2)

    def test_parallel_prepare_matches_serial(self, fresh_setup):
        serial = fresh_setup(None)
        serial.prepare(workers=1)
        pooled = fresh_setup(None)
        pooled.prepare(workers=2)
        for vid in (2, 8):
            assert [
                (sp.segment_index, [p.tiles for p in sp.ptiles])
                for sp in serial.ptiles(vid)
            ] == [
                (sp.segment_index, [p.tiles for p in sp.ptiles])
                for sp in pooled.ptiles(vid)
            ]
            assert [
                [c.rect for c in part.cells] for part in serial.ftiles(vid)
            ] == [
                [c.rect for c in part.cells] for part in pooled.ftiles(vid)
            ]
