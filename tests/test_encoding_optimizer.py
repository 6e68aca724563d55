"""Tests for the per-content encoding-ladder search."""

import pytest

from repro.encoding import (
    DEFAULT_ENCODING_LADDER,
    EncodingLadder,
    LadderSearchConfig,
    default_quality_targets,
    optimize_catalog,
    optimize_video_ladder,
)
from repro.experiments import ArtifactStore
from repro.qoe import QualityModel


FULL_SEARCH = LadderSearchConfig(movable_levels=None)


@pytest.fixture(scope="module")
def targets(small_dataset, noise_free_encoder):
    videos = [small_dataset.video(vid) for vid in (2, 8)]
    return default_quality_targets(videos, noise_free_encoder)


class TestSearchConfig:
    def test_defaults_valid(self):
        config = LadderSearchConfig()
        assert config.movable_levels == 1
        assert config.pin_top_level
        assert config.never_exceed_default_bits

    def test_grid_covers_range(self):
        grid = LadderSearchConfig(crf_min=20.0, crf_max=22.0, crf_step=0.5).grid()
        assert grid[0] == 20.0
        assert grid[-1] == 22.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LadderSearchConfig(crf_min=30.0, crf_max=20.0)
        with pytest.raises(ValueError):
            LadderSearchConfig(crf_step=0.0)
        with pytest.raises(ValueError):
            LadderSearchConfig(min_spacing=0.5)  # below ladder-type floor
        with pytest.raises(ValueError):
            LadderSearchConfig(movable_levels=0)
        with pytest.raises(ValueError):
            LadderSearchConfig(max_passes=0)


class TestDefaultTargets:
    def test_shape_and_monotonicity(self, targets):
        assert len(targets) == DEFAULT_ENCODING_LADDER.num_levels
        # Higher quality levels have higher mean-Qo floors.
        assert list(targets) == sorted(targets)

    def test_deterministic(self, small_dataset, noise_free_encoder):
        videos = [small_dataset.video(vid) for vid in (2, 8)]
        again = default_quality_targets(videos, noise_free_encoder)
        assert tuple(again) == tuple(
            default_quality_targets(videos, noise_free_encoder)
        )

    def test_needs_videos(self, noise_free_encoder):
        with pytest.raises(ValueError):
            default_quality_targets([], noise_free_encoder)


class TestVideoSearch:
    def test_constraints_hold(self, video8, noise_free_encoder, targets):
        result = optimize_video_ladder(
            video8, noise_free_encoder, targets, config=FULL_SEARCH
        )
        opt, base = result.ladder, DEFAULT_ENCODING_LADDER
        assert isinstance(opt, EncodingLadder)
        assert opt.num_levels == base.num_levels
        # never_exceed_default_bits: each rung at or above the base CRF.
        for crf_opt, crf_base in zip(opt.crfs, base.crfs):
            assert crf_opt >= crf_base
        # pin_top_level: the peak-quality rung is untouched.
        assert opt.crfs[-1] == base.crfs[-1]
        # Spacing at least the configured minimum.
        for hi, lo in zip(opt.crfs, opt.crfs[1:]):
            assert hi - lo >= FULL_SEARCH.min_spacing - 1e-9
        for opt_mbps, base_mbps in zip(result.fov_mbps_opt,
                                       result.fov_mbps_base):
            assert opt_mbps <= base_mbps + 1e-12
        assert 0.0 <= result.bits_saved_frac <= 1.0

    def test_movable_levels_limits_search(self, video8, noise_free_encoder,
                                          targets):
        result = optimize_video_ladder(
            video8, noise_free_encoder, targets,
            config=LadderSearchConfig(movable_levels=1),
        )
        # Only the background rung may move.
        assert result.ladder.crfs[1:] == DEFAULT_ENCODING_LADDER.crfs[1:]

    def test_target_length_checked(self, video8, noise_free_encoder):
        with pytest.raises(ValueError, match="targets"):
            optimize_video_ladder(video8, noise_free_encoder, (50.0, 60.0))

    def test_unreachable_targets_keep_base_ladder(self, video8,
                                                  noise_free_encoder):
        # Targets nothing on the grid can hit: never_exceed_default_bits
        # clamps every rung back to the paper ladder.
        result = optimize_video_ladder(
            video8, noise_free_encoder, (100.0,) * 5, config=FULL_SEARCH
        )
        assert result.ladder == DEFAULT_ENCODING_LADDER
        assert not result.changed
        assert not any(result.targets_met)

    def test_report_mentions_video(self, video8, noise_free_encoder, targets):
        result = optimize_video_ladder(video8, noise_free_encoder, targets)
        text = "\n".join(result.report())
        assert f"Video {video8.meta.video_id}" in text


class TestCatalogSearch:
    def test_serial_equals_pooled(self, small_dataset, noise_free_encoder,
                                  targets):
        videos = [small_dataset.video(vid) for vid in (2, 8)]
        serial = optimize_catalog(videos, noise_free_encoder, targets=targets,
                                  workers=1)
        pooled = optimize_catalog(videos, noise_free_encoder, targets=targets,
                                  workers=2)
        assert serial.keys() == pooled.keys()
        for vid in serial:
            assert serial[vid].ladder == pooled[vid].ladder
            assert serial[vid].qo_opt == pooled[vid].qo_opt

    def test_cold_equals_warm(self, small_dataset, noise_free_encoder,
                              targets, tmp_path):
        videos = [small_dataset.video(vid) for vid in (2, 8)]
        store = ArtifactStore(tmp_path / "ladder-cache")
        cold = optimize_catalog(videos, noise_free_encoder, targets=targets,
                                store=store)
        assert store.stats.total_hits == 0
        warm = optimize_catalog(videos, noise_free_encoder, targets=targets,
                                store=store)
        assert store.stats.total_misses == len(videos)  # cold misses only
        for vid in cold:
            assert warm[vid].ladder == cold[vid].ladder
            assert warm[vid].qo_opt == cold[vid].qo_opt

    def test_default_search_identical_across_workers_and_cache(
        self, video8, encoder, tmp_path
    ):
        # The default (noisy) encoder and default targets: serial ==
        # pooled == cold == warm, and the warm search is one pure hit.
        videos = [video8]
        serial = optimize_catalog(videos, encoder, workers=1)
        pooled = optimize_catalog(videos, encoder, workers=2)
        store = ArtifactStore(tmp_path / "ladder-cache")
        cold = optimize_catalog(videos, encoder, store=store)
        warm = optimize_catalog(videos, encoder, store=store)
        assert store.stats.misses.get("ladder") == 1, store.stats.report()
        assert (serial[8].ladder == pooled[8].ladder
                == cold[8].ladder == warm[8].ladder)
        assert (serial[8].qo_opt == pooled[8].qo_opt
                == cold[8].qo_opt == warm[8].qo_opt)

    def test_store_respects_config(self, small_dataset, noise_free_encoder,
                                   targets, tmp_path):
        # A different search config must not reuse the cached search.
        videos = [small_dataset.video(8)]
        store = ArtifactStore(tmp_path / "ladder-cache")
        optimize_catalog(videos, noise_free_encoder, targets=targets,
                         store=store)
        optimize_catalog(videos, noise_free_encoder, targets=targets,
                         config=FULL_SEARCH, store=store)
        assert store.stats.total_misses == 2

    def test_quality_model_default(self, small_dataset, noise_free_encoder):
        videos = [small_dataset.video(8)]
        explicit = optimize_catalog(videos, noise_free_encoder,
                                    quality_model=QualityModel())
        implicit = optimize_catalog(videos, noise_free_encoder)
        assert explicit[8].ladder == implicit[8].ladder
