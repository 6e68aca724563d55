"""Unit tests for the encoder rate model (Fig. 8 calibration)."""

import pytest

from repro.video import EncoderModel, QUALITY_LEVELS

SI, TI = 33.0, 14.0  # average-complexity content


class TestQualityToCrf:
    """The encoder prices a quality level at its ladder's CRF."""

    def test_paper_ladder(self):
        crf = EncoderModel().ladder.crf
        assert [crf(q) for q in (1, 2, 3, 4, 5)] == [38, 33, 28, 23, 18]

    def test_fractional_interpolates(self):
        assert EncoderModel().ladder.crf(2.5) == pytest.approx(30.5)

    def test_out_of_range(self):
        encoder = EncoderModel(noise_sigma=0.0)
        for quality in (0.5, 5.5):
            with pytest.raises(ValueError):
                encoder.ladder.crf(quality)
            with pytest.raises(ValueError):
                encoder.full_frame_bitrate_mbps(quality, SI, TI)


class TestRateQualityLaw:
    def test_monotone_in_quality(self, noise_free_encoder):
        rates = [
            noise_free_encoder.full_frame_bitrate_mbps(q, SI, TI)
            for q in QUALITY_LEVELS
        ]
        assert rates == sorted(rates)
        assert rates[-1] > 10 * rates[0]

    def test_monotone_in_complexity(self, noise_free_encoder):
        low = noise_free_encoder.full_frame_bitrate_mbps(3, 20.0, 5.0)
        high = noise_free_encoder.full_frame_bitrate_mbps(3, 45.0, 22.0)
        assert high > low

    def test_fov_share(self, noise_free_encoder):
        full = noise_free_encoder.full_frame_bitrate_mbps(3, SI, TI)
        fov = noise_free_encoder.fov_bitrate_mbps(3, SI, TI, n_fov_tiles=9)
        assert fov == pytest.approx(full * 9 / 32)

    def test_fov_requires_tiles(self, noise_free_encoder):
        with pytest.raises(ValueError):
            noise_free_encoder.fov_bitrate_mbps(3, SI, TI, n_fov_tiles=0)

    def test_qoe_bitrate_monotone_and_compressed(self, noise_free_encoder):
        values = [
            noise_free_encoder.qoe_bitrate_mbps(q, SI, TI) for q in QUALITY_LEVELS
        ]
        assert values == sorted(values)
        # Log compression: ladder steps shrink much less than the raw 2.4x.
        steps = [b / a for a, b in zip(values, values[1:])]
        assert max(steps) < 2.0


class TestFig8Calibration:
    """The headline calibration: Ptile/Ctile size ratios match Fig. 8."""

    PAPER = {5: 0.62, 4: 0.57, 3: 0.47, 2: 0.35, 1: 0.27}

    @pytest.mark.parametrize("quality", QUALITY_LEVELS)
    def test_median_ratio(self, noise_free_encoder, quality):
        ptile = noise_free_encoder.region_size_mbit(quality, SI, TI, 9 / 32)
        ctile = noise_free_encoder.tiled_region_size_mbit(quality, SI, TI, 9)
        assert ptile / ctile == pytest.approx(self.PAPER[quality], abs=0.01)

    def test_ratio_independent_of_content(self, noise_free_encoder):
        for si, ti in [(25.0, 6.0), (41.0, 21.0)]:
            ptile = noise_free_encoder.region_size_mbit(3, si, ti, 9 / 32)
            ctile = noise_free_encoder.tiled_region_size_mbit(3, si, ti, 9)
            assert ptile / ctile == pytest.approx(self.PAPER[3], abs=0.01)


class TestEfficiency:
    def test_unit_tile_is_one(self, encoder):
        assert encoder.efficiency(1.0, 3) == pytest.approx(1.0)

    def test_decreasing_to_fov_scale(self, encoder):
        values = [encoder.efficiency(n, 3) for n in (1, 2, 4, 9)]
        assert values == sorted(values, reverse=True)

    def test_small_tiles_penalized(self, encoder):
        assert encoder.efficiency(0.2, 3) > 1.0

    def test_plateau_through_ptile_sizes(self, encoder):
        assert encoder.efficiency(12, 3) == pytest.approx(encoder.efficiency(9, 3))
        assert encoder.efficiency(16, 3) == pytest.approx(encoder.efficiency(9, 3))

    def test_erodes_to_full_frame(self, encoder):
        assert encoder.efficiency(32, 3) == pytest.approx(0.95)
        assert encoder.efficiency(24, 3) < 0.95
        assert encoder.efficiency(24, 3) > encoder.efficiency(16, 3)


class TestRegionSize:
    def test_invalid_area(self, encoder):
        with pytest.raises(ValueError):
            encoder.region_size_mbit(3, SI, TI, 0.0)
        with pytest.raises(ValueError):
            encoder.region_size_mbit(3, SI, TI, 1.5)

    def test_noise_deterministic_per_key(self, encoder):
        a = encoder.region_size_mbit(3, SI, TI, 0.25, noise_key=(1, 2, "r"))
        b = encoder.region_size_mbit(3, SI, TI, 0.25, noise_key=(1, 2, "r"))
        assert a == b

    def test_noise_varies_across_keys(self, encoder):
        a = encoder.region_size_mbit(3, SI, TI, 0.25, noise_key=(1, 2, "r"))
        b = encoder.region_size_mbit(3, SI, TI, 0.25, noise_key=(1, 3, "r"))
        assert a != b

    def test_noise_free_matches_sigma_zero(self, noise_free_encoder):
        a = noise_free_encoder.region_size_mbit(3, SI, TI, 0.25, noise_key=(1,))
        b = noise_free_encoder.region_size_mbit(3, SI, TI, 0.25)
        assert a == b

    def test_frame_rate_shrinks_size(self, noise_free_encoder):
        full = noise_free_encoder.region_size_mbit(3, SI, TI, 9 / 32)
        reduced = noise_free_encoder.region_size_mbit(
            3, SI, TI, 9 / 32, frame_rate=21.0, fps=30.0
        )
        assert reduced == pytest.approx(full * (1 - 0.6 * 0.3))

    def test_frame_rate_bounds(self, encoder):
        with pytest.raises(ValueError):
            encoder.frame_rate_factor(0.0, 30.0)
        with pytest.raises(ValueError):
            encoder.frame_rate_factor(31.0, 30.0)
        assert encoder.frame_rate_factor(30.0, 30.0) == 1.0

    def test_tiled_region_sums_tiles(self, noise_free_encoder):
        one = noise_free_encoder.tile_size_mbit(3, SI, TI)
        nine = noise_free_encoder.tiled_region_size_mbit(3, SI, TI, 9)
        assert nine == pytest.approx(9 * one)

    def test_tiled_region_needs_tiles(self, encoder):
        with pytest.raises(ValueError):
            encoder.tiled_region_size_mbit(3, SI, TI, 0)

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            EncoderModel(ref_bitrate_mbps=0.0)
        with pytest.raises(ValueError):
            EncoderModel(segment_seconds=0.0)
        with pytest.raises(ValueError):
            EncoderModel(noise_sigma=-0.1)

    def test_noise_mean_near_one(self, encoder):
        # Lognormal with mean-one parameterization.
        sizes = [
            encoder.region_size_mbit(3, SI, TI, 0.25, noise_key=(i,))
            for i in range(300)
        ]
        clean = EncoderModel(noise_sigma=0.0).region_size_mbit(3, SI, TI, 0.25)
        mean_ratio = sum(sizes) / len(sizes) / clean
        assert mean_ratio == pytest.approx(1.0, abs=0.05)
