"""Unit tests for Eq. 1 energy accounting."""

import pytest

from repro.power import EnergyModel, PIXEL_3, SegmentEnergy, TilingScheme


class TestSegmentEnergy:
    def test_total(self):
        e = SegmentEnergy(1.0, 2.0, 0.5)
        assert e.total_j == 3.5

    def test_addition(self):
        a = SegmentEnergy(1.0, 2.0, 0.5)
        b = SegmentEnergy(0.5, 0.5, 0.5)
        c = a + b
        assert c.transmission_j == 1.5
        assert c.decoding_j == 2.5
        assert c.rendering_j == 1.0

    def test_zero(self):
        assert SegmentEnergy.zero().total_j == 0.0


class TestEnergyModel:
    @pytest.fixture
    def model(self):
        return EnergyModel(PIXEL_3, segment_seconds=1.0)

    def test_transmission_eq1(self, model):
        # E_t = P_t * S / R: 4 Mbit at 4 Mbps = 1 s at 1429.08 mW.
        assert model.transmission_energy_j(4.0, 4.0) == pytest.approx(1.42908)

    def test_transmission_from_time(self, model):
        assert model.transmission_energy_from_time_j(2.0) == pytest.approx(
            2 * 1.42908
        )

    def test_zero_size_is_free(self, model):
        assert model.transmission_energy_j(0.0, 4.0) == 0.0

    def test_decoding_eq1(self, model):
        # E_d = P_d(f) * L at 30 fps for the Ptile row.
        expected = (140.73 + 5.96 * 30) * 1e-3
        assert model.decoding_energy_j(TilingScheme.PTILE, 30.0) == pytest.approx(
            expected
        )

    def test_rendering_eq1(self, model):
        expected = (57.76 + 4.19 * 30) * 1e-3
        assert model.rendering_energy_j(30.0) == pytest.approx(expected)

    def test_segment_duration_scales(self):
        model = EnergyModel(PIXEL_3, segment_seconds=2.0)
        assert model.decoding_energy_j(TilingScheme.PTILE, 30.0) == pytest.approx(
            2 * (140.73 + 5.96 * 30) * 1e-3
        )

    def test_full_breakdown(self, model):
        e = SegmentEnergy(
            model.transmission_energy_j(3.9, 3.9),
            model.decoding_energy_j(TilingScheme.CTILE, 30.0),
            model.rendering_energy_j(30.0),
        )
        assert e.transmission_j == pytest.approx(1.42908)
        assert e.decoding_j == pytest.approx((574.89 + 15.46 * 30) * 1e-3)
        assert e.total_j == pytest.approx(
            e.transmission_j + e.decoding_j + e.rendering_j
        )

    def test_frame_rate_reduction_saves_energy(self, model):
        high = model.decoding_energy_j(TilingScheme.PTILE, 30.0)
        low = model.decoding_energy_j(TilingScheme.PTILE, 21.0)
        assert low < high
        assert high - low == pytest.approx(5.96 * 9 * 1e-3)

    def test_validation(self, model):
        with pytest.raises(ValueError):
            model.transmission_energy_j(-1.0, 4.0)
        with pytest.raises(ValueError):
            model.transmission_energy_j(1.0, 0.0)
        with pytest.raises(ValueError):
            model.transmission_energy_from_time_j(-0.1)
        with pytest.raises(ValueError):
            EnergyModel(PIXEL_3, segment_seconds=0.0)
