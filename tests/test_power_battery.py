"""Unit tests for the battery model."""

import pytest

from repro.power import BatteryModel, TYPICAL_PHONE_BATTERY


class TestBatteryModel:
    def test_capacity_joules(self):
        battery = BatteryModel(capacity_mah=1000.0, nominal_voltage_v=1.0)
        assert battery.capacity_j == pytest.approx(3600.0)

    def test_typical_capacity(self):
        # ~3000 mAh at 3.85 V: about 41.6 kJ.
        assert TYPICAL_PHONE_BATTERY.capacity_j == pytest.approx(41580.0)

    def test_screen_included(self):
        battery = BatteryModel(capacity_mah=1000.0, nominal_voltage_v=1.0,
                               screen_power_mw=1000.0)
        # 3600 J at 1 W of streaming plus 1 W of screen: half an hour.
        with_screen = battery.streaming_hours(1.0, include_screen=True)
        assert with_screen == pytest.approx(0.5)

    def test_streaming_hours(self):
        battery = BatteryModel(capacity_mah=1000.0, nominal_voltage_v=3.6,
                               screen_power_mw=0.0)
        # 12960 J at 3.6 W = 3600 s = 1 h.
        assert battery.streaming_hours(3.6, include_screen=False) == (
            pytest.approx(1.0)
        )

    def test_zero_power_infinite(self):
        battery = BatteryModel(screen_power_mw=0.0)
        assert battery.streaming_hours(0.0, include_screen=False) == float("inf")

    def test_savings_extend_lifetime(self):
        # The paper's 49.7 % saving on a 2.3 W session buys real hours.
        hours = TYPICAL_PHONE_BATTERY.streaming_hours
        assert hours(2.3 * (1 - 0.497)) - hours(2.3) > 0.5

    def test_saving_monotone(self):
        hours = TYPICAL_PHONE_BATTERY.streaming_hours
        assert hours(2.3 * 0.5) > hours(2.3 * 0.7)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatteryModel(capacity_mah=0.0)
        with pytest.raises(ValueError):
            BatteryModel(screen_power_mw=-1.0)
        with pytest.raises(ValueError):
            TYPICAL_PHONE_BATTERY.streaming_hours(-1.0)
