"""Unit tests for the baseline ABR rule."""

import pytest

from repro.streaming import ThroughputBufferABR


# Total segment size at quality levels 1..5.
SIZES = [1.0, 2.0, 4.0, 8.0, 16.0]


class TestBudget:
    def test_steady_state_budget(self):
        abr = ThroughputBufferABR()
        assert abr.budget_mbit(4.0, 2.0) == pytest.approx(4.0 * 0.95)

    def test_low_buffer_tightens(self):
        abr = ThroughputBufferABR()
        low = abr.budget_mbit(4.0, 0.5)
        normal = abr.budget_mbit(4.0, 2.0)
        assert low < normal

    def test_surplus_disabled_by_default(self):
        abr = ThroughputBufferABR()
        assert abr.budget_mbit(4.0, 3.0) == abr.budget_mbit(4.0, 2.0)

    def test_surplus_opt_in(self):
        abr = ThroughputBufferABR(surplus_scale=0.5)
        assert abr.budget_mbit(4.0, 3.0) > abr.budget_mbit(4.0, 2.0)

    def test_validation(self):
        abr = ThroughputBufferABR()
        with pytest.raises(ValueError):
            abr.budget_mbit(0.0, 2.0)
        with pytest.raises(ValueError):
            abr.budget_mbit(4.0, -1.0)
        with pytest.raises(ValueError):
            ThroughputBufferABR(safety=0.0)


class TestChooseQuality:
    def test_picks_highest_fitting(self):
        abr = ThroughputBufferABR(safety=1.0)
        assert abr.choose_quality(SIZES, 4.5, 2.0) == 3

    def test_falls_back_to_lowest(self):
        abr = ThroughputBufferABR()
        assert abr.choose_quality(SIZES, 0.5, 2.0) == 1

    def test_caps_at_highest(self):
        abr = ThroughputBufferABR(safety=1.0)
        assert abr.choose_quality(SIZES, 100.0, 2.0) == 5

    def test_monotone_in_bandwidth(self):
        abr = ThroughputBufferABR()
        picks = [abr.choose_quality(SIZES, bw, 2.0) for bw in (1, 3, 6, 12, 24)]
        assert picks == sorted(picks)

    def test_custom_quality_list(self):
        abr = ThroughputBufferABR(safety=1.0)
        pick = abr.choose_quality([1.0, 2.5, 3.5], 3.0, 2.0,
                                  qualities=[1.0, 2.5, 3.5])
        assert pick == 2.5

    def test_empty_qualities_rejected(self):
        abr = ThroughputBufferABR()
        with pytest.raises(ValueError):
            abr.choose_quality(SIZES, 4.0, 2.0, qualities=[])

    def test_sizes_must_match_qualities(self):
        abr = ThroughputBufferABR()
        with pytest.raises(ValueError, match="one size per quality"):
            abr.choose_quality(SIZES[:4], 4.0, 2.0)

    def test_unsorted_qualities_pick_highest_fitting(self):
        abr = ThroughputBufferABR(safety=1.0)
        pick = abr.choose_quality([4.0, 1.0, 2.0], 3.0, 2.0,
                                  qualities=[3, 1, 2])
        assert pick == 2

    def test_low_buffer_drops_quality(self):
        abr = ThroughputBufferABR()
        normal = abr.choose_quality(SIZES, 4.5, 2.0)
        starved = abr.choose_quality(SIZES, 4.5, 0.2)
        assert starved <= normal
