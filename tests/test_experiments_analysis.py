"""Unit tests for the statistical analysis helpers."""

import numpy as np
import pytest

from repro.experiments.analysis import (
    bootstrap_ci,
    compare_schemes,
    paired_comparison,
)
from repro.power import SegmentEnergy, TilingScheme
from repro.qoe import SegmentQoE
from repro.streaming import SegmentRecord, SessionResult


def make_session(scheme, video, user, network, energy_j, qoe):
    return SessionResult(scheme, video, user, "Pixel 3", network, [
        SegmentRecord(
            index=i, quality=3, frame_rate=30.0, size_mbit=2.0,
            download_time_s=0.5, wait_s=0.0, stall_s=0.0,
            buffer_before_s=2.0, coverage=0.9, qo_effective=qoe,
            qoe=SegmentQoE(qoe, 0.0, 0.0),
            energy=SegmentEnergy(energy_j, 0.0, 0.0),
            decode_scheme=TilingScheme.CTILE, used_ptile=False,
        )
        for i in range(4)
    ])


class TestBootstrapCI:
    def test_mean_and_bounds(self):
        rng = np.random.default_rng(1)
        data = rng.normal(10.0, 1.0, 200)
        ci = bootstrap_ci(data)
        assert ci.mean == pytest.approx(10.0, abs=0.3)
        assert ci.low < ci.mean < ci.high
        assert ci.contains(ci.mean)

    def test_deterministic(self):
        data = [1.0, 2.0, 3.0, 4.0]
        a = bootstrap_ci(data, seed=7)
        b = bootstrap_ci(data, seed=7)
        assert (a.low, a.high) == (b.low, b.high)

    def test_tighter_with_more_data(self):
        rng = np.random.default_rng(2)
        small = bootstrap_ci(rng.normal(0, 1, 10))
        large = bootstrap_ci(rng.normal(0, 1, 1000))
        assert (large.high - large.low) < (small.high - small.low)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.0)

    def test_report(self):
        line = bootstrap_ci([1.0, 2.0, 3.0]).report()
        assert "CI" in line and "n=3" in line


class TestPairedComparison:
    def _matched(self, delta):
        keys = [(1, u, "t2") for u in range(8)]
        a = [make_session("x", v, u, n, 2.0 + 0.1 * u, 50.0)
             for v, u, n in keys]
        b = [make_session("y", v, u, n, 2.0 + 0.1 * u - delta, 50.0)
             for v, u, n in keys]
        return a, b

    def test_clear_difference_significant(self):
        a, b = self._matched(delta=0.5)
        cmp = paired_comparison(a, b, metric="energy_per_segment_j")
        assert cmp.mean_diff == pytest.approx(0.5)
        assert cmp.significant

    def test_no_difference_not_significant(self):
        a, b = self._matched(delta=0.0)
        cmp = paired_comparison(a, b)
        assert cmp.mean_diff == pytest.approx(0.0)
        assert not cmp.significant

    def test_unmatched_rejected(self):
        a, b = self._matched(delta=0.1)
        with pytest.raises(ValueError):
            paired_comparison(a, b[:-1])

    def test_unknown_metric(self):
        a, b = self._matched(delta=0.1)
        with pytest.raises(KeyError):
            paired_comparison(a, b, metric="bogus")

    def test_report_format(self):
        a, b = self._matched(delta=0.2)
        line = paired_comparison(a, b).report()
        assert "Wilcoxon" in line and "diff" in line


class TestCompareSchemes:
    def test_over_matrix(self):
        matrix = {
            ("t2", "ctile", 1): [
                make_session("ctile", 1, u, "t2", 2.2, 50.0) for u in range(6)
            ],
            ("t2", "ours", 1): [
                make_session("ours", 1, u, "t2", 1.2, 49.0) for u in range(6)
            ],
        }
        cmp = compare_schemes(matrix, "ctile", "ours")
        assert cmp.mean_diff == pytest.approx(1.0)
        assert cmp.significant

    def test_missing_scheme(self):
        with pytest.raises(KeyError):
            compare_schemes({}, "a", "b")

    def test_real_matrix_energy_significance(
        self, small_dataset, manifest2, ptiles2, ftiles2, network_traces,
        device
    ):
        """On real sessions, Ours-vs-Ctile energy saving is significant
        across users."""
        from repro.core import OursScheme
        from repro.streaming import CtileScheme, run_session

        matrix = {}
        for name, scheme in (
            ("ctile", CtileScheme()), ("ours", OursScheme(device=device))
        ):
            matrix[("trace2", name, 2)] = [
                run_session(scheme, manifest2, head, network_traces[1],
                            device, ptiles=ptiles2, ftiles=ftiles2)
                for head in small_dataset.test_traces(2)
            ]
        cmp = compare_schemes(matrix, "ctile", "ours")
        assert cmp.mean_diff > 0  # Ctile costs more energy
        assert cmp.n_pairs == len(small_dataset.test_traces(2))
