"""Unit tests for session metrics aggregation."""

import pytest

from repro.power import SegmentEnergy, TilingScheme
from repro.qoe import SegmentQoE
from repro.experiments.fig9 import EnergyComparison
from repro.streaming import SegmentRecord, SessionResult, mean_sessions


def make_record(index=0, quality=3, stall=0.0, used_ptile=False,
                energy=(1.0, 0.5, 0.2), qo=80.0):
    return SegmentRecord(
        index=index,
        quality=quality,
        frame_rate=30.0,
        size_mbit=3.0,
        download_time_s=0.7,
        wait_s=0.0,
        stall_s=stall,
        buffer_before_s=2.0,
        coverage=0.9,
        qo_effective=qo,
        qoe=SegmentQoE(qo, 1.0, 0.0),
        energy=SegmentEnergy(*energy),
        decode_scheme=TilingScheme.CTILE,
        used_ptile=used_ptile,
    )


def make_session(n=4, **kwargs):
    session = SessionResult("ctile", 1, 0, "Pixel 3", "trace2")
    for i in range(n):
        session.add(make_record(index=i, **kwargs))
    return session


class TestSessionResult:
    def test_energy_totals(self):
        session = make_session(3)
        assert session.total_energy_j == pytest.approx(3 * 1.7)
        assert session.energy_per_segment_j == pytest.approx(1.7)

    def test_session_qoe(self):
        session = make_session(2)
        assert session.mean_qoe == pytest.approx(79.0)  # 80 - 1 variation

    def test_mean_statistics(self):
        session = make_session(5, quality=4)
        assert session.mean_quality_level == 4.0
        assert session.mean_frame_rate == 30.0
        assert session.mean_coverage == pytest.approx(0.9)

    def test_rebuffer_count_excludes_startup(self):
        session = SessionResult("c", 1, 0, "d", "n")
        session.add(make_record(index=0, stall=1.0))
        session.add(make_record(index=1, stall=0.5))
        session.add(make_record(index=2, stall=0.0))
        assert session.rebuffer_count == 1
        assert session.total_stall_s == pytest.approx(1.5)

    def test_ptile_hit_rate(self):
        session = SessionResult("p", 1, 0, "d", "n")
        session.add(make_record(index=0, used_ptile=True))
        session.add(make_record(index=1, used_ptile=False))
        assert session.ptile_hit_rate == 0.5

    def test_empty_session_guards(self):
        session = SessionResult("c", 1, 0, "d", "n")
        with pytest.raises(ValueError):
            session.energy_per_segment_j


class TestAggregation:
    def test_mean_sessions_keys(self):
        metrics = mean_sessions([make_session(), make_session()])
        for key in ("energy_j", "qoe", "quality_level", "rebuffer_count"):
            assert key in metrics

    def test_mean_sessions_values(self):
        a = make_session(2, energy=(1.0, 0.0, 0.0))
        b = make_session(2, energy=(3.0, 0.0, 0.0))
        metrics = mean_sessions([a, b])
        assert metrics["transmission_j"] == pytest.approx(4.0)
        assert metrics["energy_per_segment_j"] == pytest.approx(2.0)

    def test_mean_sessions_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_sessions([])

    # The paper normalizes energy and QoE by Ctile (Fig. 9(c), 11(c)).
    @staticmethod
    def _energy(per_scheme):
        return EnergyComparison(
            device_name="pixel3",
            per_video={("trace1", scheme, 1): value
                       for scheme, value in per_scheme.items()},
            breakdown={}, video_ids=(1,), traces=("trace1",),
            schemes=tuple(per_scheme),
        )

    def test_normalize_by(self):
        normalized = self._energy({"ctile": 10.0, "ours": 5.0}).normalized()
        assert normalized["ours"] == 0.5
        assert normalized["ctile"] == 1.0

    def test_normalize_missing_baseline(self):
        with pytest.raises(KeyError):
            self._energy({"ours": 1.0}).normalized()

    def test_normalize_zero_baseline(self):
        with pytest.raises(ZeroDivisionError):
            self._energy({"ctile": 0.0, "ours": 1.0}).normalized()
