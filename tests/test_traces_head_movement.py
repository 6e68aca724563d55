"""Unit tests for head-movement traces."""

import numpy as np
import pytest

from repro.traces import HeadTrace


def make_trace(yaws, pitches=None, dt=0.1, user_id=0, video_id=1):
    n = len(yaws)
    return HeadTrace(
        user_id=user_id,
        video_id=video_id,
        timestamps=np.arange(n) * dt,
        yaw_unwrapped=np.asarray(yaws, dtype=float),
        pitch=np.asarray(
            pitches if pitches is not None else np.zeros(n), dtype=float
        ),
    )


class TestValidation:
    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            make_trace([0.0])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            HeadTrace(0, 1, np.array([0.0, 0.1]), np.array([0.0]), np.array([0.0, 0.0]))

    def test_non_increasing_timestamps(self):
        with pytest.raises(ValueError):
            HeadTrace(
                0, 1, np.array([0.0, 0.0]), np.zeros(2), np.zeros(2)
            )

    def test_pitch_bounds(self):
        with pytest.raises(ValueError):
            make_trace([0.0, 1.0], [0.0, 100.0])


class TestAccessors:
    def test_basic_properties(self):
        trace = make_trace(np.arange(20.0))
        assert trace.num_samples == 20
        assert trace.duration_s == pytest.approx(1.9)

    def test_yaw_wrapped(self):
        trace = make_trace([350.0, 370.0, 390.0])
        assert np.allclose(trace.yaw_wrapped, [350.0, 10.0, 30.0])

    def test_orientation_interpolation(self):
        trace = make_trace([0.0, 10.0])
        yaw, pitch = trace.orientation_at(0.05)
        assert yaw == pytest.approx(5.0)

    def test_orientation_interpolates_across_seam(self):
        # Unwrapped storage: 350 -> 370 passes through 360, i.e. 0.
        trace = make_trace([350.0, 370.0])
        yaw, _ = trace.orientation_at(0.05)
        assert yaw == pytest.approx(0.0)

    def test_orientation_clamps_time(self):
        trace = make_trace([0.0, 10.0])
        assert trace.orientation_at(-5.0)[0] == pytest.approx(0.0)
        assert trace.orientation_at(99.0)[0] == pytest.approx(10.0)

    def test_viewport_at(self):
        trace = make_trace([100.0, 100.0], [5.0, 5.0])
        vp = trace.viewport_at(0.05)
        assert vp.yaw == pytest.approx(100.0)
        assert vp.pitch == pytest.approx(5.0)

    def test_segment_center(self):
        trace = make_trace(np.linspace(0, 30, 31), dt=0.1)
        yaw, _ = trace.segment_center(0, segment_seconds=1.0)
        assert yaw == pytest.approx(5.0)

    def test_segment_center_negative_rejected(self):
        trace = make_trace([0.0, 1.0])
        with pytest.raises(ValueError):
            trace.segment_center(-1)


class TestKinematics:
    def test_switching_speeds_constant_motion(self):
        trace = make_trace(np.arange(0, 10, 1.0), dt=0.1)  # 10 deg/s
        speeds = trace.switching_speeds()
        assert np.allclose(speeds, 10.0, atol=0.05)

    def test_mean_speed_in_window(self):
        trace = make_trace(np.arange(0, 20, 1.0), dt=0.1)
        assert trace.speed_quantile_in(0.0, 1.0, quantile=None) == pytest.approx(10.0, abs=0.1)

    def test_speed_quantile(self):
        # Half slow, half fast within the window.
        yaws = np.concatenate([np.arange(0, 5, 0.5), np.arange(5, 25, 2.0)])
        trace = make_trace(yaws, dt=0.1)
        p75 = trace.speed_quantile_in(0.0, 2.0, quantile=0.75)
        mean = trace.speed_quantile_in(0.0, 2.0, quantile=None)
        assert p75 > mean

    def test_window_between_samples_falls_back(self):
        trace = make_trace([0.0, 10.0, 20.0], dt=5.0)
        speed = trace.speed_quantile_in(1.0, 1.5, quantile=None)
        assert speed > 0

    def test_invalid_window(self):
        trace = make_trace([0.0, 1.0])
        with pytest.raises(ValueError):
            trace.speed_quantile_in(1.0, 1.0, quantile=None)

    def test_invalid_quantile(self):
        trace = make_trace([0.0, 1.0])
        with pytest.raises(ValueError):
            trace.speed_quantile_in(0.0, 1.0, quantile=1.5)


class TestPersistence:
    def test_csv_round_trip(self, tmp_path):
        trace = make_trace([350.0, 365.0, 380.0], [1.0, 2.0, 3.0])
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        loaded = HeadTrace.from_csv(path, user_id=7, video_id=3)
        assert loaded.user_id == 7
        assert loaded.video_id == 3
        assert np.allclose(loaded.yaw_wrapped, trace.yaw_wrapped, atol=1e-5)
        assert np.allclose(loaded.pitch, trace.pitch, atol=1e-5)

    def test_round_trip_preserves_speeds(self, tmp_path):
        rng = np.random.default_rng(5)
        yaws = np.cumsum(rng.normal(0, 3, 60))
        trace = make_trace(yaws, rng.uniform(-40, 40, 60))
        trace.to_csv(tmp_path / "trace.csv")
        loaded = HeadTrace.from_csv(tmp_path / "trace.csv")
        assert np.allclose(
            loaded.switching_speeds(), trace.switching_speeds(), atol=1e-3
        )

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            HeadTrace.from_csv_string("a,b,c\n1,2,3\n4,5,6")

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            HeadTrace.from_csv_string("t,yaw,pitch\n0,0,0")
