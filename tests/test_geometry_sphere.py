"""Unit tests for spherical geometry (orientation vectors, Eq. 5)."""

import math

import numpy as np
import pytest

from repro.geometry import (
    Viewport,
    equirect_distance,
    orientation_angles,
    orientation_vector,
    switching_speed_series,
)
from repro.prediction import angular_distance_deg
from repro.traces import HeadTrace


def _speed(yaw1, pitch1, t1, yaw2, pitch2, t2) -> float:
    """Eq. 5 switching speed between two samples."""
    return float(switching_speed_series([t1, t2], [yaw1, yaw2],
                                        [pitch1, pitch2])[0])


class TestWrapClamp:
    """Yaw wraps into [0, 360) and pitch stays in [-90, 90]."""

    def test_wrap_yaw_basic(self):
        assert Viewport(370.0, 0.0).yaw == pytest.approx(10.0)
        assert Viewport(-10.0, 0.0).yaw == pytest.approx(350.0)
        assert Viewport(0.0, 0.0).yaw == 0.0

    def test_wrap_yaw_array(self):
        trace = HeadTrace(user_id=0, video_id=1, timestamps=[0.0, 1.0],
                          yaw_unwrapped=[-90.0, 450.0], pitch=[0.0, 0.0])
        assert np.allclose(trace.yaw_wrapped, [270.0, 90.0])

    def test_clamp_pitch_scalar(self):
        assert Viewport(0.0, 95.0).pitch == 90.0
        assert Viewport(0.0, -95.0).pitch == -90.0
        assert Viewport(0.0, 42.0).pitch == 42.0

    def test_clamp_pitch_array(self):
        # Traces reject out-of-range pitch instead of clamping it.
        with pytest.raises(ValueError, match="pitch"):
            HeadTrace(user_id=0, video_id=1, timestamps=[0.0, 1.0],
                      yaw_unwrapped=[0.0, 0.0], pitch=[-120.0, 120.0])


class TestOrientationVector:
    def test_axes(self):
        assert np.allclose(orientation_vector(0, 0), [1, 0, 0])
        assert np.allclose(orientation_vector(90, 0), [0, 1, 0], atol=1e-12)
        assert np.allclose(orientation_vector(0, 90), [0, 0, 1], atol=1e-12)

    def test_unit_norm(self):
        for yaw, pitch in [(37.0, 12.0), (200.0, -60.0), (359.0, 89.0)]:
            assert np.linalg.norm(orientation_vector(yaw, pitch)) == pytest.approx(1.0)

    def test_round_trip(self):
        for yaw, pitch in [(12.0, 34.0), (340.0, -75.0), (180.0, 0.0)]:
            vec = orientation_vector(yaw, pitch)
            yaw2, pitch2 = orientation_angles(vec)
            assert yaw2 == pytest.approx(yaw, abs=1e-9)
            assert pitch2 == pytest.approx(pitch, abs=1e-9)

    def test_round_trip_unnormalized(self):
        vec = 3.7 * orientation_vector(100.0, -20.0)
        yaw, pitch = orientation_angles(vec)
        assert yaw == pytest.approx(100.0)
        assert pitch == pytest.approx(-20.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            orientation_angles([0.0, 0.0, 0.0])


class TestAngularDistance:
    def test_identical_is_zero(self):
        assert angular_distance_deg(45.0, 10.0, 45.0, 10.0) == pytest.approx(0.0, abs=1e-5)

    def test_quarter_turn(self):
        assert angular_distance_deg(0.0, 0.0, 90.0, 0.0) == pytest.approx(90.0)

    def test_antipodal(self):
        assert angular_distance_deg(0.0, 0.0, 180.0, 0.0) == pytest.approx(180.0)

    def test_pole_distance(self):
        assert angular_distance_deg(0.0, 0.0, 0.0, 90.0) == pytest.approx(90.0)

    def test_symmetric(self):
        d1 = angular_distance_deg(10.0, 20.0, 200.0, -40.0)
        d2 = angular_distance_deg(200.0, -40.0, 10.0, 20.0)
        assert d1 == pytest.approx(d2)

    def test_yaw_irrelevant_at_pole(self):
        # Both directions are the north pole regardless of yaw.
        assert angular_distance_deg(0.0, 90.0, 123.0, 90.0) == pytest.approx(0.0)


class TestEquirectDistance:
    def test_plain(self):
        assert equirect_distance(10.0, 0.0, 40.0, 0.0) == pytest.approx(30.0)

    def test_wraps_horizontally(self):
        assert equirect_distance(355.0, 0.0, 5.0, 0.0) == pytest.approx(10.0)

    def test_pythagoras(self):
        assert equirect_distance(0.0, 0.0, 3.0, 4.0) == pytest.approx(5.0)

    def test_never_exceeds_half_width(self):
        assert equirect_distance(0.0, 0.0, 180.0, 0.0) == pytest.approx(180.0)
        assert equirect_distance(0.0, 0.0, 181.0, 0.0) == pytest.approx(179.0)


class TestSwitchingSpeed:
    def test_eq5_basic(self):
        # 90 degrees in half a second = 180 deg/s.
        assert _speed(0, 0, 0.0, 90, 0, 0.5) == pytest.approx(180.0)

    def test_zero_for_static_view(self):
        assert _speed(30, 10, 0.0, 30, 10, 1.0) == pytest.approx(0.0)

    def test_rejects_non_increasing_time(self):
        with pytest.raises(ValueError):
            _speed(0, 0, 1.0, 10, 0, 1.0)

    def test_series_matches_scalar(self):
        t = [0.0, 0.1, 0.2]
        yaw = [0.0, 1.0, 3.0]
        pitch = [0.0, 0.0, 0.0]
        series = switching_speed_series(t, yaw, pitch)
        # Eq. 5: great-circle angle over elapsed time, sample by sample.
        assert series[0] == pytest.approx(angular_distance_deg(0, 0, 1, 0) / 0.1)
        assert series[1] == pytest.approx(angular_distance_deg(1, 0, 3, 0) / 0.1)

    def test_series_handles_seam(self):
        # 359 -> 1 degree is a 2-degree move, not 358.
        series = switching_speed_series([0.0, 0.1], [359.0, 1.0], [0.0, 0.0])
        assert series[0] == pytest.approx(20.0, rel=1e-6)

    def test_series_requires_two_samples(self):
        with pytest.raises(ValueError):
            switching_speed_series([0.0], [0.0], [0.0])

    def test_series_rejects_unordered_times(self):
        with pytest.raises(ValueError):
            switching_speed_series([0.0, 0.0], [0.0, 1.0], [0.0, 0.0])

    def test_series_non_negative(self):
        rng = np.random.default_rng(3)
        t = np.cumsum(rng.uniform(0.05, 0.2, 50))
        yaw = rng.uniform(0, 360, 50)
        pitch = rng.uniform(-90, 90, 50)
        assert np.all(switching_speed_series(t, yaw, pitch) >= 0)
