"""Unit tests for quaternion utilities."""

import numpy as np
import pytest

from repro.geometry import (
    angles_to_quaternion,
    quaternion_conjugate,
    quaternion_multiply,
    quaternion_normalize,
    quaternion_rotate,
    quaternion_to_angles,
    quaternion_to_direction,
)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


class TestBasics:
    def test_normalize(self):
        q = quaternion_normalize([2.0, 0.0, 0.0, 0.0])
        assert np.allclose(q, IDENTITY)

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            quaternion_normalize([0.0, 0.0, 0.0, 0.0])

    def test_normalize_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            quaternion_normalize([1.0, 0.0, 0.0])

    def test_multiply_identity(self):
        q = quaternion_normalize([0.7, 0.1, -0.3, 0.2])
        assert np.allclose(quaternion_multiply(IDENTITY, q), q)
        assert np.allclose(quaternion_multiply(q, IDENTITY), q)

    def test_conjugate_inverts_rotation(self):
        q = angles_to_quaternion(40.0, 20.0)
        product = quaternion_multiply(q, quaternion_conjugate(q))
        assert np.allclose(product, IDENTITY, atol=1e-12)


class TestRotation:
    def test_identity_rotation(self):
        v = quaternion_rotate(IDENTITY, [1.0, 2.0, 3.0])
        assert np.allclose(v, [1.0, 2.0, 3.0])

    def test_yaw_90(self):
        q = angles_to_quaternion(90.0, 0.0)
        v = quaternion_rotate(q, [1.0, 0.0, 0.0])
        assert np.allclose(v, [0.0, 1.0, 0.0], atol=1e-12)

    def test_pitch_90_looks_up(self):
        q = angles_to_quaternion(0.0, 90.0)
        v = quaternion_rotate(q, [1.0, 0.0, 0.0])
        assert np.allclose(v, [0.0, 0.0, 1.0], atol=1e-12)

    def test_rotation_preserves_norm(self):
        q = angles_to_quaternion(123.0, -45.0)
        v = quaternion_rotate(q, [0.3, -0.4, 0.5])
        assert np.linalg.norm(v) == pytest.approx(np.linalg.norm([0.3, -0.4, 0.5]))


class TestAngleRoundTrip:
    @pytest.mark.parametrize(
        "yaw,pitch",
        [(0.0, 0.0), (90.0, 0.0), (200.0, 45.0), (359.0, -80.0), (45.0, 30.0)],
    )
    def test_round_trip(self, yaw, pitch):
        q = angles_to_quaternion(yaw, pitch)
        yaw2, pitch2 = quaternion_to_angles(q)
        assert yaw2 == pytest.approx(yaw, abs=1e-6)
        assert pitch2 == pytest.approx(pitch, abs=1e-6)

    def test_direction_is_unit(self):
        d = quaternion_to_direction(angles_to_quaternion(77.0, -12.0))
        assert np.linalg.norm(d) == pytest.approx(1.0)

    def test_unnormalized_input_tolerated(self):
        q = 3.0 * angles_to_quaternion(10.0, 20.0)
        yaw, pitch = quaternion_to_angles(q)
        assert yaw == pytest.approx(10.0, abs=1e-6)
        assert pitch == pytest.approx(20.0, abs=1e-6)
