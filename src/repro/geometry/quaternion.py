"""Quaternion utilities for head-orientation data.

Real VR head-movement datasets (including the Wu et al. MMSys'17
dataset the paper uses) log headset orientation as unit quaternions.
This module converts between quaternions and the (yaw, pitch) viewing
directions the rest of the library works with.

Convention: quaternions are ``(w, x, y, z)`` with the scalar first,
rotating the world-frame forward vector (+x towards yaw 0 on the
equator, +z up — the same frame as :mod:`repro.geometry.sphere`).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .sphere import orientation_angles

__all__ = [
    "quaternion_normalize",
    "quaternion_multiply",
    "quaternion_conjugate",
    "quaternion_rotate",
    "quaternion_to_direction",
    "quaternion_to_angles",
    "angles_to_quaternion",
]

_FORWARD = np.array([1.0, 0.0, 0.0])


def quaternion_normalize(q: Sequence[float]) -> np.ndarray:
    """Normalize to a unit quaternion; rejects the zero quaternion."""
    arr = np.asarray(q, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"quaternion must have 4 components, got {arr.shape}")
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("zero quaternion cannot be normalized")
    return arr / norm


def quaternion_multiply(a: Sequence[float], b: Sequence[float]) -> np.ndarray:
    """Hamilton product ``a * b`` (w, x, y, z convention)."""
    w1, x1, y1, z1 = np.asarray(a, dtype=float)
    w2, x2, y2, z2 = np.asarray(b, dtype=float)
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def quaternion_conjugate(q: Sequence[float]) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=float)
    return np.array([w, -x, -y, -z])


def quaternion_rotate(q: Sequence[float], v: Sequence[float]) -> np.ndarray:
    """Rotate a 3-vector by a unit quaternion."""
    q = quaternion_normalize(q)
    vq = np.array([0.0, *np.asarray(v, dtype=float)])
    rotated = quaternion_multiply(
        quaternion_multiply(q, vq), quaternion_conjugate(q)
    )
    return rotated[1:]


def quaternion_to_direction(q: Sequence[float]) -> np.ndarray:
    """The world-frame viewing direction of a head orientation."""
    return quaternion_rotate(q, _FORWARD)


def quaternion_to_angles(q: Sequence[float]) -> tuple[float, float]:
    """(yaw, pitch) in degrees of the quaternion's viewing direction."""
    return orientation_angles(quaternion_to_direction(q))


def angles_to_quaternion(yaw: float, pitch: float) -> np.ndarray:
    """A quaternion looking at (yaw, pitch): yaw about +z then pitch.

    Only the viewing direction is constrained (roll is zero), matching
    how viewing-center traces discard roll.
    """
    half_yaw = math.radians(yaw) / 2.0
    half_pitch = math.radians(-pitch) / 2.0  # pitch up = negative about +y
    q_yaw = np.array([math.cos(half_yaw), 0.0, 0.0, math.sin(half_yaw)])
    q_pitch = np.array([math.cos(half_pitch), 0.0, math.sin(half_pitch), 0.0])
    return quaternion_multiply(q_yaw, q_pitch)

