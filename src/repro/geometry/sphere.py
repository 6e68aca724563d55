"""Spherical geometry for 360-degree video viewing directions.

A viewing direction is described either as a pair of angles
``(yaw, pitch)`` in degrees or as a 3D unit *orientation vector*.

* ``yaw`` (longitude) is the horizontal angle in ``[0, 360)`` degrees,
  increasing eastwards, with 0 at the center of the equirectangular frame.
* ``pitch`` (latitude) is the vertical angle in ``[-90, +90]`` degrees,
  positive above the equator.

The paper (Section III-C, Eq. 5) computes the *view switching speed* from
consecutive orientation vectors::

    S_fov = arccos(o1 . o2 / (|o1| |o2|)) / (t2 - t1)

expressed in degrees per second.  This module provides the orientation
vector conversion, equirectangular distances, and vectorized
switching-speed computation used throughout the library (great-circle
distances between directions are
:func:`repro.prediction.uncertainty.angular_distance_deg`).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "orientation_vector",
    "orientation_angles",
    "equirect_distance",
    "switching_speed_series",
]


def orientation_vector(yaw: float, pitch: float) -> np.ndarray:
    """Convert ``(yaw, pitch)`` in degrees to a 3D unit orientation vector.

    The convention is x towards ``yaw=0`` on the equator, y towards
    ``yaw=90`` on the equator, and z towards the north pole
    (``pitch=+90``).

    >>> orientation_vector(0.0, 0.0)
    array([1., 0., 0.])
    """
    yaw_rad = math.radians(yaw)
    pitch_rad = math.radians(pitch)
    cos_pitch = math.cos(pitch_rad)
    return np.array(
        [
            cos_pitch * math.cos(yaw_rad),
            cos_pitch * math.sin(yaw_rad),
            math.sin(pitch_rad),
        ]
    )


def orientation_angles(vector: Sequence[float]) -> tuple[float, float]:
    """Convert a 3D orientation vector back to ``(yaw, pitch)`` degrees.

    The vector does not need to be normalized.  Raises ``ValueError`` for
    the zero vector, which has no direction.
    """
    x, y, z = float(vector[0]), float(vector[1]), float(vector[2])
    norm = math.sqrt(x * x + y * y + z * z)
    if norm == 0.0:
        raise ValueError("zero vector has no orientation")
    pitch = math.degrees(math.asin(max(-1.0, min(1.0, z / norm))))
    yaw = math.degrees(math.atan2(y, x)) % 360.0
    return yaw, pitch


def equirect_distance(
    yaw1: float, pitch1: float, yaw2: float, pitch2: float
) -> float:
    """Euclidean distance (degrees) between two viewing centers.

    Distances between viewing centers in the Ptile clustering algorithm
    (Section IV-A) are planar Euclidean distances on the equirectangular
    frame; the horizontal axis wraps around at 360 degrees so that two
    users looking across the seam are still considered close.
    """
    dyaw = abs(yaw1 % 360.0 - yaw2 % 360.0)
    dyaw = min(dyaw, 360.0 - dyaw)
    dpitch = pitch1 - pitch2
    return math.hypot(dyaw, dpitch)


def switching_speed_series(
    timestamps: Iterable[float],
    yaws: Iterable[float],
    pitches: Iterable[float],
) -> np.ndarray:
    """Vectorized switching speed for a sampled head-orientation series.

    Returns an array of length ``n - 1`` where element ``i`` is the
    switching speed between samples ``i`` and ``i + 1`` in degrees per
    second.  Raises ``ValueError`` if the series is shorter than two
    samples or timestamps are not strictly increasing.
    """
    t = np.asarray(list(timestamps), dtype=float)
    yaw = np.radians(np.asarray(list(yaws), dtype=float))
    pitch = np.radians(np.asarray(list(pitches), dtype=float))
    if t.size < 2:
        raise ValueError("need at least two samples")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise ValueError("timestamps must be strictly increasing")

    cos_pitch = np.cos(pitch)
    vecs = np.stack(
        [cos_pitch * np.cos(yaw), cos_pitch * np.sin(yaw), np.sin(pitch)],
        axis=1,
    )
    dots = np.clip(np.sum(vecs[:-1] * vecs[1:], axis=1), -1.0, 1.0)
    angles = np.degrees(np.arccos(dots))
    return angles / dt
