"""Equirectangular projection and gnomonic view generation, as a test
reference.

After decoding, a 360-degree player generates the displayed view by
mapping display pixels back onto the equirectangular frame from the head
orientation ("drawing the pixel values onto the display", paper
Section II).  This module implements that coordinate mapping: the
gnomonic (perspective) projection real players use, plus pixel/angle
conversions for the equirectangular frame.

Nothing in the library renders views; tests use this ray-cast mapping as
an independent check of the rectangle geometry the library plans with,
e.g. that a Ptile covering the predicted viewport contains the pixels
the renderer samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry.viewport import Viewport

__all__ = ["EquirectFrame", "ViewRenderer"]


@dataclass(frozen=True)
class EquirectFrame:
    """Pixel-space description of an equirectangular video frame.

    The paper's test videos are 4K (3840x2160), i.e. 10.67 pixels per
    degree horizontally and 12 vertically.
    """

    width_px: int = 3840
    height_px: int = 2160

    def __post_init__(self) -> None:
        if self.width_px < 2 or self.height_px < 2:
            raise ValueError("frame must be at least 2x2 pixels")

    def pixel_to_angles(self, px: float, py: float) -> tuple[float, float]:
        """Map a pixel (origin top-left) to ``(yaw, pitch)`` degrees."""
        yaw = (px / self.width_px) * 360.0 % 360.0
        pitch = 90.0 - (py / self.height_px) * 180.0
        return yaw, max(-90.0, min(90.0, pitch))

    def angles_to_pixel(self, yaw: float, pitch: float) -> tuple[float, float]:
        """Map ``(yaw, pitch)`` degrees to a pixel position."""
        px = (yaw % 360.0) / 360.0 * self.width_px
        py = (90.0 - max(-90.0, min(90.0, pitch))) / 180.0 * self.height_px
        return px, py

    @property
    def pixels_per_sq_degree(self) -> float:
        return (self.width_px * self.height_px) / (360.0 * 180.0)


class ViewRenderer:
    """Gnomonic view generation from an equirectangular frame.

    Produces, for each display pixel, the ``(yaw, pitch)`` direction it
    samples.  This is the coordinate-mapping half of view generation; the
    energy cost of executing it on a phone GPU is captured separately by
    the power model (``repro.power``).
    """

    def __init__(self, display_width: int = 256, display_height: int = 256):
        if display_width < 2 or display_height < 2:
            raise ValueError("display must be at least 2x2 pixels")
        self.display_width = display_width
        self.display_height = display_height

    def sample_directions(self, viewport: Viewport) -> np.ndarray:
        """Directions sampled by each display pixel.

        Returns an array of shape ``(display_height, display_width, 2)``
        holding ``(yaw, pitch)`` in degrees for every display pixel under
        a gnomonic projection centered on the viewport.
        """
        half_h = math.tan(math.radians(viewport.fov_h / 2.0))
        half_v = math.tan(math.radians(viewport.fov_v / 2.0))
        xs = np.linspace(-half_h, half_h, self.display_width)
        ys = np.linspace(half_v, -half_v, self.display_height)
        grid_x, grid_y = np.meshgrid(xs, ys)

        # Camera-space rays: +x forward, +y left, +z up.
        rays = np.stack([np.ones_like(grid_x), -grid_x, grid_y], axis=-1)
        rays /= np.linalg.norm(rays, axis=-1, keepdims=True)

        yaw0 = math.radians(viewport.yaw)
        pitch0 = math.radians(viewport.pitch)
        # Rotate by pitch about the y axis, then by yaw about z.
        rot_pitch = np.array(
            [
                [math.cos(pitch0), 0.0, -math.sin(pitch0)],
                [0.0, 1.0, 0.0],
                [math.sin(pitch0), 0.0, math.cos(pitch0)],
            ]
        )
        rot_yaw = np.array(
            [
                [math.cos(yaw0), -math.sin(yaw0), 0.0],
                [math.sin(yaw0), math.cos(yaw0), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        world = rays @ rot_pitch.T @ rot_yaw.T

        yaw = np.degrees(np.arctan2(world[..., 1], world[..., 0])) % 360.0
        pitch = np.degrees(np.arcsin(np.clip(world[..., 2], -1.0, 1.0)))
        return np.stack([yaw, pitch], axis=-1)

    def coverage_fraction(self, viewport: Viewport, region_contains) -> float:
        """Fraction of display pixels whose source direction satisfies
        ``region_contains(yaw, pitch)``.

        Used to check how much of a rendered view a downloaded region
        (e.g. a Ptile) can actually supply.
        """
        directions = self.sample_directions(viewport)
        flat = directions.reshape(-1, 2)
        hits = sum(1 for yaw, pitch in flat if region_contains(yaw, pitch))
        return hits / len(flat)
