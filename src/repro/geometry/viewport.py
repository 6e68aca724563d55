"""Viewport (viewing area) geometry on the equirectangular frame.

The paper models the viewing area as the rectangle on the
equirectangular frame centered at the user's viewing center and spanning
the device Field-of-View, which is 100 degrees both horizontally and
vertically (Section II).  The horizontal axis wraps around at 360
degrees; the vertical axis is clamped to the frame.

A :class:`Viewport` therefore consists of one or two non-wrapping
rectangles (two when the viewport straddles the yaw seam).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import fold_sum

__all__ = ["Rect", "Viewport", "DEFAULT_FOV_DEG"]

DEFAULT_FOV_DEG = 100.0
"""Device field of view used throughout the paper (100 degrees H and V)."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle on the equirectangular frame (degrees).

    ``x0 <= x1`` always holds; rectangles produced by
    :meth:`Viewport.rects` never wrap around the yaw seam.  ``y`` follows
    pitch: ``y0`` is the bottom edge and ``y1`` the top edge.
    """

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError(f"degenerate rectangle {self}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, x: float, y: float) -> bool:
        """Whether the point lies inside the rectangle (closed)."""
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def overlaps(self, other: "Rect") -> bool:
        """Whether two rectangles share a region of positive area."""
        return (
            self.x0 < other.x1
            and other.x0 < self.x1
            and self.y0 < other.y1
            and other.y0 < self.y1
        )

    def intersection_area(self, other: "Rect") -> float:
        """Area of overlap with another rectangle (0 when disjoint)."""
        dx = min(self.x1, other.x1) - max(self.x0, other.x0)
        dy = min(self.y1, other.y1) - max(self.y0, other.y0)
        if dx <= 0 or dy <= 0:
            return 0.0
        return dx * dy


@dataclass(frozen=True)
class Viewport:
    """A user viewport: viewing center plus field of view.

    ``yaw`` is normalized to ``[0, 360)`` and ``pitch`` clamped to
    ``[-90, 90]`` at construction time.
    """

    yaw: float
    pitch: float
    fov_h: float = DEFAULT_FOV_DEG
    fov_v: float = DEFAULT_FOV_DEG

    def __post_init__(self) -> None:
        if not (0.0 < self.fov_h <= 360.0) or not (0.0 < self.fov_v <= 180.0):
            raise ValueError(f"invalid FoV ({self.fov_h}, {self.fov_v})")
        object.__setattr__(self, "yaw", self.yaw % 360.0)
        object.__setattr__(self, "pitch", max(-90.0, min(90.0, self.pitch)))

    @property
    def center(self) -> tuple[float, float]:
        return (self.yaw, self.pitch)

    def rects(self) -> tuple[Rect, ...]:
        """The viewing area as one or two non-wrapping rectangles.

        The vertical span is clamped to the frame; the horizontal span is
        split in two when the viewport crosses the yaw seam at 0/360.
        """
        y0 = max(-90.0, self.pitch - self.fov_v / 2.0)
        y1 = min(90.0, self.pitch + self.fov_v / 2.0)
        x0 = self.yaw - self.fov_h / 2.0
        x1 = self.yaw + self.fov_h / 2.0
        if self.fov_h >= 360.0:
            return (Rect(0.0, y0, 360.0, y1),)
        if x0 < 0.0:
            return (Rect(0.0, y0, x1, y1), Rect(x0 + 360.0, y0, 360.0, y1))
        if x1 > 360.0:
            return (Rect(x0, y0, 360.0, y1), Rect(0.0, y0, x1 - 360.0, y1))
        return (Rect(x0, y0, x1, y1),)

    def contains(self, yaw: float, pitch: float) -> bool:
        """Whether a direction falls inside the viewing area."""
        yaw = yaw % 360.0
        return any(r.contains(yaw, pitch) for r in self.rects())

    @property
    def area(self) -> float:
        """Viewing-area size in square degrees (after vertical clamping)."""
        return fold_sum(r.area for r in self.rects())

    def area_fraction(self) -> float:
        """Fraction of the full equirectangular frame the viewport covers."""
        return self.area / (360.0 * 180.0)
