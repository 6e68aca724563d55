"""Probabilistic viewport coverage under FoV-prediction uncertainty.

The point predictor in :mod:`repro.prediction.viewport` outputs a single
viewing center; every deterministic scheme then bets the whole segment
on it.  This module turns that point into a *distribution* over viewing
centers — a Gaussian kernel in great-circle angular distance, discretized
on the tile-center grid — and derives from it what robust planning
needs: the **expected viewport coverage** of a candidate high-quality
region (the probability-weighted average of the deterministic coverage
the region would achieve at each hypothesized center).

This follows Ghosh et al. ("A Robust Algorithm for Tile-based 360-degree
Video Streaming with Uncertain FoV Estimation"): enumerate FoV
hypotheses, weight them by the prediction-error distribution, and score
tile selections in expectation.  :class:`PanoWeight` adds the optional
Pano-style perceptual weight (viewers attend less to the poles, so
polar hypotheses matter less).

Everything here is pure geometry + numpy on memoized per-grid tensors;
there is no randomness, so identical inputs give bit-identical outputs
across processes and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..geometry.tiling import TileGrid
from ..geometry.viewport import DEFAULT_FOV_DEG, Rect, Viewport

__all__ = [
    "HypothesisGrid",
    "PanoWeight",
    "angular_distance_deg",
    "coverage_profile",
    "deterministic_coverage",
    "expected_coverage",
    "hypothesis_grid",
    "hypothesis_weights",
]


def angular_distance_deg(yaw_a, pitch_a, yaw_b, pitch_b):
    """Great-circle angular distance between directions, in degrees.

    Accepts scalars or broadcastable arrays; yaw wraparound is handled
    by the spherical formula (only the yaw *difference* enters, through
    its cosine).
    """
    ya = np.radians(np.asarray(yaw_a, dtype=float))
    pa = np.radians(np.asarray(pitch_a, dtype=float))
    yb = np.radians(np.asarray(yaw_b, dtype=float))
    pb = np.radians(np.asarray(pitch_b, dtype=float))
    cos_d = np.sin(pa) * np.sin(pb) + np.cos(pa) * np.cos(pb) * np.cos(ya - yb)
    d = np.degrees(np.arccos(np.clip(cos_d, -1.0, 1.0)))
    if d.ndim == 0:
        return float(d)
    return d


@dataclass(frozen=True)
class HypothesisGrid:
    """Memoized FoV-hypothesis set for one (tile grid, FoV) pair.

    One hypothesis per tile, centered on the tile: for the paper's 4x8
    grid that is 32 candidate viewing centers, dense enough that every
    tile can be the argmax of the weight kernel.  The per-hypothesis
    viewport rectangles are pre-split at the yaw seam and stored as a
    padded ``(T, 2, 4)`` coordinate tensor so coverage against a
    candidate high-quality region vectorizes over all hypotheses at
    once.
    """

    rows: int
    cols: int
    fov_h: float
    fov_v: float
    centers_yaw: np.ndarray = field(repr=False)
    centers_pitch: np.ndarray = field(repr=False)
    viewports: tuple[Viewport, ...] = field(repr=False)
    rect_coords: np.ndarray = field(repr=False)  # (T, 2, 4): x0, y0, x1, y1
    areas: np.ndarray = field(repr=False)  # (T,) viewing areas (sq. deg)

    @property
    def num_hypotheses(self) -> int:
        return int(self.centers_yaw.size)


_HYPOTHESIS_CACHE: dict[tuple[int, int, float, float], HypothesisGrid] = {}


def hypothesis_grid(
    grid: TileGrid,
    fov_h: float = DEFAULT_FOV_DEG,
    fov_v: float = DEFAULT_FOV_DEG,
) -> HypothesisGrid:
    """The (memoized) hypothesis set for a tile grid and field of view."""
    key = (grid.rows, grid.cols, float(fov_h), float(fov_v))
    cached = _HYPOTHESIS_CACHE.get(key)
    if cached is not None:
        return cached

    count = grid.num_tiles
    centers_yaw = np.empty(count)
    centers_pitch = np.empty(count)
    viewports: list[Viewport] = []
    rect_coords = np.zeros((count, 2, 4))
    areas = np.empty(count)
    for i, tile in enumerate(grid.tiles()):
        rect = grid.tile_rect(tile)
        yaw = rect.x0 + grid.tile_width / 2.0
        pitch = rect.y1 - grid.tile_height / 2.0
        viewport = Viewport(yaw, pitch, fov_h, fov_v)
        centers_yaw[i] = viewport.yaw
        centers_pitch[i] = viewport.pitch
        viewports.append(viewport)
        for r, vrect in enumerate(viewport.rects()):
            rect_coords[i, r] = (vrect.x0, vrect.y0, vrect.x1, vrect.y1)
        areas[i] = viewport.area

    built = HypothesisGrid(
        rows=grid.rows,
        cols=grid.cols,
        fov_h=float(fov_h),
        fov_v=float(fov_v),
        centers_yaw=centers_yaw,
        centers_pitch=centers_pitch,
        viewports=tuple(viewports),
        rect_coords=rect_coords,
        areas=areas,
    )
    _HYPOTHESIS_CACHE[key] = built
    return built


def hypothesis_weights(
    hyp: HypothesisGrid, yaw: float, pitch: float, sigma_deg: float
) -> np.ndarray:
    """Normalized hypothesis probabilities around a predicted center.

    A Gaussian kernel in great-circle distance:
    ``w_c  proportional to  exp(-0.5 * (d_c / sigma)^2)``, shifted by the
    max exponent before exponentiation so small sigmas never underflow
    to an all-zero vector.  Strictly decreasing in ``d_c``, sums to 1.
    """
    if sigma_deg <= 0.0:
        raise ValueError("sigma must be positive; sigma=0 is the point path")
    d = angular_distance_deg(yaw, pitch, hyp.centers_yaw, hyp.centers_pitch)
    z = -0.5 * np.square(d / float(sigma_deg))
    w = np.exp(z - z.max())
    return w / w.sum()


def deterministic_coverage(
    viewport: Viewport, hq_rects: Sequence[Rect]
) -> float:
    """Fraction of a viewport covered by a high-quality region.

    The scalar reference for :func:`coverage_profile`; mirrors the
    session's delivered-coverage accounting
    (:meth:`repro.streaming.schemes.DownloadPlan.coverage_of`).
    """
    area = viewport.area
    if area <= 0.0:
        return 0.0
    covered = 0.0
    for vrect in viewport.rects():
        for hq in hq_rects:
            covered += vrect.intersection_area(hq)
    return min(covered / area, 1.0)


def coverage_profile(
    hyp: HypothesisGrid, hq_rects: Sequence[Rect]
) -> np.ndarray:
    """Deterministic coverage of ``hq_rects`` at every hypothesis center.

    Vectorized over the padded rect tensor; padding rows are zero-area
    rectangles whose clamped intersection is always 0.
    """
    rc = hyp.rect_coords
    covered = np.zeros(hyp.num_hypotheses)
    for hq in hq_rects:
        dx = np.minimum(rc[..., 2], hq.x1) - np.maximum(rc[..., 0], hq.x0)
        dy = np.minimum(rc[..., 3], hq.y1) - np.maximum(rc[..., 1], hq.y0)
        covered += (np.clip(dx, 0.0, None) * np.clip(dy, 0.0, None)).sum(axis=1)
    return np.minimum(covered / hyp.areas, 1.0)


def expected_coverage(
    weights: np.ndarray, hyp: HypothesisGrid, hq_rects: Sequence[Rect]
) -> float:
    """Probability-weighted viewport coverage of a high-quality region.

    With normalized weights this is a convex combination of the
    per-hypothesis deterministic coverages, so it is always bounded by
    the best and worst deterministic coverage over the hypothesis set.
    """
    return float(np.dot(weights, coverage_profile(hyp, hq_rects)))


@dataclass(frozen=True)
class PanoWeight:
    """Pano-style perceptual weight over viewing-center pitch.

    Pano observes that perceptual sensitivity is not uniform over the
    sphere; in equirectangular content, attention (and the bit value of
    quality) concentrates near the equator.  This down-weights polar
    hypotheses linearly: weight ``1`` at the equator falling to
    ``1 - polar_discount`` at the poles.
    """

    polar_discount: float = 0.35

    def __post_init__(self) -> None:
        if not (0.0 <= self.polar_discount <= 1.0):
            raise ValueError("polar_discount must be in [0, 1]")

    def weight(self, pitch_deg):
        """Perceptual weight at a viewing-center pitch (scalar or array)."""
        pitch = np.abs(np.asarray(pitch_deg, dtype=float))
        w = 1.0 - self.polar_discount * (pitch / 90.0)
        if w.ndim == 0:
            return float(w)
        return w
