"""Ftile: variable-size tiling (paper Section V-A, baseline from [12]).

The Ftile baseline divides each segment into a *fixed number* of
variable-size tiles: the frame is first cut into 450 small blocks
(15 rows x 30 columns) whose viewing popularity is accumulated from the
training users, and the blocks are then clustered into ten rectangular
tiles.  Popular regions end up covered by small focused tiles and the
rest by large ones.

We build the partition with a deterministic popularity-weighted KD
split: starting from the whole frame, repeatedly split the leaf with the
highest popularity variance at the popularity-weighted median of its
longer axis, until ten leaves remain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..geometry.tiling import FTILE_BLOCK_GRID, TileGrid
from ..geometry.viewport import Rect, Viewport
from ..traces.head_movement import HeadTrace
from ..video.content import Video

__all__ = ["FtileCell", "FtilePartition", "build_ftile_partition",
           "build_video_ftiles"]

_N_FTILES = 10


@dataclass(frozen=True)
class FtileCell:
    """One variable-size tile: a block-aligned rectangle."""

    key: str
    rect: Rect  # degrees, never wrapping (block-aligned)
    n_blocks: int
    area_fraction: float

    def overlaps_viewport(self, viewport: Viewport) -> bool:
        return any(self.rect.overlaps(r) for r in viewport.rects())


@dataclass(frozen=True)
class FtilePartition:
    """The ten-cell partition of one segment."""

    segment_index: int
    cells: tuple[FtileCell, ...]

    def viewport_cells(self, viewport: Viewport) -> tuple[FtileCell, ...]:
        """Cells overlapping the viewport (downloaded at high quality)."""
        return tuple(c for c in self.cells if c.overlaps_viewport(viewport))


def _popularity_map(
    viewports: list[Viewport], grid: TileGrid = FTILE_BLOCK_GRID
) -> np.ndarray:
    """How many users' viewports cover each block (rows x cols array)."""
    pop = np.zeros((grid.rows, grid.cols))
    for viewport in viewports:
        for rect in viewport.rects():
            c0 = math.floor(rect.x0 / grid.tile_width)
            c1 = math.ceil(rect.x1 / grid.tile_width)
            r0 = math.floor((90.0 - rect.y1) / grid.tile_height)
            r1 = math.ceil((90.0 - rect.y0) / grid.tile_height)
            pop[max(r0, 0) : min(r1, grid.rows), max(c0, 0) : min(c1, grid.cols)] += 1
    return pop


def build_ftile_partition(
    viewports: list[Viewport],
    segment_index: int = 0,
    n_tiles: int = _N_FTILES,
    grid: TileGrid = FTILE_BLOCK_GRID,
) -> FtilePartition:
    """Cluster the 450 blocks into ``n_tiles`` rectangular tiles."""
    if n_tiles < 1:
        raise ValueError("need at least one tile")
    pop = _popularity_map(viewports, grid)
    leaves: list[tuple[int, int, int, int]] = [(0, grid.rows, 0, grid.cols)]

    scores: dict[tuple[int, int, int, int], float] = {}

    def score(leaf: tuple[int, int, int, int]) -> float:
        # A pure function of the leaf's bounds: computed once per leaf,
        # not on every re-sort.
        cached = scores.get(leaf)
        if cached is None:
            r0, r1, c0, c1 = leaf
            region = pop[r0:r1, c0:c1]
            cached = -1.0 if region.size <= 1 else float(np.var(region) * region.size)
            scores[leaf] = cached
        return cached

    while len(leaves) < n_tiles:
        leaves.sort(key=score, reverse=True)
        target = leaves[0]
        split = _split_leaf(target, pop)
        if split is None:
            # Nothing splittable by popularity: split the largest leaf in
            # half to keep the tile count fixed.
            leaves.sort(key=lambda lf: (lf[1] - lf[0]) * (lf[3] - lf[2]), reverse=True)
            split = _split_half(leaves[0])
            if split is None:
                break
            target = leaves[0]
        leaves.remove(target)
        leaves.extend(split)

    cells = []
    for i, (r0, r1, c0, c1) in enumerate(sorted(leaves)):
        rect = Rect(
            c0 * grid.tile_width,
            90.0 - r1 * grid.tile_height,
            c1 * grid.tile_width,
            90.0 - r0 * grid.tile_height,
        )
        n_blocks = (r1 - r0) * (c1 - c0)
        cells.append(
            FtileCell(
                key=f"ftile-{i}",
                rect=rect,
                n_blocks=n_blocks,
                area_fraction=n_blocks / grid.num_tiles,
            )
        )
    return FtilePartition(segment_index=segment_index, cells=tuple(cells))


def _split_leaf(
    leaf: tuple[int, int, int, int], pop: np.ndarray
) -> list[tuple[int, int, int, int]] | None:
    """Split at the popularity-weighted median of the longer axis."""
    r0, r1, c0, c1 = leaf
    height, width = r1 - r0, c1 - c0
    if height * width <= 1:
        return None
    region = pop[r0:r1, c0:c1]
    if float(np.var(region)) == 0.0:
        return None
    if width >= height and width > 1:
        col_mass = region.sum(axis=0)
        cut = _weighted_median_cut(col_mass)
        return [(r0, r1, c0, c0 + cut), (r0, r1, c0 + cut, c1)]
    if height > 1:
        row_mass = region.sum(axis=1)
        cut = _weighted_median_cut(row_mass)
        return [(r0, r0 + cut, c0, c1), (r0 + cut, r1, c0, c1)]
    col_mass = region.sum(axis=0)
    cut = _weighted_median_cut(col_mass)
    return [(r0, r1, c0, c0 + cut), (r0, r1, c0 + cut, c1)]


def _split_half(leaf: tuple[int, int, int, int]) -> list[tuple[int, int, int, int]] | None:
    r0, r1, c0, c1 = leaf
    if (r1 - r0) * (c1 - c0) <= 1:
        return None
    if c1 - c0 >= r1 - r0:
        mid = c0 + (c1 - c0) // 2
        return [(r0, r1, c0, mid), (r0, r1, mid, c1)]
    mid = r0 + (r1 - r0) // 2
    return [(r0, mid, c0, c1), (mid, r1, c0, c1)]


def _weighted_median_cut(mass: np.ndarray) -> int:
    """Index (1..len-1) splitting the mass roughly in half."""
    total = float(mass.sum())
    if total <= 0:
        return max(len(mass) // 2, 1)
    cumulative = np.cumsum(mass)
    cut = int(np.searchsorted(cumulative, total / 2.0)) + 1
    return min(max(cut, 1), len(mass) - 1)


def build_video_ftiles(
    video: Video,
    train_traces: list[HeadTrace],
    segment_seconds: float = 1.0,
    n_tiles: int = _N_FTILES,
) -> list[FtilePartition]:
    """Build the Ftile partition of every segment of a video."""
    if not train_traces:
        raise ValueError("need at least one training trace")
    partitions = []
    for segment in video.segments:
        viewports = [
            trace.viewport_at((segment.index + 0.5) * segment_seconds)
            for trace in train_traces
        ]
        partitions.append(
            build_ftile_partition(viewports, segment.index, n_tiles)
        )
    return partitions
