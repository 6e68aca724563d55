"""Ptile construction (paper Section IV-A).

For every video segment, the viewing centers of the training users are
clustered with Algorithm 1; each sufficiently popular cluster yields a
**Ptile**: the tile-aligned rectangle covering the viewing areas (FoV
rectangles) of every member, encoded as one large tile.

The area outside a Ptile is partitioned into at most three large blocks
along the Ptile's upper and lower horizontal lines — a full-width strip
above, a full-width strip below, and the remaining arc of columns in the
Ptile's own rows — each encoded at the lowest quality and downloaded
alongside the Ptile so a surprise view change degrades quality instead
of stalling playback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..geometry.tiling import Tile, TileGrid
from ..geometry.viewport import DEFAULT_FOV_DEG, Rect, Viewport
from ..traces.head_movement import HeadTrace
from ..video.content import Video
from .clustering import Cluster, ViewingCenter, cluster_viewing_centers

__all__ = [
    "PtileConfig",
    "partition_remainder",
    "Ptile",
    "RemainderBlock",
    "SegmentPtiles",
    "build_segment_ptiles",
    "build_video_ptiles",
]


@dataclass(frozen=True)
class PtileConfig:
    """Parameters of Ptile construction (paper Section V-B defaults).

    ``sigma`` defaults to the width of one conventional tile and
    ``delta`` to ``sigma / 4``; a Ptile is only built for clusters with
    at least ``min_users`` members (5, i.e. ~10 % of the dataset users).
    """

    sigma: float | None = None
    delta: float | None = None
    min_users: int = 5
    fov_deg: float = DEFAULT_FOV_DEG
    recursive_split: bool = False

    def resolved_sigma(self, grid: TileGrid) -> float:
        return self.sigma if self.sigma is not None else grid.tile_width

    def resolved_delta(self, grid: TileGrid) -> float:
        return self.delta if self.delta is not None else self.resolved_sigma(grid) / 4.0

    def fingerprint(self, grid: TileGrid) -> tuple:
        """Resolved construction parameters, for content-addressed caching.

        Uses the *resolved* δ/σ so ``sigma=None`` and an explicit
        ``sigma=grid.tile_width`` hash identically (they construct
        identical Ptiles), while any parameter that changes the output
        changes the fingerprint.
        """
        return (
            "ptile-config",
            self.resolved_sigma(grid),
            self.resolved_delta(grid),
            self.min_users,
            self.fov_deg,
            self.recursive_split,
        )


@dataclass(frozen=True)
class Ptile:
    """One popularity tile: a tile-aligned rectangle encoded as one tile."""

    index: int
    tiles: frozenset[Tile]
    rect: Rect  # tile-aligned; x1 may exceed 360 for wrapping arcs
    cluster: Cluster
    grid: TileGrid = field(repr=False)

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def area_fraction(self) -> float:
        return self.n_tiles / self.grid.num_tiles

    @property
    def region_key(self) -> str:
        return f"ptile-{self.index}"

    @cached_property
    def tile_mask(self) -> int:
        """``tiles`` as an integer bitmask (bit ``row * grid.cols + col``),
        computed once: it compares in O(1), where two equal but distinct
        frozensets compare tile by tile."""
        cols = self.grid.cols
        mask = 0
        for tile in self.tiles:
            mask |= 1 << (tile.row * cols + tile.col)
        return mask

    def __getstate__(self) -> dict:
        # The mask is derived; pickled Ptiles keep their bytes.
        state = self.__dict__.copy()
        state.pop("tile_mask", None)
        return state

    def contains(self, yaw: float, pitch: float) -> bool:
        """Whether a viewing direction falls inside the Ptile."""
        tile = self.grid.tile_at(yaw, pitch)
        return bool(self.tile_mask >> (tile.row * self.grid.cols + tile.col) & 1)

    def viewport_overlap(self, viewport: Viewport) -> float:
        """Fraction of the viewport's tiles that the Ptile covers."""
        fov = self.grid.viewport_mask(viewport)
        if not fov:
            return 0.0
        return (fov & self.tile_mask).bit_count() / fov.bit_count()


@dataclass(frozen=True)
class RemainderBlock:
    """A low-quality block covering frame area outside a Ptile."""

    key: str
    tiles: frozenset[Tile]
    area_fraction: float

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)


@dataclass(frozen=True)
class SegmentPtiles:
    """All Ptiles of one segment plus per-Ptile remainder partitions."""

    segment_index: int
    ptiles: tuple[Ptile, ...]
    remainders: dict[int, tuple[RemainderBlock, ...]] = field(repr=False)

    @property
    def num_ptiles(self) -> int:
        return len(self.ptiles)

    def match(
        self, viewport: Viewport, min_overlap: float = 0.5
    ) -> Ptile | None:
        """The Ptile serving a (predicted) viewport, if any.

        The client "verifies if this area can be covered by a Ptile"
        (paper Section IV-B): a Ptile qualifies when it covers the
        viewing center, or failing that, at least ``min_overlap`` of the
        viewport's tiles.  Among qualifiers the largest coverage wins
        (ties by index).  Returns ``None`` when no Ptile qualifies — the
        client then falls back to conventional tiles.
        """
        if not self.ptiles:
            return None
        best = max(
            self.ptiles,
            key=lambda p: (p.viewport_overlap(viewport), -p.index),
        )
        if best.contains(viewport.yaw, viewport.pitch):
            return best
        if best.viewport_overlap(viewport) >= min_overlap:
            return best
        return None

    def remainder_for(self, ptile: Ptile) -> tuple[RemainderBlock, ...]:
        return self.remainders[ptile.index]

    def covers_user(self, yaw: float, pitch: float) -> bool:
        """Whether any Ptile contains this viewing center (Fig. 7(b))."""
        return any(p.contains(yaw, pitch) for p in self.ptiles)


def build_segment_ptiles(
    grid: TileGrid,
    centers: list[ViewingCenter],
    config: PtileConfig = PtileConfig(),
    segment_index: int = 0,
) -> SegmentPtiles:
    """Cluster one segment's viewing centers and construct its Ptiles."""
    sigma = config.resolved_sigma(grid)
    delta = config.resolved_delta(grid)
    clusters = cluster_viewing_centers(
        centers, delta=delta, sigma=sigma, recursive_split=config.recursive_split
    )
    ptiles: list[Ptile] = []
    remainders: dict[int, tuple[RemainderBlock, ...]] = {}
    for cluster in clusters:
        if cluster.size < config.min_users:
            continue
        covered: set[Tile] = set()
        for member in cluster.members:
            viewport = Viewport(
                member.yaw, member.pitch, config.fov_deg, config.fov_deg
            )
            covered |= grid.viewport_tiles(viewport)
        rect = grid.bounding_rect(covered)
        tiles = frozenset(grid.rect_tiles(rect))
        index = len(ptiles)
        ptile = Ptile(index=index, tiles=tiles, rect=rect, cluster=cluster, grid=grid)
        ptiles.append(ptile)
        remainders[index] = partition_remainder(grid, ptile)
    return SegmentPtiles(
        segment_index=segment_index, ptiles=tuple(ptiles), remainders=remainders
    )


def partition_remainder(grid: TileGrid, ptile: Ptile) -> tuple[RemainderBlock, ...]:
    """Partition the area outside a Ptile into at most three blocks.

    The blocks follow the Ptile's upper and lower horizontal lines: a
    full-width strip above, a full-width strip below, and the remaining
    arc of columns within the Ptile's rows.
    """
    rows = sorted({t.row for t in ptile.tiles})
    row0, row1 = rows[0], rows[-1]
    ptile_cols = {t.col for t in ptile.tiles}

    blocks: list[RemainderBlock] = []
    top = frozenset(
        Tile(r, c) for r in range(0, row0) for c in range(grid.cols)
    )
    if top:
        blocks.append(_block(f"rem-{ptile.index}-top", top, grid))
    bottom = frozenset(
        Tile(r, c) for r in range(row1 + 1, grid.rows) for c in range(grid.cols)
    )
    if bottom:
        blocks.append(_block(f"rem-{ptile.index}-bottom", bottom, grid))
    side = frozenset(
        Tile(r, c)
        for r in range(row0, row1 + 1)
        for c in range(grid.cols)
        if c not in ptile_cols
    )
    if side:
        blocks.append(_block(f"rem-{ptile.index}-side", side, grid))
    return tuple(blocks)


def _block(key: str, tiles: frozenset[Tile], grid: TileGrid) -> RemainderBlock:
    return RemainderBlock(
        key=key, tiles=tiles, area_fraction=len(tiles) / grid.num_tiles
    )


def build_video_ptiles(
    video: Video,
    train_traces: list[HeadTrace],
    grid: TileGrid,
    config: PtileConfig = PtileConfig(),
    segment_seconds: float = 1.0,
) -> list[SegmentPtiles]:
    """Construct Ptiles for every segment of a video.

    ``train_traces`` are the historical-viewing users (40 of 48 in the
    paper); their viewing centers at each segment midpoint feed
    Algorithm 1.
    """
    if not train_traces:
        raise ValueError("need at least one training trace")
    result: list[SegmentPtiles] = []
    for segment in video.segments:
        centers = [
            ViewingCenter(trace.user_id, *trace.segment_center(segment.index,
                                                               segment_seconds))
            for trace in train_traces
        ]
        result.append(
            build_segment_ptiles(grid, centers, config, segment_index=segment.index)
        )
    return result
