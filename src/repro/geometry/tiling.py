"""Tile grids over the equirectangular frame.

The conventional tiling scheme (*Ctile*) divides each one-second video
segment into a fixed grid of 4 rows x 8 columns (paper Section II,
Fig. 1).  The *Ftile* baseline starts from a much finer 15 x 30 grid of
blocks.  Both are instances of :class:`TileGrid`.

Tiles are addressed by ``(row, col)`` with row 0 at the *top* of the
frame (pitch +90) and column 0 at yaw 0, matching the visual layout of
Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .viewport import Rect, Viewport

__all__ = ["Tile", "TileGrid", "DEFAULT_GRID", "FTILE_BLOCK_GRID"]

VIEWPORT_CACHE_CAP = 1 << 16
"""Entries a grid's viewport-coverage memo holds before it is cleared.

A long-running decision service sees an unbounded stream of distinct
viewports on the shared :data:`DEFAULT_GRID`; clearing at a fixed cap
keeps the memo's memory flat (about 70 MB at the cap: each entry holds
the tile set and its bitmask) while a sweep's working set stays far
below it."""

_DERIVED_FIELDS = ("_col_bounds", "_row_bounds", "_tile_objs", "_tile_set")


@dataclass(frozen=True, order=True)
class Tile:
    """A single tile in a :class:`TileGrid`, addressed by row and column."""

    row: int
    col: int


class TileGrid:
    """A fixed rows x cols tiling of the 360x180 equirectangular frame.

    Provides tile geometry lookups and viewport -> tile coverage queries,
    which are the building blocks for segment encoding, Ptile
    construction, and all streaming schemes.
    """

    FRAME_WIDTH_DEG = 360.0
    FRAME_HEIGHT_DEG = 180.0

    def __init__(self, rows: int = 4, cols: int = 8):
        if rows < 1 or cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.tile_width = self.FRAME_WIDTH_DEG / cols
        self.tile_height = self.FRAME_HEIGHT_DEG / rows
        self._viewport_cache: dict = {}
        self._init_bounds()

    def _init_bounds(self) -> None:
        # Per-column x and per-row y tile edges, the same floats
        # tile_rect computes, plus the Tile objects in row-major order.
        x0 = [col * self.tile_width for col in range(self.cols)]
        y1 = [90.0 - row * self.tile_height for row in range(self.rows)]
        self._col_bounds = [(x, x + self.tile_width) for x in x0]
        self._row_bounds = [(y - self.tile_height, y) for y in y1]
        self._tile_objs = tuple(
            tuple(Tile(row, col) for col in range(self.cols))
            for row in range(self.rows)
        )
        self._tile_set = frozenset(t for row in self._tile_objs for t in row)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TileGrid(rows={self.rows}, cols={self.cols})"

    def __getstate__(self) -> dict:
        # The viewport-coverage memo and the tile bounds are pure derived
        # state; the memo can grow to thousands of entries on a shared
        # grid (DEFAULT_GRID is a process-wide singleton).  Serializing
        # either would bloat worker payloads and change the bytes of
        # every pickled artifact that holds a grid.
        state = self.__dict__.copy()
        state["_viewport_cache"] = {}
        for key in _DERIVED_FIELDS:
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_bounds()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TileGrid)
            and self.rows == other.rows
            and self.cols == other.cols
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols))

    @property
    def num_tiles(self) -> int:
        return self.rows * self.cols

    def tiles(self) -> Iterator[Tile]:
        """Iterate over all tiles in row-major order."""
        for row in range(self.rows):
            for col in range(self.cols):
                yield Tile(row, col)

    @property
    def tile_set(self) -> frozenset[Tile]:
        """Every tile, inserted in row-major order.

        Built the way ``set(grid.tiles())`` is, so it and every set
        difference taken from it iterate in that set's order.
        """
        return self._tile_set

    def tile_rect(self, tile: Tile) -> Rect:
        """The rectangle (degrees) a tile covers on the frame."""
        self._check(tile)
        x0 = tile.col * self.tile_width
        y1 = 90.0 - tile.row * self.tile_height
        return Rect(x0, y1 - self.tile_height, x0 + self.tile_width, y1)

    def tile_at(self, yaw: float, pitch: float) -> Tile:
        """The tile containing a direction (edges belong to the
        lower-index tile on ties, except the frame boundary)."""
        yaw = yaw % 360.0
        pitch = max(-90.0, min(90.0, pitch))
        col = min(int(yaw / self.tile_width), self.cols - 1)
        row = min(int((90.0 - pitch) / self.tile_height), self.rows - 1)
        return Tile(row, col)

    def tiles_overlapping(self, rect: Rect, min_overlap: float = 0.0) -> set[Tile]:
        """Tiles overlapping a non-wrapping rectangle.

        ``min_overlap`` is the minimum share of the *tile's* area that
        must be covered; 0 keeps any positive overlap.
        """
        if not (0.0 <= min_overlap < 1.0):
            raise ValueError("min_overlap must be in [0, 1)")
        threshold = min_overlap * (self.tile_width * self.tile_height)
        # Fresh Tile objects: Ptiles hold these sets, and Tile instances
        # shared between sets would change their pickled bytes.
        return {
            Tile(row, col)
            for row, col, area in self._overlaps(rect)
            if area > threshold
        }

    def _overlaps(self, rect: Rect) -> Iterator[tuple[int, int, float]]:
        """``(row, col, area)`` of each tile a non-wrapping rect overlaps,
        row-major: the area ``tile_rect(tile).intersection_area(rect)``
        gives, from tile edges computed once per grid."""
        cols = []
        for col, (tx0, tx1) in enumerate(self._col_bounds):
            dx = min(tx1, rect.x1) - max(tx0, rect.x0)
            if dx > 0:
                cols.append((col, dx))
        for row, (ty0, ty1) in enumerate(self._row_bounds):
            dy = min(ty1, rect.y1) - max(ty0, rect.y0)
            if dy > 0:
                for col, dx in cols:
                    area = dx * dy
                    if area > 0:  # a product of tiny overlaps can underflow
                        yield row, col, area

    def viewport_tiles(
        self, viewport: Viewport, min_overlap: float = 0.1
    ) -> frozenset[Tile]:
        """The set of tiles covering a user viewport (the *FoV tiles*).

        Tiles with only a sliver of overlap (below ``min_overlap`` of
        the tile area) are excluded, matching practical tile selection.
        With the paper defaults (4x8 grid, 100 degree FoV) a viewport
        then typically covers 9 tiles (3 rows x 3 columns) — the "nine
        tiles" of the paper's Fig. 2(b) experiment.

        Results are memoized per (viewport, min_overlap): the same
        predicted viewport is looked up by every scheme and by every
        Ptile's overlap test, so the geometry sweep repeats many times
        per segment.  The returned frozenset must not be mutated.
        """
        return self._viewport_entry(viewport, min_overlap)[0]

    def viewport_mask(self, viewport: Viewport, min_overlap: float = 0.1) -> int:
        """:meth:`viewport_tiles` as an integer bitmask (bit
        ``row * cols + col``), read from the same memo entry."""
        return self._viewport_entry(viewport, min_overlap)[1]

    def _viewport_entry(
        self, viewport: Viewport, min_overlap: float
    ) -> tuple[frozenset[Tile], int]:
        cache_key = (viewport, min_overlap)
        cache = self._viewport_cache
        cached = cache.get(cache_key)
        if cached is not None:
            return cached
        # Tiles are inserted rect by rect in row-major order: the
        # frozenset's iteration order, and so every float sum taken over
        # it, depends on that order.
        tiles = self._tile_objs
        overlap_by_tile: dict[Tile, float] = {}
        for rect in viewport.rects():
            for row, col, area in self._overlaps(rect):
                tile = tiles[row][col]
                overlap_by_tile[tile] = overlap_by_tile.get(tile, 0.0) + area
        threshold = min_overlap * (self.tile_width * self.tile_height)
        covered = [
            tile for tile, area in overlap_by_tile.items() if area > threshold
        ]
        mask = 0
        for tile in covered:
            mask |= 1 << (tile.row * self.cols + tile.col)
        result = (frozenset(covered), mask)
        if len(cache) >= VIEWPORT_CACHE_CAP:
            cache.clear()
        cache[cache_key] = result
        return result

    def bounding_rect(self, tiles: Iterable[Tile]) -> Rect:
        """Smallest tile-aligned rectangle containing the given tiles.

        Column wraparound is handled by choosing the contiguous arc of
        columns with the smallest width that contains every tile column.
        Raises ``ValueError`` on an empty tile set.
        """
        tile_list = list(tiles)
        if not tile_list:
            raise ValueError("cannot bound an empty tile set")
        for tile in tile_list:
            self._check(tile)
        rows = [t.row for t in tile_list]
        row0, row1 = min(rows), max(rows)
        y1 = 90.0 - row0 * self.tile_height
        y0 = 90.0 - (row1 + 1) * self.tile_height

        cols = sorted({t.col for t in tile_list})
        if len(cols) == self.cols:
            return Rect(0.0, y0, 360.0, y1)
        # Find the largest gap in the circular column sequence; the
        # bounding arc is everything outside that gap.
        gaps = []
        for i, col in enumerate(cols):
            nxt = cols[(i + 1) % len(cols)]
            gap = (nxt - col - 1) % self.cols
            gaps.append((gap, i))
        __, gap_index = max(gaps)
        start_col = cols[(gap_index + 1) % len(cols)]
        end_col = cols[gap_index]
        x0 = start_col * self.tile_width
        x1 = (end_col + 1) * self.tile_width
        if x1 <= x0:
            x1 += 360.0  # wrapping arc, expressed as x1 > 360
        return Rect(x0, y0, x1, y1)

    def rect_tiles(self, rect: Rect) -> set[Tile]:
        """Tiles overlapping a rectangle that may extend past yaw 360.

        Accepts the (possibly wrapping) rectangles produced by
        :meth:`bounding_rect`.
        """
        if rect.x1 <= 360.0:
            return self.tiles_overlapping(rect)
        left = Rect(rect.x0, rect.y0, 360.0, rect.y1)
        right = Rect(0.0, rect.y0, rect.x1 - 360.0, rect.y1)
        return self.tiles_overlapping(left) | self.tiles_overlapping(right)

    def _check(self, tile: Tile) -> None:
        if not (0 <= tile.row < self.rows and 0 <= tile.col < self.cols):
            raise ValueError(f"{tile} outside {self!r}")


DEFAULT_GRID = TileGrid(rows=4, cols=8)
"""The conventional 4x8 tiling used throughout the paper."""

FTILE_BLOCK_GRID = TileGrid(rows=15, cols=30)
"""The fine 450-block grid from which Ftile builds its ten tiles."""
