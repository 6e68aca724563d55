"""Unit tests for the tile grid (4x8 default, viewport coverage)."""

import pytest

from repro.geometry import (
    DEFAULT_GRID,
    FTILE_BLOCK_GRID,
    Rect,
    Tile,
    TileGrid,
    Viewport,
)


class TestGridBasics:
    def test_default_grid_shape(self):
        assert DEFAULT_GRID.rows == 4
        assert DEFAULT_GRID.cols == 8
        assert DEFAULT_GRID.num_tiles == 32
        assert DEFAULT_GRID.tile_width == 45.0
        assert DEFAULT_GRID.tile_height == 45.0

    def test_ftile_block_grid(self):
        assert FTILE_BLOCK_GRID.num_tiles == 450

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            TileGrid(0, 8)

    def test_equality_and_hash(self):
        assert TileGrid(4, 8) == DEFAULT_GRID
        assert hash(TileGrid(4, 8)) == hash(DEFAULT_GRID)
        assert TileGrid(2, 8) != DEFAULT_GRID

    def test_tiles_enumeration(self):
        tiles = list(DEFAULT_GRID.tiles())
        assert len(tiles) == 32
        assert tiles[0] == Tile(0, 0)
        assert tiles[-1] == Tile(3, 7)

    def test_area_fraction(self):
        r = DEFAULT_GRID.tile_rect(Tile(0, 0))
        area = (r.x1 - r.x0) * (r.y1 - r.y0)
        assert area / (360.0 * 180.0) == pytest.approx(1 / 32)


class TestTileRect:
    def test_top_left_tile(self):
        r = DEFAULT_GRID.tile_rect(Tile(0, 0))
        assert (r.x0, r.y0, r.x1, r.y1) == (0.0, 45.0, 45.0, 90.0)

    def test_bottom_right_tile(self):
        r = DEFAULT_GRID.tile_rect(Tile(3, 7))
        assert (r.x0, r.y0, r.x1, r.y1) == (315.0, -90.0, 360.0, -45.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_GRID.tile_rect(Tile(4, 0))
        with pytest.raises(ValueError):
            DEFAULT_GRID.tile_rect(Tile(0, 8))

    def test_rects_tile_the_frame(self):
        total = sum(DEFAULT_GRID.tile_rect(t).area for t in DEFAULT_GRID.tiles())
        assert total == pytest.approx(360.0 * 180.0)


class TestTileAt:
    def test_center_of_tile(self):
        assert DEFAULT_GRID.tile_at(22.5, 67.5) == Tile(0, 0)
        assert DEFAULT_GRID.tile_at(337.5, -67.5) == Tile(3, 7)

    def test_wraps_yaw(self):
        assert DEFAULT_GRID.tile_at(365.0, 0.0) == DEFAULT_GRID.tile_at(5.0, 0.0)

    def test_poles(self):
        assert DEFAULT_GRID.tile_at(0.0, 90.0).row == 0
        assert DEFAULT_GRID.tile_at(0.0, -90.0).row == 3

    def test_consistent_with_rect(self):
        for yaw, pitch in [(12.0, 33.0), (200.0, -10.0), (359.0, 89.0)]:
            tile = DEFAULT_GRID.tile_at(yaw, pitch)
            assert DEFAULT_GRID.tile_rect(tile).contains(yaw, pitch)


class TestViewportTiles:
    def test_typical_fov_is_nine_tiles(self):
        # Viewport centered on a tile center covers a 3x3 block.
        tiles = DEFAULT_GRID.viewport_tiles(Viewport(112.5, 22.5))
        assert len(tiles) == 9
        rows = {t.row for t in tiles}
        cols = {t.col for t in tiles}
        assert rows == {0, 1, 2}
        assert cols == {1, 2, 3}

    def test_min_overlap_filters_slivers(self):
        vp = Viewport(112.5, 22.5)
        loose = DEFAULT_GRID.viewport_tiles(vp, min_overlap=0.0)
        tight = DEFAULT_GRID.viewport_tiles(vp, min_overlap=0.4)
        assert tight <= loose
        assert len(tight) < len(loose) or len(loose) == 9

    def test_invalid_min_overlap(self):
        with pytest.raises(ValueError):
            DEFAULT_GRID.tiles_overlapping(Rect(0, 0, 10, 10), min_overlap=1.0)

    def test_seam_viewport_covers_both_sides(self):
        tiles = DEFAULT_GRID.viewport_tiles(Viewport(0.0, 0.0))
        cols = {t.col for t in tiles}
        assert 0 in cols and 7 in cols


class TestBoundingRect:
    def test_single_tile(self):
        rect = DEFAULT_GRID.bounding_rect([Tile(1, 2)])
        assert rect == DEFAULT_GRID.tile_rect(Tile(1, 2))

    def test_contiguous_block(self):
        tiles = [Tile(1, 2), Tile(1, 3), Tile(2, 2), Tile(2, 3)]
        rect = DEFAULT_GRID.bounding_rect(tiles)
        assert rect.x0 == 90.0 and rect.x1 == 180.0
        assert rect.y0 == -45.0 and rect.y1 == 45.0

    def test_wrapping_columns(self):
        tiles = [Tile(1, 7), Tile(1, 0)]
        rect = DEFAULT_GRID.bounding_rect(tiles)
        assert rect.x0 == 315.0
        assert rect.x1 == pytest.approx(360.0 + 45.0)

    def test_wrapping_round_trip(self):
        tiles = {Tile(1, 7), Tile(1, 0), Tile(2, 7), Tile(2, 0)}
        rect = DEFAULT_GRID.bounding_rect(tiles)
        assert DEFAULT_GRID.rect_tiles(rect) == tiles

    def test_all_columns(self):
        tiles = [Tile(0, c) for c in range(8)]
        rect = DEFAULT_GRID.bounding_rect(tiles)
        assert rect.x0 == 0.0 and rect.x1 == 360.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_GRID.bounding_rect([])

    def test_bounding_rect_fills_gaps(self):
        # Two disjoint tiles in the same row: bounding covers the span.
        rect = DEFAULT_GRID.bounding_rect([Tile(0, 1), Tile(0, 3)])
        covered = DEFAULT_GRID.rect_tiles(rect)
        assert Tile(0, 2) in covered
