"""Unit tests for Ptile construction and remainder partitioning."""

import pytest

from repro.geometry import DEFAULT_GRID, Tile, Viewport
from repro.ptile import (
    PtileConfig,
    ViewingCenter,
    build_segment_ptiles,
    build_video_ptiles,
    partition_remainder,
)


def focused_centers(yaw=100.0, pitch=0.0, n=8, spread=3.0):
    return [
        ViewingCenter(i, yaw + spread * ((i % 3) - 1), pitch + spread * ((i % 2)))
        for i in range(n)
    ]


class TestPtileConfig:
    def test_paper_defaults(self):
        cfg = PtileConfig()
        assert cfg.resolved_sigma(DEFAULT_GRID) == 45.0
        assert cfg.resolved_delta(DEFAULT_GRID) == pytest.approx(45.0 / 4)
        assert cfg.min_users == 5

    def test_explicit_override(self):
        cfg = PtileConfig(sigma=30.0, delta=10.0)
        assert cfg.resolved_sigma(DEFAULT_GRID) == 30.0
        assert cfg.resolved_delta(DEFAULT_GRID) == 10.0


class TestBuildSegmentPtiles:
    def test_single_cluster_single_ptile(self):
        sp = build_segment_ptiles(DEFAULT_GRID, focused_centers())
        assert sp.num_ptiles == 1
        ptile = sp.ptiles[0]
        assert ptile.n_tiles >= 9
        assert ptile.contains(100.0, 0.0)

    def test_min_users_filter(self):
        sp = build_segment_ptiles(DEFAULT_GRID, focused_centers(n=4))
        assert sp.num_ptiles == 0

    def test_two_interest_groups(self):
        pts = focused_centers(80.0, 0.0, 6) + [
            ViewingCenter(100 + i, 260.0 + i, 0.0) for i in range(6)
        ]
        sp = build_segment_ptiles(DEFAULT_GRID, pts)
        assert sp.num_ptiles == 2

    def test_ptile_is_rectangular_tile_set(self):
        sp = build_segment_ptiles(DEFAULT_GRID, focused_centers())
        ptile = sp.ptiles[0]
        assert DEFAULT_GRID.rect_tiles(ptile.rect) == set(ptile.tiles)

    def test_ptile_covers_member_viewports(self):
        pts = focused_centers()
        sp = build_segment_ptiles(DEFAULT_GRID, pts)
        ptile = sp.ptiles[0]
        for member in pts:
            vp = Viewport(member.yaw, member.pitch)
            assert ptile.viewport_overlap(vp) == pytest.approx(1.0)

    def test_area_fraction(self):
        sp = build_segment_ptiles(DEFAULT_GRID, focused_centers())
        ptile = sp.ptiles[0]
        assert ptile.area_fraction == pytest.approx(ptile.n_tiles / 32)

    def test_region_key_stable(self):
        sp = build_segment_ptiles(DEFAULT_GRID, focused_centers())
        assert sp.ptiles[0].region_key == "ptile-0"


class TestMatch:
    def test_match_inside(self):
        sp = build_segment_ptiles(DEFAULT_GRID, focused_centers())
        assert sp.match(Viewport(100.0, 0.0)) is sp.ptiles[0]

    def test_no_match_far_away(self):
        sp = build_segment_ptiles(DEFAULT_GRID, focused_centers())
        assert sp.match(Viewport(280.0, 0.0)) is None

    def test_overlap_match_near_edge(self):
        # Center just outside the Ptile but most of the viewport inside.
        sp = build_segment_ptiles(DEFAULT_GRID, focused_centers())
        ptile = sp.ptiles[0]
        edge_yaw = ptile.rect.x1 % 360.0 + 5.0
        vp = Viewport(edge_yaw, 0.0)
        matched = sp.match(vp)
        if ptile.viewport_overlap(vp) >= 0.5:
            assert matched is ptile

    def test_empty_segment(self):
        sp = build_segment_ptiles(DEFAULT_GRID, focused_centers(n=3))
        assert sp.match(Viewport(100.0, 0.0)) is None

    def test_covers_user(self):
        sp = build_segment_ptiles(DEFAULT_GRID, focused_centers())
        assert sp.covers_user(100.0, 0.0)
        assert not sp.covers_user(280.0, 0.0)


class TestRemainder:
    def test_partition_covers_frame(self):
        sp = build_segment_ptiles(DEFAULT_GRID, focused_centers())
        ptile = sp.ptiles[0]
        blocks = sp.remainder_for(ptile)
        remainder_tiles = set().union(*(b.tiles for b in blocks))
        assert remainder_tiles | set(ptile.tiles) == set(DEFAULT_GRID.tiles())
        assert remainder_tiles.isdisjoint(ptile.tiles)

    def test_at_most_three_blocks(self):
        sp = build_segment_ptiles(DEFAULT_GRID, focused_centers())
        assert 1 <= len(sp.remainder_for(sp.ptiles[0])) <= 3

    def test_blocks_disjoint(self):
        sp = build_segment_ptiles(DEFAULT_GRID, focused_centers())
        blocks = sp.remainder_for(sp.ptiles[0])
        seen: set[Tile] = set()
        for b in blocks:
            assert seen.isdisjoint(b.tiles)
            seen |= set(b.tiles)

    def test_area_fractions_sum_to_one(self):
        sp = build_segment_ptiles(DEFAULT_GRID, focused_centers())
        ptile = sp.ptiles[0]
        total = ptile.area_fraction + sum(
            b.area_fraction for b in sp.remainder_for(ptile)
        )
        assert total == pytest.approx(1.0)

    def test_standalone_partition(self):
        sp = build_segment_ptiles(DEFAULT_GRID, focused_centers())
        ptile = sp.ptiles[0]
        blocks = partition_remainder(DEFAULT_GRID, ptile)
        assert blocks == sp.remainder_for(ptile)


class TestBuildVideoPtiles:
    def test_one_per_segment(self, small_dataset, video2, ptiles2):
        assert len(ptiles2) == video2.num_segments
        assert [sp.segment_index for sp in ptiles2] == list(
            range(video2.num_segments)
        )

    def test_focused_video_mostly_single_ptile(self, ptiles2):
        counts = [sp.num_ptiles for sp in ptiles2]
        assert sum(1 for c in counts if c <= 1) / len(counts) > 0.7

    def test_requires_traces(self, video2):
        with pytest.raises(ValueError):
            build_video_ptiles(video2, [], DEFAULT_GRID)


def _match_by_sets(segment, viewport, min_overlap=0.5):
    """``SegmentPtiles.match`` written over ``frozenset[Tile]``s."""
    if not segment.ptiles:
        return None
    grid = segment.ptiles[0].grid
    fov = grid.viewport_tiles(viewport)

    def overlap(ptile):
        return len(fov & ptile.tiles) / len(fov) if fov else 0.0

    best = max(segment.ptiles, key=lambda p: (overlap(p), -p.index))
    if grid.tile_at(viewport.yaw, viewport.pitch) in best.tiles:
        return best
    if overlap(best) >= min_overlap:
        return best
    return None


class TestMaskedOverlap:
    """``Ptile.contains``/``viewport_overlap`` answer from integer tile
    masks; they must agree with the set form on recorded viewports."""

    @pytest.fixture(scope="class")
    def recorded(self, small_dataset, ptiles2, ptiles8):
        cases = []
        for vid, segments in ((2, ptiles2), (8, ptiles8)):
            for trace in small_dataset.test_traces(vid):
                for step in range(10 * len(segments)):
                    t = step / 10
                    cases.append((segments[int(t)], trace.viewport_at(t)))
        assert len(cases) >= 2000
        return cases

    def test_match_equals_set_form(self, recorded):
        matched = 0
        for segment, vp in recorded:
            got = segment.match(vp)
            assert got is _match_by_sets(segment, vp)
            matched += got is not None
            fov = DEFAULT_GRID.viewport_tiles(vp)
            tile = DEFAULT_GRID.tile_at(vp.yaw, vp.pitch)
            for ptile in segment.ptiles:
                assert ptile.viewport_overlap(vp) == (
                    len(fov & ptile.tiles) / len(fov)
                )
                assert ptile.contains(vp.yaw, vp.pitch) is (tile in ptile.tiles)
        assert 0 < matched < len(recorded)

    def test_match_compares_no_tiles(self, recorded, monkeypatch):
        calls = [0]
        tile_eq = Tile.__eq__

        def counting_eq(self, other):
            calls[0] += 1
            return tile_eq(self, other)

        monkeypatch.setattr(Tile, "__eq__", counting_eq)
        for segment, vp in recorded:
            _match_by_sets(segment, vp)
        by_sets = calls[0]
        calls[0] = 0
        for segment, vp in recorded:
            segment.match(vp)
        assert by_sets > 0
        assert calls[0] == 0

    def test_viewport_mask_is_the_memoized_tile_set(self, recorded):
        grid = DEFAULT_GRID
        for _, vp in recorded[:200]:
            mask = grid.viewport_mask(vp)
            assert mask == sum(
                1 << (t.row * grid.cols + t.col)
                for t in grid.viewport_tiles(vp)
            )
        assert grid.__getstate__()["_viewport_cache"] == {}
