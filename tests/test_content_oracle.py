"""Content-prep parity: production == the scalar reference loops.

FoV tiles, Alg. 1 neighbour and diameter tests, the head-trace
generator and the Ftile split are compared with ``==`` against
``tests/content_reference.py`` — including the iteration order of
every frozenset, since float sums taken over a set follow it, and the
pickled bytes of built Ptiles and Ftiles, which artifacts store.
"""

from __future__ import annotations

import math
import operator
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import DEFAULT_GRID, FTILE_BLOCK_GRID, Rect, TileGrid, Viewport
from repro.geometry import tiling
from repro.ptile import build_video_ptiles, construction
from repro.ptile.clustering import (
    ViewingCenter,
    _PairDistances,
    cluster_viewing_centers,
)
from repro.streaming import build_video_ftiles
from repro.streaming.ftile import _popularity_map, build_ftile_partition
from repro.traces.synthetic_users import (
    BehaviorParams,
    generate_roi_path,
    generate_user_trace,
)
from repro.video.content import build_catalog

from .content_reference import (
    build_ftile_partition_reference,
    cluster_viewing_centers_reference,
    diameter_reference,
    generate_user_trace_reference,
    popularity_map_reference,
    tiles_overlapping_reference,
    viewport_tiles_reference,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

_EDGES = [0.0, 12.0, 45.0, 90.0, 180.0, 315.0, 348.0]


def _near(values):
    """Each value, and the doubles one ulp either side of it."""
    out = []
    for v in values:
        out += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
    return out


yaws = (
    st.floats(0.0, 360.0, exclude_max=True)
    | st.sampled_from(_near(_EDGES) + [math.nextafter(360.0, 0.0), 1e-300])
    | st.floats(-720.0, 720.0)
)
pitches = (
    st.floats(-90.0, 90.0)
    | st.sampled_from(_near([-90.0, -45.0, 0.0, 45.0, 90.0]))
    | st.floats(89.0, 90.0)
    | st.floats(-90.0, -89.0)
)
fov_hs = st.floats(1e-3, 360.0) | st.sampled_from([100.0, 90.0, 45.0, 360.0])
fov_vs = st.floats(1e-3, 180.0) | st.sampled_from([100.0, 90.0, 45.0, 180.0])
viewports = st.builds(Viewport, yaws, pitches, fov_hs, fov_vs)
grids = (
    st.sampled_from([DEFAULT_GRID, FTILE_BLOCK_GRID])
    | st.builds(TileGrid, st.integers(1, 7), st.integers(1, 13))
)
min_overlaps = st.sampled_from([0.0, 0.1, 0.5]) | st.floats(0.0, 0.999)


# ----------------------------------------------------------------------
# FoV tiles
# ----------------------------------------------------------------------


@given(grids, viewports, min_overlaps)
@settings(max_examples=400, deadline=None)
@example(DEFAULT_GRID, Viewport(0.0, 0.0), 0.1)
@example(DEFAULT_GRID, Viewport(359.9, 89.9, 360.0, 100.0), 0.1)
@example(DEFAULT_GRID, Viewport(1e-200, 0.0, 1e-200, 1e-200), 0.0)
@example(DEFAULT_GRID, Viewport(5.00000000000002, 0.0, 350.0, 1e-315), 0.0)  # underflow
@example(FTILE_BLOCK_GRID, Viewport(10.0, -90.0, 100.0, 180.0), 0.1)
def test_viewport_tiles_equal_reference_in_order(grid, viewport, min_overlap):
    grid._viewport_cache.clear()
    got = grid.viewport_tiles(viewport, min_overlap)
    want = viewport_tiles_reference(grid, viewport, min_overlap)
    assert got == want
    assert list(got) == list(want)
    assert grid.viewport_tiles(viewport, min_overlap) is got  # memoized


@st.composite
def rects(draw):
    x0 = draw(st.floats(0.0, 360.0) | st.sampled_from(_near(_EDGES)))
    y0 = draw(st.floats(-90.0, 90.0) | st.sampled_from(_near([-90.0, 0.0, 45.0])))
    x1 = x0 + draw(st.floats(0.0, 400.0) | st.sampled_from([45.0, 90.0]))
    y1 = y0 + draw(st.floats(0.0, 180.0))
    return Rect(x0, y0, x1, y1)


@given(grids, rects(), st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999))
@settings(max_examples=300, deadline=None)
def test_tiles_overlapping_equal_reference_in_order(grid, rect, min_overlap):
    got = grid.tiles_overlapping(rect, min_overlap)
    want = tiles_overlapping_reference(grid, rect, min_overlap)
    assert got == want
    assert list(got) == list(want)
    assert pickle.dumps(got) == pickle.dumps(want)


def test_grid_pickle_state_has_no_derived_fields():
    grid = TileGrid(4, 8)
    grid.viewport_tiles(Viewport(30.0, 10.0))
    state = grid.__getstate__()
    assert list(state) == ["rows", "cols", "tile_width", "tile_height",
                           "_viewport_cache"]
    assert state["_viewport_cache"] == {}
    restored = pickle.loads(pickle.dumps(grid))
    assert pickle.dumps(restored) == pickle.dumps(TileGrid(4, 8))
    vp = Viewport(200.0, -30.0)
    assert list(restored.viewport_tiles(vp)) == list(
        viewport_tiles_reference(restored, vp))


def test_viewport_memo_is_bounded(monkeypatch):
    assert tiling.VIEWPORT_CACHE_CAP == 1 << 16
    monkeypatch.setattr(tiling, "VIEWPORT_CACHE_CAP", 8)
    grid = TileGrid(4, 8)
    vps = [Viewport(7.0 * i, -60.0 + 3.0 * (i % 40)) for i in range(50)]
    first = [grid.viewport_tiles(vp) for vp in vps]
    assert len(grid._viewport_cache) <= 8
    # Cleared and recomputed entries are equal, in the same order.
    for vp, before in zip(vps, first):
        again = grid.viewport_tiles(vp)
        assert list(again) == list(before)
        assert len(grid._viewport_cache) <= 8


# ----------------------------------------------------------------------
# Alg. 1: neighbour sets and the diameter test
# ----------------------------------------------------------------------


@st.composite
def center_sets(draw):
    n = draw(st.integers(1, 24))
    spread = draw(st.sampled_from([5.0, 30.0, 360.0]))
    base = draw(st.floats(0.0, 360.0))
    centers = []
    for uid in draw(st.lists(st.integers(0, 200), min_size=n, max_size=n,
                             unique=True)):
        yaw = draw(st.floats(base - spread, base + spread)) % 360.0
        pitch = draw(st.floats(-85.0, 85.0) | st.sampled_from([-90.0, 90.0]))
        centers.append(ViewingCenter(uid, yaw, pitch))
    return centers


@st.composite
def lattice_center_sets(draw):
    """Centres on a lattice of step ``delta`` (and 3-4-5 offsets), so many
    pairs lie exactly ``delta`` or ``sigma`` apart."""
    delta = draw(st.sampled_from([11.25, 3.0, 0.5, 5.0]))
    n = draw(st.integers(2, 20))
    centers = []
    for uid in range(n):
        i = draw(st.integers(-4, 4))
        j = draw(st.integers(-3, 3))
        scale = draw(st.sampled_from([1.0, 0.6, 0.8]))  # 3-4-5 legs
        yaw = (draw(st.sampled_from([0.0, 90.0, 355.0])) + i * delta * scale) % 360.0
        centers.append(ViewingCenter(uid, yaw, j * delta * scale))
    return centers, delta


sigmas_of = st.sampled_from([1.0, 2.0, 4.0, 1.5])


@given(center_sets(), st.floats(0.1, 60.0), sigmas_of, st.booleans())
@settings(max_examples=200, deadline=None)
def test_clustering_equals_reference(centers, delta, factor, recursive):
    sigma = delta * factor
    got = cluster_viewing_centers(centers, delta, sigma, recursive)
    want = cluster_viewing_centers_reference(centers, delta, sigma, recursive)
    assert got == want


@given(lattice_center_sets(), sigmas_of, st.booleans())
@settings(max_examples=200, deadline=None)
def test_clustering_equals_reference_at_exact_distances(data, factor, recursive):
    centers, delta = data
    sigma = delta * factor
    got = cluster_viewing_centers(centers, delta, sigma, recursive)
    want = cluster_viewing_centers_reference(centers, delta, sigma, recursive)
    assert got == want


def _disagreeing_pairs(count: int = 40) -> list[tuple[ViewingCenter, ViewingCenter]]:
    """Pairs whose np.hypot and math.hypot distances differ by an ulp."""
    rng = np.random.default_rng(3)
    out = []
    while len(out) < count:
        yaw = rng.uniform(0.0, 360.0, (2000, 2))
        pitch = rng.uniform(-90.0, 90.0, (2000, 2))
        for (y1, y2), (p1, p2) in zip(yaw.tolist(), pitch.tolist()):
            a, b = ViewingCenter(0, y1, p1), ViewingCenter(1, y2, p2)
            pd = _PairDistances([a, b])
            if float(pd.dist[0, 1]) != a.distance_to(b):
                out.append((a, b))
    return out[:count]


@pytest.mark.parametrize("op", [operator.le, operator.gt])
def test_band_redecides_one_ulp_disagreements(op):
    pairs = _disagreeing_pairs()
    assert pairs
    for a, b in pairs:
        pd = _PairDistances([a, b])
        exact = a.distance_to(b)
        for limit in (exact, float(pd.dist[0, 1])):
            assert bool(pd.compare(op, limit)[0, 1]) == op(exact, limit)
            assert bool(pd.compare(op, limit, [1, 0])[1, 0]) == op(exact, limit)


@given(center_sets())
@settings(max_examples=100, deadline=None)
def test_pair_matrix_matches_distance_to(centers):
    nodes = sorted(centers)
    pd = _PairDistances(nodes)
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            exact = u.distance_to(v)
            assert abs(float(pd.dist[i, j]) - exact) <= 4 * math.ulp(exact)
            limit = exact if (i + j) % 2 else float(pd.dist[i, j])
            assert bool(pd.compare(operator.le, limit)[i, j]) == (exact <= limit)


# ----------------------------------------------------------------------
# Head-trace generator
# ----------------------------------------------------------------------

_CATALOG = {v.meta.video_id: v for v in build_catalog()}

behaviour_params = st.sampled_from([
    BehaviorParams(),
    # Every viewer on the secondary ROI, switching often; exploratory
    # users flip between following and exploring every few seconds.
    BehaviorParams(secondary_attention_share=1.0,
                   secondary_attention_share_exploratory=1.0,
                   secondary_switch_per_s=2.0, follow_to_explore_per_s=1.0,
                   explore_to_follow_per_s=1.0, waypoint_interval_s=(0.2, 0.5)),
    # Pitch targets far past the clip bounds.
    BehaviorParams(personal_offset_deg=80.0, jitter_deg=20.0,
                   waypoint_pitch_range=(-89.0, 89.0), sample_rate_hz=4.0),
])


@given(st.sampled_from(sorted(_CATALOG)), st.integers(0, 60),
       st.integers(0, 2**40), behaviour_params)
@settings(max_examples=40, deadline=None)
def test_user_trace_equals_reference(video_id, user_id, seed, params):
    video = _CATALOG[video_id]
    roi = generate_roi_path(video, params, seed=seed % 1000)
    got = generate_user_trace(video, user_id, roi, params, seed=seed)
    want = generate_user_trace_reference(video, user_id, roi, params, seed=seed)
    for name in ("timestamps", "yaw_unwrapped", "pitch"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert pickle.dumps(got) == pickle.dumps(want)


@given(st.floats(-5.0, 50.0) | st.sampled_from([0.0, -0.0, 30.0, 1e9]))
@settings(max_examples=100, deadline=None)
def test_orientation_at_clamps_like_np_clip(t):
    video = _CATALOG[2]
    trace = generate_user_trace(video, 0, generate_roi_path(video, seed=1))
    ts = trace.timestamps
    tc = float(np.clip(t, ts[0], ts[-1]))
    want_yaw = float(np.interp(tc, ts, trace.yaw_unwrapped)) % 360.0
    want_pitch = float(np.interp(tc, ts, trace.pitch))
    assert trace.orientation_at(t) == (want_yaw, want_pitch)


# ----------------------------------------------------------------------
# Ftile
# ----------------------------------------------------------------------


@given(st.lists(viewports, min_size=0, max_size=12),
       st.integers(1, 14),
       st.sampled_from([FTILE_BLOCK_GRID, DEFAULT_GRID])
       | st.builds(TileGrid, st.integers(1, 9), st.integers(1, 16)))
@settings(max_examples=150, deadline=None)
def test_ftile_partition_equals_reference(vps, n_tiles, grid):
    assert np.array_equal(_popularity_map(vps, grid),
                          popularity_map_reference(vps, grid))
    got = build_ftile_partition(vps, 3, n_tiles, grid)
    want = build_ftile_partition_reference(vps, 3, n_tiles, grid)
    assert got == want
    assert pickle.dumps(got) == pickle.dumps(want)


# ----------------------------------------------------------------------
# Whole-video builds: pickled bytes identical to the reference path
# ----------------------------------------------------------------------


@pytest.mark.parametrize("video_id", [2, 8])
def test_video_ptiles_pickle_equal_reference(small_dataset, video_id):
    video = small_dataset.video(video_id)
    train = small_dataset.train_traces(video_id)
    grid = TileGrid(4, 8)
    got = build_video_ptiles(video, train, grid)
    with mock.patch.object(TileGrid, "viewport_tiles", viewport_tiles_reference), \
         mock.patch.object(TileGrid, "tiles_overlapping",
                           tiles_overlapping_reference), \
         mock.patch.object(construction, "cluster_viewing_centers",
                           cluster_viewing_centers_reference):
        want = build_video_ptiles(video, train, TileGrid(4, 8))
    assert pickle.dumps(got) == pickle.dumps(want)
    for seg_got, seg_want in zip(got, want):
        for p, q in zip(seg_got.ptiles, seg_want.ptiles):
            assert list(p.tiles) == list(q.tiles)
            assert p.cluster.diameter() == diameter_reference(q.cluster)


@pytest.mark.parametrize("video_id", [2, 8])
def test_video_ftiles_pickle_equal_reference(small_dataset, video_id):
    video = small_dataset.video(video_id)
    train = small_dataset.train_traces(video_id)
    got = build_video_ftiles(video, train)
    want = [
        build_ftile_partition_reference(
            [t.viewport_at(seg.index + 0.5) for t in train], seg.index
        )
        for seg in video.segments
    ]
    assert pickle.dumps(got) == pickle.dumps(want)


def test_user_traces_of_small_dataset_equal_reference(small_dataset):
    # The fixture is built by production code; rebuild each trace with
    # the reference generator from the same seeds.
    params = BehaviorParams()
    for video_id, traces in small_dataset.traces.items():
        video = small_dataset.video(video_id)
        roi = generate_roi_path(video, params, seed=2017 + video_id)
        assert len(traces) == 16
        for trace in traces:
            want = generate_user_trace_reference(
                video, trace.user_id, roi, params,
                seed=2017 * 65537 + video_id * 1_000_003 + trace.user_id * 7907,
            )
            assert pickle.dumps(trace) == pickle.dumps(want)
