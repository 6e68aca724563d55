"""Size-oracle parity: manifest sizes are a fixed function of their inputs.

The manifest's size table factors every size into a per-area encoder
formula vector and a per-region noise draw.  These tests pin that every
table entry and every scalar reader is bit-identical to asking the
encoder directly with the region's noise key; that the per-level totals
the schemes read equal the left fold of the scalar sizes in
set-iteration order (:func:`repro.fold_sum`, on every interpreter);
that a golden digest of every size of one video never moves; that a
cold run draws each region's noise exactly once; and that pickling a
warmed manifest changes nothing.
"""

from __future__ import annotations

import builtins
import dataclasses
import hashlib
import math
import pickle
import struct
import sys
import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import fold_sum
from repro.core import OursScheme, PlanTables
from repro.encoding.ladder import EncodingLadder
from repro.geometry import DEFAULT_GRID, TileGrid
from repro.power import PIXEL_3
from repro.ptile.construction import RemainderBlock
from repro.qoe import QualityModel
from repro.streaming import NontileScheme, run_session
from repro.streaming.schemes import _level_totals, ctile_sizes, ptile_sizes
from repro.video import DEFAULT_LADDER, EncoderModel, VideoManifest
from repro.video.encoder import _stable_key_ints
from repro.video.segments import SegmentManifest

# SHA-256 over every size of video 2 of the small dataset (see
# _size_records), recorded before the manifest memoized noise.  A change
# here means every cached artifact and results row is stale.
GOLDEN_SIZES_SHA256 = (
    "06580a3c03c741d70bd62fe7c1e67c1cc35a00afa859f3596fe1a287a5a74346"
)

_RATES = DEFAULT_LADDER.rates()
_FPS = DEFAULT_LADDER.fps


def _size_records(manifest: VideoManifest, ptiles) -> list[tuple[str, float]]:
    """Every size one video's sessions can ask for, in a fixed order."""
    levels = manifest.encoder.ladder.levels
    records: list[tuple[str, float]] = []
    for seg, seg_ptiles in zip(manifest, ptiles):
        s = seg.segment_index
        for tile in DEFAULT_GRID.tiles():
            for q in levels:
                records.append(
                    (f"{s}/tile/{tile.row}/{tile.col}/{q}", seg.tile_size_mbit(tile, q))
                )
        # Nontile's quarter-step ladder over the whole frame.
        for i in range(4 * (len(levels) - 1) + 1):
            q = 1.0 + 0.25 * i
            records.append((f"{s}/frame/{q}", seg.full_frame_size_mbit(q)))
        for ptile in seg_ptiles.ptiles:
            for q in levels:
                records.append((
                    f"{s}/{ptile.region_key}/{q}",
                    seg.region_size_mbit(ptile.region_key, ptile.area_fraction, q),
                ))
                for rate in _RATES:
                    records.append((
                        f"{s}/{ptile.region_key}/{q}/{rate}",
                        seg.region_size_mbit(
                            ptile.region_key, ptile.area_fraction, q,
                            frame_rate=rate, fps=_FPS,
                        ),
                    ))
            for block in seg_ptiles.remainder_for(ptile):
                records.append((
                    f"{s}/{block.key}/1",
                    seg.region_size_mbit(block.key, block.area_fraction, 1),
                ))
    return records


def _digest(records: list[tuple[str, float]]) -> str:
    h = hashlib.sha256()
    for label, size in records:
        h.update(label.encode("utf-8"))
        h.update(struct.pack("<d", size))
    return h.hexdigest()


def test_golden_size_digest(video2, ptiles2):
    manifest = VideoManifest(video2, EncoderModel())
    records = _size_records(manifest, ptiles2)
    assert len(records) == 6091
    assert _digest(records) == GOLDEN_SIZES_SHA256


def _table_is_cold(seg: SegmentManifest) -> bool:
    return (seg._tiles is None and not seg._g and not seg._levels
            and not seg._noise)


def test_pickle_round_trip_keeps_sizes(video2, ptiles2):
    manifest = VideoManifest(video2, EncoderModel())
    warm = _size_records(manifest, ptiles2)
    assert not any(_table_is_cold(seg) for seg in manifest)
    restored = pickle.loads(pickle.dumps(manifest))
    # The table (sizes and noise factors alike) is dropped, not shipped.
    assert all(_table_is_cold(seg) for seg in restored)
    assert _size_records(restored, ptiles2) == warm
    assert pickle.dumps(restored) == pickle.dumps(VideoManifest(
        video2, EncoderModel()))


def test_threads_racing_on_a_cold_table_read_identical_sizes(video2, ptiles2):
    # The decision service plans on threads that share one manifest: a
    # first touch may be built by several of them at once, and each must
    # still read whole entries equal to a single-threaded build.
    want = _size_records(VideoManifest(video2, EncoderModel()), ptiles2)
    shared = VideoManifest(video2, EncoderModel())
    got: list = [None] * 4

    def read(i: int) -> None:
        got[i] = _size_records(shared, ptiles2)

    threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 4


def test_cold_run_draws_each_noise_key_once(
    video2, ptiles2, small_dataset, network_traces
):
    manifest = VideoManifest(video2, EncoderModel())
    geometries = {
        (p.region_key, p.tiles): p for sp in ptiles2 for p in sp.ptiles
    }
    drawn: list[tuple] = []
    real = EncoderModel.noise_factor

    def counting(encoder, key):
        drawn.append(key)
        return real(encoder, key)

    with mock.patch.object(EncoderModel, "noise_factor", counting):
        run_session(OursScheme(device=PIXEL_3), manifest,
                    small_dataset.test_traces(2)[0], network_traces[1],
                    PIXEL_3, ptiles=ptiles2)
        in_session = len(drawn)
        tables = PlanTables(tuple(manifest), DEFAULT_LADDER.rates(),
                            manifest.fps, QualityModel())
        tables.prime(geometries.values())
    # One draw per region, not one per (quality, frame rate) version.
    assert 0 < in_session <= len(drawn)
    assert len(drawn) == len(set(drawn))


def test_size_tensor_memo_keys_on_the_tile_set(video2, ptiles2):
    """Equal geometries share one tensor whichever object carries them; a
    same-index Ptile with other tiles gets its own."""
    manifest = VideoManifest(video2, EncoderModel())
    tables = PlanTables(tuple(manifest), DEFAULT_LADDER.rates(),
                        manifest.fps, QualityModel())
    ptile = next(p for sp in ptiles2 for p in sp.ptiles if p.n_tiles > 1)
    twin = pickle.loads(pickle.dumps(ptile))
    assert twin == ptile and twin.tiles is not ptile.tiles
    assert tables.sizes_for(twin) is tables.sizes_for(ptile)
    other = dataclasses.replace(ptile, tiles=ptile.tiles - {min(ptile.tiles)})
    assert other.region_key == ptile.region_key
    assert twin.tile_mask == ptile.tile_mask != other.tile_mask
    tensor = tables.sizes_for(other)
    assert tensor is not tables.sizes_for(ptile)
    fresh = PlanTables(tuple(manifest), DEFAULT_LADDER.rates(),
                       manifest.fps, QualityModel())
    assert np.array_equal(tensor, fresh.sizes_for(other))
    assert not np.array_equal(tensor, tables.sizes_for(ptile))
    # The mask is derived state: a pickled Ptile keeps its bytes.
    assert "tile_mask" not in ptile.__getstate__()


def test_frame_levels_and_rungs_share_formula_entries(manifest2):
    """A fault plan's integer and fractional frame sizes and Nontile's
    rungs evaluate the formula once per (area, quality) between them."""
    seg = pickle.loads(pickle.dumps(manifest2[0]))  # a cold table
    evaluated: list[tuple] = []
    real = EncoderModel.region_size_mbit

    def counting(encoder, quality, si, ti, area_fraction, **kwargs):
        evaluated.append((area_fraction, quality))
        return real(encoder, quality, si, ti, area_fraction, **kwargs)

    rungs = NontileScheme().qualities(seg.encoder.ladder.num_levels)
    with mock.patch.object(EncoderModel, "region_size_mbit", counting):
        seg.full_frame_size_mbit(1)
        seg.full_frame_size_mbit(3.25)
        seg.frame_sizes(rungs)
        seg.full_frame_size_mbit(3.0)
    assert len(evaluated) == len(set(evaluated)) == len(rungs)


# ----------------------------------------------------------------------
# Manifest sizes == the encoder asked directly with the region's key
# ----------------------------------------------------------------------


@st.composite
def ladders(draw):
    """Valid non-default ladders: descending CRFs spaced >= 1 in [0, 51]."""
    n = draw(st.integers(2, 7))
    top = draw(st.floats(30.0, 51.0))
    crfs = [top]
    for _ in range(n - 1):
        crfs.append(crfs[-1] - draw(st.floats(1.0, 4.0)))
    return EncodingLadder(crfs=tuple(crfs))


@st.composite
def encoders(draw):
    return EncoderModel(
        noise_sigma=draw(st.sampled_from([0.0, 0.12]) | st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**40)),
        ladder=draw(st.just(EncodingLadder()) | ladders()),
    )


@st.composite
def queries(draw, levels: int):
    """A region query: (area, quality, frame_rate, fps)."""
    fps = draw(st.sampled_from([30.0, 60.0]) | st.floats(1.0, 120.0))
    quality = draw(
        st.integers(1, levels) | st.floats(1.0, float(levels))
    )
    frame_rate = draw(st.none() | st.floats(1e-3, 1.0).map(lambda f: f * fps))
    area = draw(st.floats(1e-4, 1.0))
    return area, quality, frame_rate, fps


segment_fields = st.tuples(
    st.integers(0, 2**31), st.integers(0, 10_000),
    st.floats(15.0, 50.0), st.floats(3.0, 25.0),
)


@given(encoders(), segment_fields, st.data())
@settings(max_examples=80, deadline=None)
def test_region_sizes_equal_encoder(encoder, fields, data):
    video_id, segment_index, si, ti = fields
    seg = SegmentManifest(video_id, segment_index, si, ti, encoder)
    levels = encoder.ladder.num_levels
    region_keys = data.draw(
        st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=3)
    )
    # Several versions per region, so later ones reuse the memoized noise.
    for _ in range(data.draw(st.integers(1, 6))):
        region_key = data.draw(st.sampled_from(region_keys))
        area, quality, frame_rate, fps = data.draw(queries(levels))
        got = seg.region_size_mbit(
            region_key, area, quality, frame_rate=frame_rate, fps=fps
        )
        want = encoder.region_size_mbit(
            quality, si, ti, area, frame_rate=frame_rate, fps=fps,
            noise_key=(video_id, segment_index, region_key),
        )
        assert got == want


@given(encoders(), segment_fields, st.data())
@settings(max_examples=60, deadline=None)
def test_tile_sizes_equal_encoder(encoder, fields, data):
    video_id, segment_index, si, ti = fields
    seg = SegmentManifest(video_id, segment_index, si, ti, encoder)
    levels = encoder.ladder.num_levels
    for _ in range(data.draw(st.integers(1, 6))):
        tile = data.draw(st.sampled_from(tuple(DEFAULT_GRID.tiles())))
        quality = data.draw(st.integers(1, levels) | st.floats(1.0, levels))
        want = encoder.tile_size_mbit(
            quality, si, ti,
            noise_key=(video_id, segment_index, "tile", tile.row, tile.col),
        )
        assert seg.tile_size_mbit(tile, quality) == want
        assert seg.full_frame_size_mbit(quality) == encoder.region_size_mbit(
            quality, si, ti, 1.0, noise_key=(video_id, segment_index, "frame"),
        )


# ----------------------------------------------------------------------
# The encoder's factor memo == the formula evaluated whole
# ----------------------------------------------------------------------


def _formula(encoder: EncoderModel, quality, si, ti, area_fraction,
             frame_rate=None, fps=30.0, noise_key=None) -> float:
    """``region_size_mbit`` written out with no memo."""
    n = area_fraction * encoder.grid.num_tiles
    bitrate = encoder.full_frame_bitrate_mbps(quality, si, ti)
    unit_bits = bitrate * encoder.segment_seconds / encoder.grid.num_tiles
    content = bitrate * encoder.segment_seconds * area_fraction
    content *= encoder.efficiency(n, quality)
    overhead = (encoder.overhead_fraction(quality) * unit_bits
                * max(n, 0.05) ** 0.25)
    size = content + overhead
    if frame_rate is not None:
        size *= encoder.frame_rate_factor(frame_rate, fps)
    if noise_key is not None:
        size *= encoder.noise_factor(noise_key)
    return size


def _areas(num_tiles: int):
    """Areas below the 0.05-tile floor, up to the 9-tile peak, on the
    9-16-tile plateau and between the plateau and the full frame."""
    tile = 1.0 / num_tiles
    return (st.floats(1e-6, 0.05 * tile)
            | st.floats(0.05 * tile, 9.0 * tile)
            | st.floats(9.0 * tile, 16.0 * tile)
            | st.floats(16.0 * tile, 1.0)
            | st.sampled_from([tile, 9.0 * tile, 16.0 * tile, 1.0]))


@given(encoders(), st.data())
@settings(max_examples=80, deadline=None)
def test_memoized_formula_equals_the_formula(encoder, data):
    levels = encoder.ladder.num_levels
    num_tiles = encoder.grid.num_tiles
    # Repeat (area, quality) pairs under other content, so later calls
    # read the memo.
    pairs = data.draw(st.lists(st.tuples(
        _areas(num_tiles),
        st.integers(1, levels) | st.floats(1.0, float(levels)),
    ), min_size=1, max_size=4))
    for _ in range(data.draw(st.integers(1, 12))):
        area, quality = data.draw(st.sampled_from(pairs))
        si, ti = data.draw(segment_fields)[2:]
        frame_rate = data.draw(st.none() | st.sampled_from([10.0, 15.0]))
        key = data.draw(st.none() | st.tuples(st.integers(0, 9)))
        got = encoder.region_size_mbit(quality, si, ti, area,
                                       frame_rate=frame_rate, noise_key=key)
        want = _formula(encoder, quality, si, ti, area, frame_rate,
                        noise_key=key)
        assert struct.pack("<d", got) == struct.pack("<d", want)


def test_warm_encoder_pickles_like_a_fresh_one():
    fresh = EncoderModel()
    warm = EncoderModel()
    for area in (1 / 32, 9 / 32, 0.001, 0.8, 1.0):
        for quality in (1, 2.5, 5):
            warm.region_size_mbit(quality, 30.0, 12.0, area)
    assert warm._factors
    assert pickle.dumps(warm) == pickle.dumps(fresh)
    cold = pickle.loads(pickle.dumps(warm))
    assert cold == warm and not cold._factors
    # Invalid queries raise every time and leave no entry.
    for _ in range(2):
        with pytest.raises(ValueError):
            cold.region_size_mbit(6, 30.0, 12.0, 0.5)
    assert not cold._factors


# ----------------------------------------------------------------------
# Size-table entries == the scalar encoder path
# ----------------------------------------------------------------------


def _scalar(seg: SegmentManifest, key: tuple, area: float, quality: float,
            frame_rate: float | None = None, fps: float = 30.0) -> float:
    """The encoder asked directly: one formula call, one noise draw."""
    return seg.encoder.region_size_mbit(
        quality, seg.si, seg.ti, area, frame_rate=frame_rate, fps=fps,
        noise_key=(seg.video_id, seg.segment_index) + key,
    )


def _check_table(seg: SegmentManifest, regions, rates, fps, steps) -> None:
    """Every entry of ``seg``'s table against the scalar encoder path."""
    encoder = seg.encoder
    levels = encoder.ladder.levels
    grid = encoder.grid
    tiles = seg.tile_sizes()
    assert tiles.shape == (grid.num_tiles, len(levels))
    for t in grid.tiles():
        for vi, q in enumerate(levels):
            assert tiles[t.row * grid.cols + t.col, vi] == _scalar(
                seg, ("tile", t.row, t.col), 1.0 / grid.num_tiles, q)
    factors = np.array([encoder.frame_rate_factor(r, fps) for r in rates])
    for key, area in regions:
        row = seg.region_sizes(key, area)
        by_rate = seg.region_sizes(key, area, factors)
        assert row.shape == (len(levels),)
        assert by_rate.shape == (len(levels), len(rates))
        for vi, q in enumerate(levels):
            assert row[vi] == _scalar(seg, (key,), area, q)
            for fi, rate in enumerate(rates):
                assert by_rate[vi, fi] == _scalar(seg, (key,), area, q,
                                                  frame_rate=rate, fps=fps)
    for step in steps:
        rungs = NontileScheme(ladder_step=step).qualities(len(levels))
        frame = seg.frame_sizes(rungs)
        assert frame.shape == (len(rungs),)
        for i, q in enumerate(rungs):
            assert frame[i] == _scalar(seg, ("frame",), 1.0, q)


def test_video_table_equals_scalar_encoder(video2, ptiles2, ftiles2):
    """Tiles, Ftile cells, Ptile regions, remainder blocks, Nontile
    levels and MPC frame rates of one real video."""
    manifest = VideoManifest(video2, EncoderModel())
    for seg, sp, partition in zip(manifest, ptiles2, ftiles2):
        regions = [(c.key, c.area_fraction) for c in partition.cells]
        for ptile in sp.ptiles:
            regions.append((ptile.region_key, ptile.area_fraction))
            regions.extend(
                (b.key, b.area_fraction) for b in sp.remainder_for(ptile))
        _check_table(seg, regions, _RATES, _FPS, steps=(0.25,))


_REGION_KEYS = ("ptile-0", "ptile-3", "ftile-7", "rem-0-top", "rem-2-side")


@given(encoders(), segment_fields, st.data())
@settings(max_examples=40, deadline=None)
def test_table_entries_equal_scalar_encoder(encoder, fields, data):
    seg = SegmentManifest(*fields, encoder)
    regions = data.draw(st.lists(
        st.tuples(
            st.sampled_from(_REGION_KEYS),
            st.integers(1, 32).map(lambda n: n / 32) | st.floats(1e-4, 1.0),
        ),
        max_size=4,
    ))
    fps = data.draw(st.sampled_from([30.0, 60.0]) | st.floats(1.0, 120.0))
    rates = data.draw(st.lists(
        st.floats(1e-3, 1.0).map(lambda f: f * fps), min_size=1, max_size=4))
    steps = data.draw(st.lists(
        st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.05, 5.0),
        min_size=1, max_size=2))
    _check_table(seg, regions, rates, fps, steps)


# ----------------------------------------------------------------------
# Per-level totals == per-level left fold in set-iteration order
# ----------------------------------------------------------------------


@given(encoders(), segment_fields,
       st.frozensets(st.sampled_from(tuple(DEFAULT_GRID.tiles()))))
@settings(max_examples=60, deadline=None)
def test_ctile_totals_equal_sum_in_iteration_order(encoder, fields, fov):
    seg = SegmentManifest(*fields, encoder)
    grid = encoder.grid
    tile = 1.0 / grid.num_tiles
    background = fold_sum(_scalar(seg, ("tile", t.row, t.col), tile, 1)
                          for t in set(grid.tiles()) - fov)
    want = [
        fold_sum(_scalar(seg, ("tile", t.row, t.col), tile, q) for t in fov)
        + background
        for q in encoder.ladder.levels
    ]
    assert ctile_sizes(seg, fov) == want


def test_empty_tile_set_is_zero_plus_background(manifest2):
    seg = manifest2[0]
    grid = seg.grid
    background = fold_sum(
        _scalar(seg, ("tile", t.row, t.col), 1 / grid.num_tiles, 1)
        for t in set(grid.tiles()))
    assert ctile_sizes(seg, frozenset()) == [
        0 + background for _ in seg.encoder.ladder.levels]


@given(encoders(), segment_fields, st.data())
@settings(max_examples=60, deadline=None)
def test_ptile_totals_equal_sum_in_iteration_order(encoder, fields, data):
    seg = SegmentManifest(*fields, encoder)
    area = st.integers(1, 32).map(lambda n: n / 32)
    ptile = SimpleNamespace(
        region_key=data.draw(st.sampled_from(_REGION_KEYS)),
        area_fraction=data.draw(area),
    )
    remainder = [
        RemainderBlock(key=f"rem-0-{i}", tiles=frozenset(), area_fraction=a)
        for i, a in enumerate(data.draw(st.lists(area, max_size=3)))
    ]
    background = fold_sum(_scalar(seg, (b.key,), b.area_fraction, 1)
                          for b in remainder)
    want = [
        _scalar(seg, (ptile.region_key,), ptile.area_fraction, q) + background
        for q in encoder.ladder.levels
    ]
    assert ptile_sizes(seg, ptile, remainder) == want


@given(st.lists(st.lists(st.floats(0.0, 1e3), min_size=3, max_size=3),
                max_size=12),
       st.lists(st.floats(0.0, 1e3), max_size=12))
# Left-to-right addition and a compensated sum() (3.12+) disagree here.
@example(rows=[[1.0] * 3, [1e16] * 3, [1.0] * 3], lowest=[1.0, 1e16, 1.0])
def test_level_totals_equal_per_level_sum(rows, lowest):
    assert _level_totals(rows, lowest, 3) == [
        fold_sum(r[v] for r in rows) + fold_sum(lowest) for v in range(3)]


def _compensated_sum(values, start=0):
    """CPython 3.12's float ``sum()``: Neumaier-compensated addition."""
    total, compensation = start, 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


@given(encoders(), segment_fields,
       st.frozensets(st.sampled_from(tuple(DEFAULT_GRID.tiles()))))
@settings(max_examples=30, deadline=None)
def test_totals_follow_the_interpreters_sum(encoder, fields, fov):
    # The totals are the left fold of the scalar sizes on every
    # interpreter: a compensated builtin sum() (CPython 3.12+) must not
    # change them.
    seg = SegmentManifest(*fields, encoder)
    grid = encoder.grid
    tile = 1.0 / grid.num_tiles
    with mock.patch.object(builtins, "sum", _compensated_sum):
        got = ctile_sizes(seg, fov)
        spread = _level_totals(
            [[1.0] * 3, [1e16] * 3, [1.0] * 3], [1.0, 1e16, 1.0], 3)
    background = fold_sum(
        _scalar(seg, ("tile", t.row, t.col), tile, 1)
        for t in set(grid.tiles()) - fov)
    assert got == [
        fold_sum(_scalar(seg, ("tile", t.row, t.col), tile, q)
                 for t in fov) + background
        for q in encoder.ladder.levels
    ]
    assert spread == [2e16] * 3
    assert _compensated_sum([1.0, 1e16, 1.0]) == 1e16 + 2.0


def test_fold_sum_is_a_left_fold():
    assert fold_sum([1e16, 1.0, -1e16]) == 0.0
    assert _compensated_sum([1e16, 1.0, -1e16]) == 1.0
    # The builtin sum()'s start: an empty total stays the int 0.
    assert fold_sum([]) == 0 and type(fold_sum([])) is int
    assert fold_sum([0.5], 0.25) == 0.75


@given(st.integers(1, 6), st.integers(1, 9), st.data())
def test_tile_set_iterates_like_a_fresh_set(rows, cols, data):
    grid = TileGrid(rows, cols)
    removed = data.draw(st.frozensets(st.sampled_from(tuple(grid.tiles()))))
    assert list(grid.tile_set) == list(set(grid.tiles()))
    assert list(grid.tile_set - removed) == list(set(grid.tiles()) - removed)


# ----------------------------------------------------------------------
# EncoderModel.noise_factor and parameter validation
# ----------------------------------------------------------------------


class TestNoiseFactor:
    @given(st.integers(0, 2**64), st.floats(1e-6, 2.0),
           st.lists(st.integers(0, 2**40) | st.text(max_size=8), max_size=6))
    def test_equals_default_rng_draw(self, seed, sigma, key):
        enc = EncoderModel(seed=seed, noise_sigma=sigma)
        rng = np.random.default_rng(
            [seed & 0xFFFFFFFF] + _stable_key_ints(tuple(key)))
        want = float(math.exp(rng.normal(-0.5 * sigma * sigma, sigma)))
        assert enc.noise_factor(tuple(key)) == want

    def test_zero_sigma_is_exactly_one(self):
        assert EncoderModel(noise_sigma=0.0).noise_factor((1, 2, "x")) == 1.0

    def test_deterministic_and_key_dependent(self):
        enc = EncoderModel()
        assert enc.noise_factor((1, 2, "x")) == enc.noise_factor((1, 2, "x"))
        assert enc.noise_factor((1, 2, "x")) != enc.noise_factor((1, 2, "y"))
        assert enc.noise_factor((1, 2, "x")) != EncoderModel(
            seed=7).noise_factor((1, 2, "x"))

    def test_sizes_scale_by_the_factor(self):
        enc = EncoderModel()
        key = (3, 4, "ptile-0")
        plain = enc.region_size_mbit(3, 33.0, 14.0, 0.25, frame_rate=24.0)
        noisy = enc.region_size_mbit(3, 33.0, 14.0, 0.25, frame_rate=24.0,
                                     noise_key=key)
        assert noisy == plain * enc.noise_factor(key)


class TestContentFactor:
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_content_factor_matches_np_clip(self, x):
        # content_factor clamps 0.35 + 0.011 si + 0.022 ti into
        # [0.3, 2.5]; with ti = 0 that is the clamp of any float.
        si = (x - 0.35) / 0.011
        enc = EncoderModel()
        got = enc.content_factor(si, 0.0)
        want = float(np.clip(0.35 + 0.011 * si + 0.022 * 0.0, 0.3, 2.5))
        assert struct.pack("<d", got) == struct.pack("<d", want)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("field", [
        "segment_seconds", "ref_bitrate_mbps", "noise_sigma",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejected(self, field, value):
        with pytest.raises(ValueError):
            EncoderModel(**{field: value})

    def test_nan_sigma_no_longer_serves_noise_free_sizes(self):
        # NaN used to pass `noise_sigma < 0` and then `noise_sigma > 0`,
        # so sizes silently came out noise-free.
        with pytest.raises(ValueError, match="noise sigma"):
            EncoderModel(noise_sigma=math.nan)

    def test_finite_edges_still_accepted(self):
        assert EncoderModel(noise_sigma=0.0).noise_sigma == 0.0
        assert EncoderModel(segment_seconds=1e-9).segment_seconds == 1e-9
