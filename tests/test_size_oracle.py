"""Size-oracle parity: manifest sizes are a fixed function of their inputs.

The manifest memoizes the per-region encoder noise and multiplies it
into the encoder's noise-free size.  These tests pin that the result is
bit-identical to asking the encoder directly with the region's noise
key, that a golden digest of every size of one video never moves, that
a cold run draws each region's noise exactly once, and that pickling a
warmed manifest changes nothing.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OursScheme, PlanTables
from repro.encoding.ladder import EncodingLadder
from repro.geometry import DEFAULT_GRID
from repro.power import PIXEL_3
from repro.qoe import QualityModel
from repro.streaming import run_session
from repro.video import DEFAULT_LADDER, EncoderModel, VideoManifest
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


def test_pickle_round_trip_keeps_sizes(video2, ptiles2):
    manifest = VideoManifest(video2, EncoderModel())
    warm = _size_records(manifest, ptiles2)
    assert all(len(seg._size_cache) > 0 for seg in manifest)
    restored = pickle.loads(pickle.dumps(manifest))
    # The memo (sizes and noise factors alike) is dropped, not shipped.
    assert all(len(seg._size_cache) == 0 for seg in restored)
    assert _size_records(restored, ptiles2) == warm


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
# EncoderModel.noise_factor and parameter validation
# ----------------------------------------------------------------------


class TestNoiseFactor:
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
