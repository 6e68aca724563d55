"""Content-prep goldens: head traces, Ptiles and Ftiles never move.

Content prep (synthetic head traces, Alg. 1 Ptiles, Ftile partitions)
feeds every artifact key and every session.  These SHA-256 values were
recorded over the small dataset's outputs before content prep was
rewritten as array code; a change here means every cached artifact and
results row built from that content is stale.

The encodings are canonical: tiles are sorted and every float is packed
as little-endian IEEE double, so the digests do not depend on set
iteration order or on the pickle format.  The order-sensitive checks
(``list(frozenset)``, pickled bytes) live in
``tests/test_content_oracle.py``, against the reference loops.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.geometry import DEFAULT_GRID
from repro.ptile import build_video_ptiles
from repro.streaming import build_video_ftiles

GOLDEN_TRACES_SHA256 = (
    "72247af9edc1a9c4f96f84df41aa57a5914e189a8f2cfffa485d3e157ee02226"
)
GOLDEN_PTILES_SHA256 = {
    2: "a352f205df4c415beacc9ffd6886d3b99cf5de365865ef4748fe38c75beb4d20",
    8: "04febeced7dcecab9be15c0be959eff3b94232ae11e942f35ff0a82a2578545c",
}
GOLDEN_FTILES_SHA256 = {
    2: "051c150989f070af33e52b2f80cb9e297dd5a9bd55595d455834e791ddacc091",
    8: "c7cbf5ea509ee151d122675041c360ba7f092847f5e62949192f950fa5e928f0",
}


def _pack(h, *values: float) -> None:
    h.update(struct.pack(f"<{len(values)}d", *values))


def _tiles(h, tiles) -> None:
    for tile in sorted(tiles):
        h.update(struct.pack("<2i", tile.row, tile.col))
    h.update(b"|")


def trace_digest(dataset) -> str:
    """Every sample of every head trace, in video then user order."""
    h = hashlib.sha256()
    for video_id in sorted(dataset.traces):
        for trace in dataset.traces[video_id]:
            h.update(struct.pack("<2i", video_id, trace.user_id))
            for array in (trace.timestamps, trace.yaw_unwrapped, trace.pitch):
                h.update(array.astype("<f8").tobytes())
    return h.hexdigest()


def ptiles_digest(video_ptiles) -> str:
    """Ptiles, clusters (with diameters) and remainder blocks."""
    h = hashlib.sha256()
    for seg in video_ptiles:
        h.update(f"seg {seg.segment_index} {seg.num_ptiles}".encode())
        for ptile in seg.ptiles:
            h.update(f"ptile {ptile.index}".encode())
            _tiles(h, ptile.tiles)
            r = ptile.rect
            _pack(h, r.x0, r.y0, r.x1, r.y1)
            for m in ptile.cluster.members:
                h.update(struct.pack("<i", m.user_id))
                _pack(h, m.yaw, m.pitch)
            _pack(h, ptile.cluster.diameter())
            for block in seg.remainder_for(ptile):
                h.update(block.key.encode())
                _tiles(h, block.tiles)
                _pack(h, block.area_fraction)
    return h.hexdigest()


def ftiles_digest(video_ftiles) -> str:
    """Every Ftile cell of every segment."""
    h = hashlib.sha256()
    for part in video_ftiles:
        h.update(f"seg {part.segment_index}".encode())
        for cell in part.cells:
            h.update(f"{cell.key} {cell.n_blocks}".encode())
            r = cell.rect
            _pack(h, r.x0, r.y0, r.x1, r.y1, cell.area_fraction)
    return h.hexdigest()


def test_golden_head_traces(small_dataset):
    assert trace_digest(small_dataset) == GOLDEN_TRACES_SHA256


@pytest.mark.parametrize("video_id", [2, 8])
def test_golden_ptiles(small_dataset, video_id):
    ptiles = build_video_ptiles(
        small_dataset.video(video_id), small_dataset.train_traces(video_id),
        DEFAULT_GRID,
    )
    assert ptiles_digest(ptiles) == GOLDEN_PTILES_SHA256[video_id]


@pytest.mark.parametrize("video_id", [2, 8])
def test_golden_ftiles(small_dataset, video_id):
    ftiles = build_video_ftiles(
        small_dataset.video(video_id), small_dataset.train_traces(video_id)
    )
    assert ftiles_digest(ftiles) == GOLDEN_FTILES_SHA256[video_id]
