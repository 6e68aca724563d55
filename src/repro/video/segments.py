"""Encoded-segment manifests.

A manifest answers "how many megabits is this region of this segment at
this quality (and frame rate)?" — the metadata a streaming client
downloads ahead of time (the paper's MPC algorithm fetches metadata for
the next H segments during startup, Section IV-C).

Manifests bind a :class:`~repro.video.content.Video` to an
:class:`~repro.video.encoder.EncoderModel` and key every size query with
a deterministic noise key, so every component (client simulation, MPC
planner, benchmarks) sees identical sizes for identical regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..geometry.tiling import Tile, TileGrid
from .content import Video
from .encoder import EncoderModel

__all__ = ["SegmentManifest", "VideoManifest"]


@dataclass(frozen=True)
class SegmentManifest:
    """Size oracle for one video segment.

    Every query is a pure function of its arguments and the frozen
    fields (the encoder noise is deterministic per key), so results are
    memoized per instance: a trace-driven sweep asks for the same tile
    and region sizes thousands of times across users and MPC lookahead
    windows.  The cache is attached via ``object.__setattr__`` and never
    invalidated — there is nothing to invalidate.
    """

    video_id: int
    segment_index: int
    si: float
    ti: float
    encoder: EncoderModel = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_size_cache", {})

    def __getstate__(self) -> dict:
        # Drop the (pure, rebuildable) size memo: a sweep-warmed cache
        # holds thousands of entries per segment and would dominate the
        # pickled payload shipped to workers or stored on disk.
        state = self.__dict__.copy()
        state["_size_cache"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    @property
    def grid(self) -> TileGrid:
        return self.encoder.grid

    def _noise(self, *region: object) -> float:
        """The encoder noise factor of one region, drawn once and memoized.

        The noise depends only on ``(video, segment, region)``, never on
        quality or frame rate, so every version of a region shares one
        draw.  Memoized under the bare region parts, a key no size or
        bitrate entry uses.
        """
        factor = self._size_cache.get(region)
        if factor is None:
            factor = self.encoder.noise_factor(
                (self.video_id, self.segment_index) + region
            )
            self._size_cache[region] = factor
        return factor

    def tile_size_mbit(self, tile: Tile, quality: float) -> float:
        """Size of one conventional grid tile at a quality level."""
        cache_key = ("tile", tile.row, tile.col, quality)
        size = self._size_cache.get(cache_key)
        if size is None:
            size = self.encoder.tile_size_mbit(quality, self.si, self.ti)
            size *= self._noise("tile", tile.row, tile.col)
            self._size_cache[cache_key] = size
        return size

    def tiles_size_mbit(self, tiles: Iterable[Tile], quality: float) -> float:
        """Total size of a set of separately encoded conventional tiles."""
        return sum(self.tile_size_mbit(t, quality) for t in tiles)

    def region_size_mbit(
        self,
        region_key: str,
        area_fraction: float,
        quality: float,
        *,
        frame_rate: float | None = None,
        fps: float = 30.0,
    ) -> float:
        """Size of an arbitrary region encoded as a single tile.

        ``region_key`` identifies the region (e.g. ``"ptile-0"``) so its
        encoder noise is stable across queries and quality levels.
        """
        cache_key = (region_key, area_fraction, quality, frame_rate, fps)
        size = self._size_cache.get(cache_key)
        if size is None:
            size = self.encoder.region_size_mbit(
                quality,
                self.si,
                self.ti,
                area_fraction,
                frame_rate=frame_rate,
                fps=fps,
            )
            size *= self._noise(region_key)
            self._size_cache[cache_key] = size
        return size

    def full_frame_size_mbit(self, quality: float) -> float:
        """Size of the whole frame encoded as a single tile (Nontile)."""
        return self.region_size_mbit("frame", 1.0, quality)

    def fov_bitrate_mbps(self, quality: float, n_fov_tiles: int = 9) -> float:
        """Raw FoV bitrate share at a quality level."""
        return self.encoder.fov_bitrate_mbps(quality, self.si, self.ti, n_fov_tiles)

    def qoe_bitrate_mbps(self, quality: float, n_fov_tiles: int = 9) -> float:
        """Perceptually linearized bitrate fed to the Eq. 3 QoE model."""
        cache_key = ("qoe_bitrate", quality, n_fov_tiles)
        rate = self._size_cache.get(cache_key)
        if rate is None:
            rate = self.encoder.qoe_bitrate_mbps(
                quality, self.si, self.ti, n_fov_tiles
            )
            self._size_cache[cache_key] = rate
        return rate


class VideoManifest:
    """Per-video sequence of segment manifests."""

    def __init__(self, video: Video, encoder: EncoderModel):
        self.video = video
        self.encoder = encoder
        self._segments = tuple(
            SegmentManifest(
                video_id=video.meta.video_id,
                segment_index=seg.index,
                si=seg.si,
                ti=seg.ti,
                encoder=encoder,
            )
            for seg in video.segments
        )

    def __len__(self) -> int:
        return len(self._segments)

    def __getitem__(self, index: int) -> SegmentManifest:
        return self._segments[index]

    def __iter__(self):
        return iter(self._segments)

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    @property
    def fps(self) -> float:
        return float(self.video.meta.fps)
