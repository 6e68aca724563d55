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

from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

from .. import fold_sum
from ..geometry.tiling import Tile, TileGrid
from .content import Video
from .encoder import EncoderModel

__all__ = ["SegmentManifest", "VideoManifest"]


@dataclass(frozen=True)
class SegmentManifest:
    """Size oracle for one video segment, backed by a lazy size table.

    A size is ``g(area, quality) * noise(region)`` (times the frame-rate
    factor of a reduced-rate variant), so the table holds ``g`` over the
    ladder levels per distinct area and one noise draw per region key.
    Entries are built whole, then published: concurrent readers never
    see a partial one.  Pickling drops the table.
    """

    video_id: int
    segment_index: int
    si: float
    ti: float
    encoder: EncoderModel = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_g", {})  # (area, quality) -> g
        object.__setattr__(self, "_levels", {})  # area -> g per level
        object.__setattr__(self, "_noise", {})  # region key -> factor
        object.__setattr__(self, "_qoe_rates", {})
        object.__setattr__(self, "_tiles", None)

    def __getstate__(self) -> dict:
        # A sweep-warmed table would dominate worker payloads and stored
        # artifacts; it is pure, so it is rebuilt on first touch instead.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)
        self.__post_init__()

    @property
    def grid(self) -> TileGrid:
        return self.encoder.grid

    def _formula(self, area_fraction: float, quality: float) -> float:
        """``g`` of one area at one quality, evaluated once.  Keyed by
        value, so ladder level 2 and Nontile's rung 2.0 share an entry
        (the encoder gives them the same bits)."""
        key = (area_fraction, quality)
        g = self._g.get(key)
        if g is None:
            g = self._g[key] = self.encoder.region_size_mbit(
                quality, self.si, self.ti, area_fraction)
        return g

    def _level_sizes(self, area_fraction: float, qualities=None) -> np.ndarray:
        """``g`` of one area at every ladder level, or at ``qualities``."""
        key = area_fraction if qualities is None else (area_fraction, qualities)
        sizes = self._levels.get(key)
        if sizes is None:
            levels = self.encoder.ladder.levels if qualities is None else qualities
            sizes = np.array([self._formula(area_fraction, q) for q in levels])
            sizes.flags.writeable = False
            self._levels[key] = sizes
        return sizes

    def _region_noise(self, region_key: str) -> float:
        factor = self._noise.get(region_key)
        if factor is None:
            key = (self.video_id, self.segment_index, region_key)
            factor = self._noise[region_key] = self.encoder.noise_factor(key)
        return factor

    def tile_sizes(self) -> np.ndarray:
        """Every grid tile at every level: row ``row * cols + col``."""
        tiles = self._tiles
        if tiles is None:
            prefix = (self.video_id, self.segment_index, "tile")
            noise = np.array([
                self.encoder.noise_factor(prefix + (t.row, t.col))
                for t in self.grid.tiles()
            ])
            tiles = noise[:, None] * self._level_sizes(1.0 / self.grid.num_tiles)
            tiles.flags.writeable = False
            object.__setattr__(self, "_tiles", tiles)
        return tiles

    def region_sizes(
        self,
        region_key: str,
        area_fraction: float,
        rate_factors: np.ndarray | None = None,
    ) -> np.ndarray:
        """One region encoded as a single tile, at every ladder level;
        ``(levels, rates)`` with the encoder's ``rate_factors``."""
        sizes = self._level_sizes(area_fraction)
        if rate_factors is not None:
            sizes = sizes[:, None] * rate_factors[None, :]
        return sizes * self._region_noise(region_key)

    def frame_sizes(self, qualities: tuple[float, ...]) -> np.ndarray:
        """The whole frame at each of ``qualities`` (Nontile's ladder)."""
        return self._level_sizes(1.0, qualities) * self._region_noise("frame")

    def tile_size_mbit(self, tile: Tile, quality: float) -> float:
        """Size of one conventional grid tile at a quality level (off the
        int ladder, a fractional rung say, from the encoder directly)."""
        if type(quality) is int and 1 <= quality <= self.encoder.ladder.num_levels:
            row = tile.row * self.grid.cols + tile.col
            return float(self.tile_sizes()[row, quality - 1])
        return self.encoder.tile_size_mbit(quality, self.si, self.ti, noise_key=(
            self.video_id, self.segment_index, "tile", tile.row, tile.col))

    def tiles_size_mbit(self, tiles: Iterable[Tile], quality: float) -> float:
        """Total size of a set of separately encoded conventional tiles."""
        return fold_sum(self.tile_size_mbit(t, quality) for t in tiles)

    def region_size_mbit(
        self,
        region_key: str,
        area_fraction: float,
        quality: float,
        *,
        frame_rate: float | None = None,
        fps: float = 30.0,
    ) -> float:
        """Size of an arbitrary region encoded as a single tile."""
        size = self._formula(area_fraction, quality)
        if frame_rate is not None:
            size *= self.encoder.frame_rate_factor(frame_rate, fps)
        return size * self._region_noise(region_key)

    def full_frame_size_mbit(self, quality: float) -> float:
        """Size of the whole frame encoded as a single tile (Nontile)."""
        return self.region_size_mbit("frame", 1.0, quality)

    def fov_bitrate_mbps(self, quality: float, n_fov_tiles: int = 9) -> float:
        """Raw FoV bitrate share at a quality level."""
        return self.encoder.fov_bitrate_mbps(quality, self.si, self.ti, n_fov_tiles)

    def qoe_bitrate_mbps(self, quality: float, n_fov_tiles: int = 9) -> float:
        """Perceptually linearized bitrate fed to the Eq. 3 QoE model."""
        cache_key = (quality, n_fov_tiles)
        rate = self._qoe_rates.get(cache_key)
        if rate is None:
            rate = self.encoder.qoe_bitrate_mbps(quality, self.si, self.ti, n_fov_tiles)
            self._qoe_rates[cache_key] = rate
        return rate


@dataclass(eq=False, repr=False)
class VideoManifest:
    """Per-video sequence of segment manifests.

    A pure function of its two fields: the segment manifests are derived
    state, so ``video`` and ``encoder`` are all a content key covers.
    """

    video: Video
    encoder: EncoderModel

    def __post_init__(self) -> None:
        self._segments = tuple(
            SegmentManifest(
                video_id=self.video.meta.video_id,
                segment_index=seg.index,
                si=seg.si,
                ti=seg.ti,
                encoder=self.encoder,
            )
            for seg in self.video.segments
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
