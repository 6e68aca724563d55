"""The streaming schemes compared in the paper (Section V-A).

* **Ctile** — conventional fixed 4x8 tiling; FoV tiles at the ABR
  quality, everything else at the lowest quality; four parallel
  decoders.
* **Ftile** — ten variable-size tiles clustered from 450 blocks; tiles
  overlapping the predicted FoV at the ABR quality, the rest lowest.
* **Nontile** — the whole frame as one stream at the ABR quality
  (YouTube style).
* **Ptile** — the popularity tile covering the predicted viewport at the
  ABR quality plus low-quality remainder blocks; one decoder; original
  frame rate.
* **Ours** — Ptile plus MPC-chosen (quality, frame rate); lives in
  :mod:`repro.core.controller` since it builds on the optimizer.
* **Robust** — Ours with probabilistic viewport coverage: tile
  selection and the MPC objective maximize *expected* viewport quality
  under the FoV-prediction error model; lives in
  :mod:`repro.core.robust` since it subclasses the MPC controller.

Every scheme turns a :class:`PlanContext` (what the client knows when it
requests segment k) into a :class:`DownloadPlan` (what is downloaded and
how it will be decoded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Protocol, Sequence

from .. import fold_sum
from ..geometry.tiling import Tile, TileGrid
from ..geometry.viewport import Rect, Viewport
from ..power.models import TilingScheme
from ..ptile.construction import SegmentPtiles
from ..video.segments import SegmentManifest, VideoManifest
from .abr import ThroughputBufferABR
from .ftile import FtilePartition

__all__ = [
    "AbrOptions",
    "PlanContext",
    "DownloadPlan",
    "StreamingScheme",
    "CtileScheme",
    "FtileScheme",
    "NontileScheme",
    "PtileScheme",
    "split_wrapped_rect",
    "LOWEST_QUALITY",
]

LOWEST_QUALITY = 1


def split_wrapped_rect(rect: Rect) -> tuple[Rect, ...]:
    """Normalize a rectangle that may extend past yaw 360 into
    non-wrapping pieces."""
    if rect.x1 <= 360.0:
        return (rect,)
    return (
        Rect(rect.x0, rect.y0, 360.0, rect.y1),
        Rect(0.0, rect.y0, rect.x1 - 360.0, rect.y1),
    )


@dataclass(frozen=True)
class PlanContext:
    """Everything the client knows when requesting one segment.

    The context names its video, segment and lookahead window; the
    segment's manifest, the tile grid, the frame rate and the window's
    manifests and Ptiles are read off the video and its per-segment
    ``ptiles``/``ftiles`` lists, never copied.  ``window`` is the MPC
    lookahead length, current segment included, already clipped at the
    video end (and at the session's ``max_segments``).
    """

    video: VideoManifest
    segment_index: int
    predicted_viewport: Viewport
    buffer_s: float
    bandwidth_mbps: float
    window: int = 1
    ptiles: Sequence[SegmentPtiles] | None = None
    ftiles: Sequence[FtilePartition] | None = None
    predicted_speed_deg_s: float = 0.0
    segment_seconds: float = 1.0
    # How far ahead of the head-trace history the predicted viewport
    # is (seconds).  Uncertainty-aware planners scale their error model
    # with it; deterministic schemes ignore it.
    prediction_horizon_s: float = 0.0

    def __post_init__(self) -> None:
        k = self.segment_index
        if not (0 <= k and 1 <= self.window <= self.video.num_segments - k):
            raise ValueError(
                f"window {self.window!r} at segment {k!r} does not fit "
                f"the video's {self.video.num_segments} segments"
            )

    @property
    def manifest(self) -> SegmentManifest:
        return self.video[self.segment_index]

    @property
    def grid(self) -> TileGrid:
        return self.video.encoder.grid

    @property
    def fps(self) -> float:
        return self.video.fps

    @property
    def segment_ptiles(self) -> SegmentPtiles | None:
        return None if self.ptiles is None else self.ptiles[self.segment_index]

    @property
    def ftile_partition(self) -> FtilePartition | None:
        return None if self.ftiles is None else self.ftiles[self.segment_index]

    @property
    def window_manifests(self) -> tuple[SegmentManifest, ...]:
        """The manifests of the lookahead window, current segment first."""
        k = self.segment_index
        return self.video[k:k + self.window]

    @property
    def window_segment_ptiles(self) -> tuple[SegmentPtiles | None, ...]:
        """Each window segment's Ptiles (all ``None`` without Ptiles)."""
        if self.ptiles is None:
            return (None,) * self.window
        k = self.segment_index
        return tuple(self.ptiles[i] for i in range(k, k + self.window))


@dataclass(frozen=True)
class DownloadPlan:
    """What gets downloaded for one segment and how it is decoded."""

    scheme_name: str
    quality: float
    frame_rate: float
    total_size_mbit: float
    decode_scheme: TilingScheme
    hq_rects: tuple[Rect, ...] = field(default_factory=tuple)
    full_coverage: bool = False
    used_ptile: bool = False
    # Uncertainty accounting (robust planning): the expected viewport
    # coverage of the chosen region under the FoV-error distribution,
    # and the error scale that produced it.  Point-prediction schemes
    # keep the trusting defaults (certain full hit, zero error).
    expected_coverage: float = 1.0
    sigma_deg: float = 0.0

    def coverage_of(self, viewport: Viewport) -> float:
        """Fraction of the viewport area served at high quality."""
        return hq_coverage(self.hq_rects, self.full_coverage, viewport)


def hq_coverage(hq_rects: Sequence[Rect], full_coverage: bool,
                viewport: Viewport) -> float:
    """Fraction of ``viewport`` inside the high-quality ``hq_rects``."""
    if full_coverage:
        return 1.0
    total = viewport.area
    if total <= 0 or not hq_rects:
        return 0.0
    covered = 0.0
    for vp_rect in viewport.rects():
        for hq in hq_rects:
            covered += vp_rect.intersection_area(hq)
    return min(covered / total, 1.0)


class StreamingScheme(Protocol):
    """A streaming scheme plans the download of each segment."""

    name: str

    def plan(self, ctx: PlanContext) -> DownloadPlan:  # pragma: no cover
        ...


def _tile_rects(grid: TileGrid, tiles: set[Tile]) -> tuple[Rect, ...]:
    return tuple(grid.tile_rect(t) for t in sorted(tiles))


def _level_totals(hq_rows, lowest, num_levels: int) -> list[float]:
    """Per-level sizes: ``hq_rows`` (size-table rows as lists of floats)
    at each level plus the ``lowest``-level sizes around them.  Each is
    the left fold (:func:`~repro.fold_sum`) of a column in set-iteration
    order: the bits of summing the scalar sizes one by one, on every
    interpreter.
    """
    background = fold_sum(lowest)
    columns = zip(*hq_rows) if hq_rows else [()] * num_levels
    return [fold_sum(column) + background for column in columns]


def ctile_sizes(manifest: SegmentManifest, fov_tiles) -> list[float]:
    """Per-level Ctile sizes: FoV tiles at each level, the rest lowest."""
    cols = manifest.grid.cols
    rows = manifest.tile_sizes().tolist()
    return _level_totals(
        [rows[t.row * cols + t.col] for t in fov_tiles],
        [rows[t.row * cols + t.col][0] for t in manifest.grid.tile_set - fov_tiles],
        manifest.encoder.ladder.num_levels,
    )


def _lowest(manifest: SegmentManifest, regions) -> list[float]:
    return [
        manifest.region_size_mbit(r.key, r.area_fraction, LOWEST_QUALITY)
        for r in regions
    ]


def ptile_sizes(manifest: SegmentManifest, ptile, remainder) -> list[float]:
    """Per-level Ptile sizes: the Ptile at each level, remainder lowest."""
    row = manifest.region_sizes(ptile.region_key, ptile.area_fraction).tolist()
    return _level_totals([row], _lowest(manifest, remainder), len(row))


class AbrOptions(NamedTuple):
    """A baseline scheme's candidates for one segment: per-level total
    ``sizes`` of the ``qualities`` (ascending), the ABR that picks among
    them, and what the picked plan decodes and covers."""

    abr: ThroughputBufferABR
    sizes: list[float]
    qualities: tuple
    decode_scheme: TilingScheme
    hq_rects: tuple[Rect, ...] = ()
    full_coverage: bool = False
    used_ptile: bool = False


def _abr_plan(name: str, ctx: PlanContext, options: AbrOptions) -> DownloadPlan:
    """The plan at the ABR's pick among ``options``.  The baselines plan
    through this; the session kernel reads their ``options`` per (head
    trace, segment) and picks for every session at once."""
    quality = options.abr.choose_quality(
        options.sizes, ctx.bandwidth_mbps, ctx.buffer_s, ctx.segment_seconds,
        qualities=options.qualities,
    )
    return DownloadPlan(
        scheme_name=name,
        quality=quality,
        frame_rate=ctx.fps,
        total_size_mbit=options.sizes[options.qualities.index(quality)],
        decode_scheme=options.decode_scheme,
        hq_rects=options.hq_rects,
        full_coverage=options.full_coverage,
        used_ptile=options.used_ptile,
    )


@dataclass(frozen=True)
class CtileScheme:
    """Conventional fixed-grid tile streaming (4 decoders)."""

    abr: ThroughputBufferABR = field(default_factory=ThroughputBufferABR)
    name: str = "ctile"

    def plan(self, ctx: PlanContext) -> DownloadPlan:
        return _abr_plan(self.name, ctx, self.options(ctx))

    def options(self, ctx: PlanContext) -> AbrOptions:
        fov_tiles = ctx.grid.viewport_tiles(ctx.predicted_viewport)
        return AbrOptions(
            self.abr, ctile_sizes(ctx.manifest, fov_tiles),
            ctx.manifest.encoder.ladder.levels, TilingScheme.CTILE,
            hq_rects=_tile_rects(ctx.grid, fov_tiles),
        )


@dataclass(frozen=True)
class FtileScheme:
    """Variable-size tiling with a fixed tile count (4 decoders)."""

    abr: ThroughputBufferABR = field(default_factory=ThroughputBufferABR)
    name: str = "ftile"

    def plan(self, ctx: PlanContext) -> DownloadPlan:
        return _abr_plan(self.name, ctx, self.options(ctx))

    def options(self, ctx: PlanContext) -> AbrOptions:
        if ctx.ftile_partition is None:
            raise ValueError("FtileScheme requires a per-segment partition")
        cells = ctx.ftile_partition.cells
        hq_cells = ctx.ftile_partition.viewport_cells(ctx.predicted_viewport)
        hq_keys = {c.key for c in hq_cells}
        lq_cells = [c for c in cells if c.key not in hq_keys]
        manifest = ctx.manifest
        levels = manifest.encoder.ladder.levels
        sizes = _level_totals(
            [manifest.region_sizes(c.key, c.area_fraction).tolist()
             for c in hq_cells],
            _lowest(manifest, lq_cells), len(levels),
        )
        return AbrOptions(self.abr, sizes, levels, TilingScheme.FTILE,
                          hq_rects=tuple(c.rect for c in hq_cells))


@dataclass(frozen=True)
class NontileScheme:
    """Whole-frame streaming, no tiling (one decoder, full coverage).

    Whole-video players (YouTube-style) use much denser quality ladders
    than the five tile CRF levels, so Nontile selects from a fractional
    ladder interpolating the CRF sweep in 0.25-level steps.
    """

    abr: ThroughputBufferABR = field(default_factory=ThroughputBufferABR)
    name: str = "nontile"
    ladder_step: float = 0.25

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ladder_step) and self.ladder_step > 0):
            raise ValueError(
                f"ladder_step must be positive and finite, got {self.ladder_step!r}"
            )

    def qualities(self, num_levels: int) -> tuple[float, ...]:
        """``ladder_step`` rungs up from 1, never past ``num_levels``."""
        steps = int(round((num_levels - 1) / self.ladder_step))
        while 1.0 + steps * self.ladder_step > num_levels:
            steps -= 1
        return tuple(1.0 + i * self.ladder_step for i in range(steps + 1))

    def plan(self, ctx: PlanContext) -> DownloadPlan:
        return _abr_plan(self.name, ctx, self.options(ctx))

    def options(self, ctx: PlanContext) -> AbrOptions:
        qualities = self.qualities(ctx.manifest.encoder.ladder.num_levels)
        return AbrOptions(
            self.abr, ctx.manifest.frame_sizes(qualities).tolist(), qualities,
            TilingScheme.NONTILE, full_coverage=True,
        )


@dataclass(frozen=True)
class PtileScheme:
    """Ptile streaming at the original frame rate (one decoder).

    Falls back to Ctile behaviour when no Ptile covers the predicted
    viewing center (the paper: "the client will download conventional
    tiles with the best possible quality").
    """

    abr: ThroughputBufferABR = field(default_factory=ThroughputBufferABR)
    name: str = "ptile"
    fallback: CtileScheme = field(default_factory=CtileScheme)

    def plan(self, ctx: PlanContext) -> DownloadPlan:
        return _abr_plan(self.name, ctx, self.options(ctx))

    def options(self, ctx: PlanContext) -> AbrOptions:
        # The fallback reports under this scheme's name but keeps its
        # own ABR and the Ctile decode costs.
        if ctx.segment_ptiles is None:
            return self.fallback.options(ctx)
        ptile = ctx.segment_ptiles.match(ctx.predicted_viewport)
        if ptile is None:
            return self.fallback.options(ctx)
        sizes = ptile_sizes(
            ctx.manifest, ptile, ctx.segment_ptiles.remainder_for(ptile)
        )
        return AbrOptions(
            self.abr, sizes, ctx.manifest.encoder.ladder.levels,
            TilingScheme.PTILE, hq_rects=split_wrapped_rect(ptile.rect),
            used_ptile=True,
        )
