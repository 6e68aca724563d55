"""Per-content encoding-ladder search.

The paper fixes one CRF ladder for all eight videos, but the catalog
spans a wide SI/TI range: at the same CRF, easy (low-SI/TI) content
lands far above any quality target while hard content lands below it.
This module searches, per video, the ladder that *hits per-level
quality targets at minimum FoV bits*:

* the candidate axis is a CRF grid (``crf_min..crf_max`` in
  ``crf_step`` increments);
* a rung's quality is the video's mean Eq. 3 ``Qo`` over all segments,
  evaluated on the :class:`~repro.video.encoder.EncoderModel` rate law
  at that CRF (``qoe_bitrate_at_crf``);
* for each level the search picks the **largest** CRF (fewest bits)
  whose mean Qo still meets the level's target, then repairs the
  monotone-spacing constraint and, with
  ``never_exceed_default_bits`` (the default), clamps every rung to
  spend at most what the video's base ladder spends — so hard content
  degenerates to the base ladder (no loss) while easy content sheds
  bits at equal target quality.

The search is a deterministic coordinate sweep (pure numpy over the
grid, fixed iteration order, no RNG): serial and pooled runs, and cold
and warm cache reads, produce identical ladders.  Per-video searches
are independent jobs fanned out on the experiment runner pool and
cached in the artifact store under content-hash keys
(:func:`~repro.experiments.artifacts.ladder_key`: video digest +
encoder + targets + search config + code version).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import fold_sum
from ..qoe.quality import QualityModel
from .ladder import CRF_MAX, MIN_CRF_SPACING, EncodingLadder

__all__ = [
    "LadderSearchConfig",
    "VideoLadderResult",
    "default_quality_targets",
    "optimize_catalog",
    "optimize_video_ladder",
]

# Targets are "met" up to this Qo slack: the grid is quantized, so the
# chosen rung can sit a hair under the target the continuous optimum
# would hit exactly.
_TARGET_TOL = 1e-9


@dataclass(frozen=True)
class LadderSearchConfig:
    """Deterministic knobs of the per-video ladder search.

    ``crf_min``/``crf_max``/``crf_step`` bound the candidate grid (the
    default spans the paper's 18..38 sweep plus headroom above it);
    ``min_spacing`` keeps adjacent rungs apart so levels stay
    distinguishable; ``never_exceed_default_bits`` forbids any rung
    from spending more bits than the video's base-ladder rung (the
    search can then only save bits, never regress them);
    ``pin_top_level`` keeps the highest-quality rung at the base
    ladder's CRF, so the peak quality a session can reach never
    degrades; ``movable_levels`` restricts the search to the lowest
    ``k`` rungs (None = all non-pinned rungs).  The default ``1``
    moves only the background rung — the level every remainder block
    of every download is priced at, and the one whose bits never buy
    viewport quality — which measured as a strict session-level Pareto
    improvement (lower bits and energy, equal-or-better QoE) across
    the catalog; the full search (``movable_levels=None``) sheds 2-4x
    more ladder bits but lets the MPC trade some of them back into
    viewport quality, so a couple of videos gain QoE at slightly
    *higher* downloaded bits instead.  ``max_passes`` bounds the
    pick/repair fixed-point loop.
    """

    crf_min: float = 18.0
    crf_max: float = 42.0
    crf_step: float = 0.25
    min_spacing: float = 2.0
    never_exceed_default_bits: bool = True
    pin_top_level: bool = True
    movable_levels: int | None = 1
    max_passes: int = 8

    def __post_init__(self) -> None:
        if not (0.0 <= self.crf_min < self.crf_max <= CRF_MAX):
            raise ValueError(
                f"need 0 <= crf_min < crf_max <= {CRF_MAX:g}, got "
                f"[{self.crf_min!r}, {self.crf_max!r}]"
            )
        if self.crf_step <= 0:
            raise ValueError("crf_step must be positive")
        if self.min_spacing < MIN_CRF_SPACING:
            raise ValueError(
                f"min_spacing must be at least the ladder type's "
                f"{MIN_CRF_SPACING:g}, got {self.min_spacing!r}"
            )
        if self.max_passes < 1:
            raise ValueError("need at least one search pass")
        if self.movable_levels is not None and self.movable_levels < 1:
            raise ValueError("movable_levels must be at least 1 (or None)")

    def grid(self) -> np.ndarray:
        """The candidate CRFs, ascending (index math, no accumulation)."""
        n = int(math.floor((self.crf_max - self.crf_min) / self.crf_step))
        return self.crf_min + self.crf_step * np.arange(n + 1)


@dataclass(frozen=True)
class VideoLadderResult:
    """One video's search outcome, fixed vs. optimized ladder."""

    video_id: int
    ladder: EncodingLadder
    base_ladder: EncodingLadder
    targets: tuple[float, ...]
    #: Catalog-mean Eq. 3 Qo per level under each ladder.
    qo_base: tuple[float, ...]
    qo_opt: tuple[float, ...]
    #: Mean FoV bitrate (Mbps) per level under each ladder.
    fov_mbps_base: tuple[float, ...]
    fov_mbps_opt: tuple[float, ...]
    passes: int

    @property
    def bits_saved_frac(self) -> float:
        """Fraction of summed per-level FoV bits the new ladder sheds."""
        base = fold_sum(self.fov_mbps_base)
        if base <= 0:
            return 0.0
        return 1.0 - fold_sum(self.fov_mbps_opt) / base

    @property
    def targets_met(self) -> tuple[bool, ...]:
        return tuple(
            qo >= t - _TARGET_TOL for qo, t in zip(self.qo_opt, self.targets)
        )

    @property
    def changed(self) -> bool:
        return self.ladder != self.base_ladder

    def report(self) -> list[str]:
        lines = [
            f"Video {self.video_id}: "
            + ("optimized ladder" if self.changed else "base ladder kept")
            + f" ({self.bits_saved_frac * 100.0:+.1f}% FoV bits saved,"
            f" {self.passes} passes)"
        ]
        for i, (b_crf, o_crf) in enumerate(
            zip(self.base_ladder.crfs, self.ladder.crfs)
        ):
            lines.append(
                f"  q{i + 1}: crf {b_crf:5.2f} -> {o_crf:5.2f}  "
                f"Qo {self.qo_base[i]:6.2f} -> {self.qo_opt[i]:6.2f}"
                f" (target {self.targets[i]:6.2f})  "
                f"FoV {self.fov_mbps_base[i]:6.3f} -> "
                f"{self.fov_mbps_opt[i]:6.3f} Mbps"
            )
        return lines


# ----------------------------------------------------------------------
# Rate/quality evaluation (vectorized over the CRF grid)
# ----------------------------------------------------------------------


def _video_features(video) -> tuple[np.ndarray, np.ndarray]:
    si = np.array([s.si for s in video.segments], dtype=float)
    ti = np.array([s.ti for s in video.segments], dtype=float)
    return si, ti


def _grid_tables(
    video, encoder, quality_model: QualityModel, crfs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-grid-CRF (mean Qo, mean FoV Mbps) over the video's segments.

    Built from the encoder's public rate law: per-segment FoV bitrates
    come from ``fov_bitrate_at_crf``/``qoe_bitrate_at_crf`` evaluated
    on the grid, then Eq. 3 is applied vectorized.
    """
    from ..video.encoder import _QOE_BITRATE_SCALE

    si, ti = _video_features(video)
    fov = np.empty((len(si), len(crfs)))
    for g, crf in enumerate(crfs):
        for s in range(len(si)):
            fov[s, g] = encoder.fov_bitrate_at_crf(float(crf), si[s], ti[s])
    # Same perceptual linearization as qoe_bitrate_at_crf, vectorized
    # over the whole (segment, grid) table.
    qoe_b = _QOE_BITRATE_SCALE * np.log2(1.0 + fov)
    qo = quality_model.qo_array(si[:, None], ti[:, None], qoe_b)
    return qo.mean(axis=0), fov.mean(axis=0)


def _interp_descending(grid: np.ndarray, values: np.ndarray, crf: float) -> float:
    """``values`` sampled on ascending ``grid``, read at an off-grid CRF."""
    return float(np.interp(crf, grid, values))


def mean_qo_by_level(
    video, encoder, quality_model: QualityModel, ladder: EncodingLadder
) -> tuple[float, ...]:
    """Per-level catalog-mean Eq. 3 Qo for one video under a ladder."""
    si, ti = _video_features(video)
    out = []
    for level in ladder.levels:
        crf = ladder.crf(level)
        b = np.array([
            encoder.qoe_bitrate_at_crf(crf, si[s], ti[s])
            for s in range(len(si))
        ])
        out.append(float(quality_model.qo_array(si, ti, b).mean()))
    return tuple(out)


def default_quality_targets(
    videos,
    encoder,
    quality_model: QualityModel | None = None,
    quantile: float = 0.25,
) -> tuple[float, ...]:
    """Per-level targets: a catalog quantile of per-video mean Qo
    under the encoder's base ladder.

    Videos whose base-ladder Qo sits above a level's target shed bits
    on that level; the rest clamp to the base rung (the
    ``never_exceed_default_bits`` constraint), so the optimized
    catalog never spends more per level.  The default 25th percentile
    leaves most of the catalog room to save while anchoring the floor
    at the hard content's own quality.
    """
    if not videos:
        raise ValueError("need at least one video to derive targets")
    if not (0.0 <= quantile <= 1.0):
        raise ValueError(f"quantile must be within [0, 1], got {quantile!r}")
    quality_model = quality_model or QualityModel()
    per_video = np.array([
        mean_qo_by_level(video, encoder, quality_model, encoder.ladder)
        for video in videos
    ])  # (N, V)
    return tuple(float(t) for t in np.quantile(per_video, quantile, axis=0))


# ----------------------------------------------------------------------
# Per-video search
# ----------------------------------------------------------------------


def optimize_video_ladder(
    video,
    encoder,
    targets,
    config: LadderSearchConfig | None = None,
    quality_model: QualityModel | None = None,
) -> VideoLadderResult:
    """Search one video's ladder (deterministic; see module docstring)."""
    config = config or LadderSearchConfig()
    quality_model = quality_model or QualityModel()
    base = encoder.ladder
    targets = tuple(float(t) for t in targets)
    if len(targets) != base.num_levels:
        raise ValueError(
            f"got {len(targets)} quality targets for a "
            f"{base.num_levels}-level ladder"
        )
    grid = config.grid()
    mean_qo, mean_fov = _grid_tables(video, encoder, quality_model, grid)

    n = base.num_levels
    crfs = list(base.crfs)
    passes = 0
    for _ in range(config.max_passes):
        passes += 1
        changed = False
        for i in range(n):
            if config.pin_top_level and i == n - 1:
                continue
            if config.movable_levels is not None and i >= config.movable_levels:
                continue
            level_target = targets[i]
            # Largest grid CRF still meeting the target; mean_qo is
            # strictly decreasing in CRF, so scan from the top.
            ok = np.nonzero(mean_qo >= level_target - _TARGET_TOL)[0]
            picked = float(grid[ok[-1]]) if len(ok) else float(grid[0])
            if config.never_exceed_default_bits:
                # More bits than the base rung is never allowed:
                # CRF below the base rung's is out.
                picked = max(picked, base.crfs[i])
            picked = min(picked, CRF_MAX)
            # Monotone spacing: stay below the better neighbour above
            # and above the worse neighbour below.
            if i > 0:
                picked = min(picked, crfs[i - 1] - config.min_spacing)
            if i + 1 < n:
                picked = max(picked, crfs[i + 1] + config.min_spacing)
            if picked != crfs[i]:
                crfs[i] = picked
                changed = True
        if not changed:
            break
    # The pass budget may expire mid-repair; one final backward sweep
    # (anchored at the top-quality rung) guarantees a valid ladder.
    for i in range(n - 2, -1, -1):
        crfs[i] = min(max(crfs[i], crfs[i + 1] + config.min_spacing), CRF_MAX)
    ladder = EncodingLadder(tuple(crfs))

    qo_base = tuple(
        _interp_descending(grid, mean_qo, c) for c in base.crfs
    )
    fov_base = tuple(
        _interp_descending(grid, mean_fov, c) for c in base.crfs
    )
    qo_opt = tuple(_interp_descending(grid, mean_qo, c) for c in ladder.crfs)
    fov_opt = tuple(
        _interp_descending(grid, mean_fov, c) for c in ladder.crfs
    )
    return VideoLadderResult(
        video_id=video.meta.video_id,
        ladder=ladder,
        base_ladder=base,
        targets=targets,
        qo_base=qo_base,
        qo_opt=qo_opt,
        fov_mbps_base=fov_base,
        fov_mbps_opt=fov_opt,
        passes=passes,
    )


def _search_task(item: tuple) -> VideoLadderResult:
    """Module-level per-video search job (picklable for the pool)."""
    video, encoder, targets, config, quality_model = item
    return optimize_video_ladder(video, encoder, targets, config, quality_model)


def optimize_catalog(
    videos,
    encoder,
    targets=None,
    config: LadderSearchConfig | None = None,
    quality_model: QualityModel | None = None,
    store=None,
    workers: int | None = 1,
) -> dict[int, VideoLadderResult]:
    """Search every video's ladder; parallel per-video jobs, cached.

    ``store`` (an :class:`~repro.experiments.artifacts.ArtifactStore`)
    caches each video's result under
    :func:`~repro.experiments.artifacts.ladder_key`; warm runs
    deserialize instead of searching.  ``workers`` fans cold searches
    across the experiment runner pool (1 = serial); results are
    identical at any worker count and with the store on or off.
    """
    config = config or LadderSearchConfig()
    quality_model = quality_model or QualityModel()
    videos = list(videos)
    if targets is None:
        targets = default_quality_targets(videos, encoder, quality_model)
    targets = tuple(float(t) for t in targets)

    results: dict[int, VideoLadderResult] = {}
    keys: dict[int, str] = {}
    misses = []
    if store is not None:
        from ..experiments.artifacts import ladder_key

        for video in videos:
            vid = video.meta.video_id
            keys[vid] = ladder_key(video, encoder, targets, config, quality_model)
            cached = store.get("ladder", keys[vid])
            if cached is not None:
                results[vid] = cached
            else:
                misses.append(video)
    else:
        misses = videos

    if misses:
        items = [
            (video, encoder, targets, config, quality_model)
            for video in misses
        ]
        if len(items) > 1 and workers != 1:
            from ..experiments.runner import parallel_map

            searched = parallel_map(_search_task, items, workers=workers).results
        else:
            searched = [_search_task(item) for item in items]
        for video, result in zip(misses, searched):
            vid = video.meta.video_id
            results[vid] = result
            if store is not None:
                store.put("ladder", keys[vid], result)

    return {video.meta.video_id: results[video.meta.video_id] for video in videos}
