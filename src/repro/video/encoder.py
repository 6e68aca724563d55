"""Analytic encoder rate model (virtual FFmpeg / x264).

The paper encodes every tile and Ptile with x264 at five quality levels
obtained by sweeping the constant rate factor (CRF) from 38 down to 18
in steps of 5 (Section V-A).  We cannot run a real encoder offline, so
this module provides an analytic rate model with the three mechanisms
that drive every result in the paper:

1. **Rate-quality law** — encoded bitrate grows exponentially as CRF
   decreases (the classic ~2x per 6 CRF rule for x264), scaled by
   content complexity (SI / TI).
2. **Per-tile encoding overhead** — each independently decodable tile
   pays a header / boundary cost that shrinks more slowly with CRF than
   the content bits do, so small tiles are proportionally more expensive
   at low quality.
3. **Large-tile compression efficiency** — encoding a large region as a
   single tile lets the encoder exploit spatial/temporal redundancy
   across what would have been tile boundaries, shrinking the content
   bits by an area-dependent factor.

Mechanisms 2 and 3 are *calibrated against the paper's own measurement*:
Fig. 8 reports that the Ptile covering a 9-tile FoV region has a median
size of 62 / 57 / 47 / 35 / 27 % of the conventional tiles at quality
5..1.  The calibration constants below reproduce those medians exactly
(see ``benchmarks/test_fig8_ptile_size.py``).

Frame-rate-reduced Ptile variants drop the most redundant frames first,
so the size shrinks sublinearly with the frame count.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from ..encoding.ladder import DEFAULT_ENCODING_LADDER, EncodingLadder
from ..geometry.tiling import DEFAULT_GRID, TileGrid

__all__ = [
    "DEFAULT_ENCODING_LADDER",
    "EncoderModel",
    "EncodingLadder",
    "QUALITY_LEVELS",
    "quality_to_crf",
]

QUALITY_LEVELS = DEFAULT_ENCODING_LADDER.levels
"""Quality levels used throughout the paper (1 lowest .. 5 highest)."""

_CRF_REF = 28
# x264 rate roughly halves every ~4 CRF over the 18..38 sweep, giving a
# ~32x span between quality 5 and quality 1 — consistent with 4K encodes
# running ~40-60 Mbps at CRF 18 down to ~2 Mbps at CRF 38.
_RATE_HALVING_CRF = 4.0
# Per-tile overhead (headers, intra refresh) as a constant fraction of
# unit-tile content bits.  The CRF-dependence of small-tile inefficiency
# is carried entirely by the efficiency exponents below — either split
# reproduces the Fig. 8 ratios, but a constant overhead fraction keeps
# the lowest-quality background tiles affordable, preserving the premise
# that tiled streaming saves bandwidth over whole-frame downloads.
_OVERHEAD_FRAC = 0.2
_OVERHEAD_AREA_EXP = 0.25
_MIN_UNIT_TILES = 0.05
# The merge-efficiency gain is measured at the FoV scale (9 unit tiles,
# Fig. 8) and plateaus through typical Ptile sizes; toward the full
# frame it erodes: the encoder's prediction window stops being
# boundary-limited, and a full-frame encode additionally wastes bits on
# the equirectangular pole stretching that FoV-scale regions near the
# equator avoid.  Efficiency is flat on [peak, plateau] and interpolated
# log-linearly from the plateau back to ~1 at the full frame.
_EFF_PEAK_TILES = 9.0
_EFF_PLATEAU_TILES = 16.0
_EFF_FULL_FRAME = 0.95

# Large-tile content-efficiency exponents, one per quality level.
# eff(n, q) = n ** -_EFF_EXPONENT[q] for regions up to the 9-tile FoV
# scale, where n is the region area in units of one conventional 4x8
# tile.  Derived so that a 9-tile Ptile hits the Fig. 8 median size
# ratios (62/57/47/35/27 % at quality 5..1) given the overhead model
# above; see the module docstring.
_EFF_EXPONENT = {
    1: 0.57055,
    2: 0.43858,
    3: 0.29283,
    4: 0.19922,
    5: 0.15879,
}

# Fraction of encoded bits attributable to dropped frames: removing a
# share d of the frames (the most redundant ones first) removes only
# _FRAME_BIT_SHARE * d of the bits.
_FRAME_BIT_SHARE = 0.6

# Log-compression scale mapping FoV bitrate onto the Eq. 3 logistic's
# sensitive band (see EncoderModel.qoe_bitrate_mbps).
_QOE_BITRATE_SCALE = 1.6


def quality_to_crf(quality: float) -> float:
    """Map a quality level to the x264 CRF used in the paper.

    Quality 1 -> CRF 38 (worst), quality 5 -> CRF 18 (best).  The five
    integer levels are the paper's ladder; fractional levels in [1, 5]
    interpolate the CRF sweep and model the denser ladders whole-video
    players (Nontile / YouTube) use.

    .. deprecated::
        This is the *default* ladder only.  New code should go through
        :meth:`EncodingLadder.crf` (usually ``encoder.ladder.crf``), which
        validates and interpolates for any per-video ladder; this shim
        delegates to :data:`DEFAULT_ENCODING_LADDER` and stays for the
        paper-ladder call sites and tests.
    """
    return DEFAULT_ENCODING_LADDER.crf(quality)


def _efficiency_exponent(quality: float) -> float:
    """Fig. 8-calibrated exponent, linearly interpolated between levels.

    The calibration spans the paper's five levels; ladders with more
    rungs clamp into [1, 5] so the extra levels reuse the end-point
    exponents rather than extrapolating the fit.
    """
    q = min(max(float(quality), 1.0), 5.0)
    lo = int(math.floor(q))
    hi = min(lo + 1, 5)
    frac = q - lo
    return _EFF_EXPONENT[lo] * (1.0 - frac) + _EFF_EXPONENT[hi] * frac


def _stable_key_ints(key: tuple) -> list[int]:
    """Flatten a noise key into deterministic 32-bit ints (process-stable)."""
    ints: list[int] = []
    for part in key:
        if isinstance(part, (int, np.integer)):
            ints.append(int(part) & 0xFFFFFFFF)
        else:
            ints.append(zlib.crc32(str(part).encode("utf-8")))
    return ints


@dataclass(frozen=True)
class EncoderModel:
    """Rate model for encoded tiles, Ptiles, and whole frames.

    Parameters
    ----------
    grid:
        The conventional tile grid; region areas are expressed in units
        of one of its tiles.
    segment_seconds:
        Segment duration L (paper: 1 s).
    ref_bitrate_mbps:
        Full-frame 4K bitrate at CRF 28 for average-complexity content.
    noise_sigma:
        Log-std of the per-region multiplicative size noise modelling
        segment-to-segment encoder variability.  Noise is deterministic
        per ``noise_key`` so repeated queries agree.
    seed:
        Base seed mixed into every noise draw.
    ladder:
        The encoding ladder mapping integer quality levels to CRFs.
        Defaults to the paper's fixed 38..18 ladder; the per-content
        optimizer (``repro.encoding.optimizer``) swaps in per-video
        ladders via ``dataclasses.replace``.
    """

    grid: TileGrid = DEFAULT_GRID
    segment_seconds: float = 1.0
    ref_bitrate_mbps: float = 10.0
    noise_sigma: float = 0.12
    seed: int = 2022
    ladder: EncodingLadder = DEFAULT_ENCODING_LADDER

    def __post_init__(self) -> None:
        # ``math.isfinite`` first: NaN compares false against any bound,
        # so a bare ``<= 0`` check would let it through.
        if not (math.isfinite(self.segment_seconds) and self.segment_seconds > 0):
            raise ValueError("segment duration must be positive and finite")
        if not (math.isfinite(self.ref_bitrate_mbps) and self.ref_bitrate_mbps > 0):
            raise ValueError("reference bitrate must be positive and finite")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError("noise sigma must be non-negative and finite")

    # ------------------------------------------------------------------
    # Rate-quality law
    # ------------------------------------------------------------------

    def content_factor(self, si: float, ti: float) -> float:
        """Bitrate multiplier for content complexity (1.0 near SI 33, TI 14)."""
        return float(min(max(0.35 + 0.011 * si + 0.022 * ti, 0.3), 2.5))

    def full_frame_bitrate_at_crf(self, crf: float, si: float, ti: float) -> float:
        """Bitrate (Mbps) of the whole 4K frame encoded at a raw CRF.

        The ladder-free rate law; the per-content ladder search sweeps
        this directly over its CRF grid.
        """
        rate = self.ref_bitrate_mbps * 2.0 ** ((_CRF_REF - crf) / _RATE_HALVING_CRF)
        return rate * self.content_factor(si, ti)

    def full_frame_bitrate_mbps(
        self, quality: float, si: float, ti: float
    ) -> float:
        """Bitrate (Mbps) of the whole 4K frame encoded at a quality level."""
        return self.full_frame_bitrate_at_crf(self.ladder.crf(quality), si, ti)

    def fov_bitrate_mbps(
        self, quality: float, si: float, ti: float, n_fov_tiles: int = 9
    ) -> float:
        """Bitrate (Mbps) attributable to the FoV region.

        This is the ``b`` fed into the QoE model (Eq. 3): the share of
        the full-frame bitrate covering the viewport, i.e. the
        quantization level the user actually perceives.
        """
        if n_fov_tiles < 1:
            raise ValueError("FoV must cover at least one tile")
        share = n_fov_tiles / self.grid.num_tiles
        return self.full_frame_bitrate_mbps(quality, si, ti) * share

    def qoe_bitrate_mbps(
        self, quality: float, si: float, ti: float, n_fov_tiles: int = 9
    ) -> float:
        """Perceptually linearized FoV bitrate, the ``b`` of Eq. 3.

        Perceived quality follows the *log* of bitrate (Weber-Fechner;
        VMAF-vs-bitrate curves are near-linear in log rate), and the
        paper's fitted c4 = 0.7821 per Mbps implies its training
        bitrates spanned a narrow, roughly log-spaced band.  Feeding the
        raw exponential CRF ladder into the logistic would saturate it
        above quality 3, so the QoE model consumes
        ``1.6 * log2(1 + fov_bitrate)``, which maps the ladder onto the
        sensitive part of the logistic.
        """
        rate = self.fov_bitrate_mbps(quality, si, ti, n_fov_tiles)
        return float(_QOE_BITRATE_SCALE * np.log2(1.0 + rate))

    def fov_bitrate_at_crf(
        self, crf: float, si: float, ti: float, n_fov_tiles: int = 9
    ) -> float:
        """FoV-share bitrate (Mbps) at a raw CRF (see fov_bitrate_mbps)."""
        if n_fov_tiles < 1:
            raise ValueError("FoV must cover at least one tile")
        share = n_fov_tiles / self.grid.num_tiles
        return self.full_frame_bitrate_at_crf(crf, si, ti) * share

    def qoe_bitrate_at_crf(
        self, crf: float, si: float, ti: float, n_fov_tiles: int = 9
    ) -> float:
        """Perceptually linearized FoV bitrate at a raw CRF (Eq. 3 ``b``)."""
        rate = self.fov_bitrate_at_crf(crf, si, ti, n_fov_tiles)
        return float(_QOE_BITRATE_SCALE * np.log2(1.0 + rate))

    # ------------------------------------------------------------------
    # Tiling overhead and large-tile efficiency
    # ------------------------------------------------------------------

    def overhead_fraction(self, quality: float) -> float:
        """Per-tile overhead as a fraction of unit-tile content bits."""
        self.ladder.crf(quality)  # validates the range
        return _OVERHEAD_FRAC

    def efficiency(self, n_unit_tiles: float, quality: float) -> float:
        """Content-bit multiplier for a region of ``n`` unit-tile areas.

        Below one unit tile the multiplier exceeds 1 (tiny tiles compress
        worse); up to the FoV scale it falls as the encoder exploits
        cross-boundary redundancy; it plateaus through typical Ptile
        sizes and erodes back toward ~1 for the full frame (see module
        constants).
        """
        n = max(n_unit_tiles, _MIN_UNIT_TILES)
        exponent = _efficiency_exponent(quality)
        peak = _EFF_PEAK_TILES ** (-exponent)
        if n <= _EFF_PEAK_TILES:
            return n ** (-exponent)
        if n <= _EFF_PLATEAU_TILES:
            return peak
        full = max(float(self.grid.num_tiles), _EFF_PLATEAU_TILES + 1.0)
        top = max(_EFF_FULL_FRAME, peak)
        if n >= full:
            return top
        frac = (math.log(n) - math.log(_EFF_PLATEAU_TILES)) / (
            math.log(full) - math.log(_EFF_PLATEAU_TILES)
        )
        return peak + frac * (top - peak)

    # ------------------------------------------------------------------
    # Encoded sizes
    # ------------------------------------------------------------------

    def frame_rate_factor(self, frame_rate: float, fps: float) -> float:
        """Size multiplier for a frame-rate-reduced variant."""
        if not (0 < frame_rate <= fps):
            raise ValueError(f"frame rate {frame_rate} outside (0, {fps}]")
        dropped = 1.0 - frame_rate / fps
        return 1.0 - _FRAME_BIT_SHARE * dropped

    def region_size_mbit(
        self,
        quality: float,
        si: float,
        ti: float,
        area_fraction: float,
        *,
        frame_rate: float | None = None,
        fps: float = 30.0,
        noise_key: tuple | None = None,
    ) -> float:
        """Encoded size (Mbit) of one region of a segment.

        ``area_fraction`` is the share of the full equirectangular frame
        the region covers; the region is encoded as a *single*
        independently decodable tile.  ``noise_key`` (any tuple of ints
        and strings) makes the multiplicative encoder noise deterministic
        per region: the same key always yields the same size.
        """
        if not (0.0 < area_fraction <= 1.0):
            raise ValueError(f"area fraction {area_fraction} outside (0, 1]")
        n = area_fraction * self.grid.num_tiles
        bitrate = self.full_frame_bitrate_mbps(quality, si, ti)
        unit_bits = bitrate * self.segment_seconds / self.grid.num_tiles
        content = bitrate * self.segment_seconds * area_fraction
        content *= self.efficiency(n, quality)
        overhead = (
            self.overhead_fraction(quality)
            * unit_bits
            * max(n, _MIN_UNIT_TILES) ** _OVERHEAD_AREA_EXP
        )
        size = content + overhead
        if frame_rate is not None:
            size *= self.frame_rate_factor(frame_rate, fps)
        if noise_key is not None:
            size *= self.noise_factor(noise_key)
        return size

    def tile_size_mbit(
        self,
        quality: float,
        si: float,
        ti: float,
        *,
        noise_key: tuple | None = None,
    ) -> float:
        """Encoded size (Mbit) of one conventional grid tile."""
        return self.region_size_mbit(
            quality, si, ti, 1.0 / self.grid.num_tiles, noise_key=noise_key
        )

    def tiled_region_size_mbit(
        self,
        quality: float,
        si: float,
        ti: float,
        n_tiles: int,
        *,
        noise_key: tuple | None = None,
    ) -> float:
        """Encoded size (Mbit) of ``n_tiles`` separate conventional tiles.

        Each tile receives an independent noise draw (keyed by its index)
        so that summing many tiles averages the noise, as it does when
        summing real per-tile sizes.
        """
        if n_tiles < 1:
            raise ValueError("need at least one tile")
        total = 0.0
        for i in range(n_tiles):
            key = None if noise_key is None else noise_key + (i,)
            total += self.tile_size_mbit(quality, si, ti, noise_key=key)
        return total

    # ------------------------------------------------------------------

    def noise_factor(self, key: tuple) -> float:
        """Multiplicative encoder noise of the region ``key`` names.

        Log-normal with unit mean, drawn from an RNG seeded by
        ``(seed, key)`` alone: it does not depend on quality or frame
        rate, so one draw serves every version of a region.  ``1.0``
        when ``noise_sigma`` is zero.
        """
        sigma = self.noise_sigma
        if sigma == 0:
            return 1.0
        rng = np.random.default_rng([self.seed & 0xFFFFFFFF] + _stable_key_ints(key))
        return float(math.exp(rng.normal(-0.5 * sigma * sigma, sigma)))
