"""Segment and session QoE (paper Eq. 2).

For each downloaded segment::

    Q = Q_o - w_v * I_v - w_r * I_r

* ``I_v = |Q_o^k - Q_o^{k-1}|`` penalizes quality variation between
  consecutive segments.
* ``I_r = max(S_k / R_k - B_k, 0) / B_k * Q_o^k`` penalizes rebuffering:
  the stall time a download causes relative to the buffer level, scaled
  by the segment quality.

The paper sets ``(w_v, w_r) = (1, 1)`` (Section V-A).  Session QoE is
the mean segment QoE.  For numerical robustness the rebuffer ratio is
evaluated with a small floor on ``B_k`` and capped, so a cold-start
segment cannot produce an unbounded penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import fold_sum
from .quality import QualityModel

__all__ = ["QoEWeights", "SegmentQoE", "QoEModel", "SessionQoE"]

_BUFFER_FLOOR_S = 0.1
_REBUFFER_RATIO_CAP = 3.0


@dataclass(frozen=True)
class QoEWeights:
    """Impairment weights (w_v, w_r) from Eq. 2."""

    variation: float = 1.0
    rebuffering: float = 1.0

    def __post_init__(self) -> None:
        if self.variation < 0 or self.rebuffering < 0:
            raise ValueError("weights must be non-negative")


@dataclass(frozen=True)
class SegmentQoE:
    """Eq. 2 evaluated for a single segment."""

    qo: float
    variation_penalty: float
    rebuffer_penalty: float

    @property
    def q(self) -> float:
        return self.qo - self.variation_penalty - self.rebuffer_penalty


@dataclass(frozen=True)
class QoEModel:
    """Computes Eq. 2 given per-segment quality and buffer dynamics."""

    quality: QualityModel = field(default_factory=QualityModel)
    weights: QoEWeights = field(default_factory=QoEWeights)

    def rebuffer_ratio(self, download_time_s, buffer_s):
        """``max(S/R - B, 0) / B`` with floor/cap for robustness.

        Elementwise: floats give a float, ``(N,)`` arrays (one entry per
        session, as the session kernel passes them) give an array.
        """
        download_time_s = np.asarray(download_time_s)
        buffer_s = np.asarray(buffer_s)
        if (download_time_s < 0).any():
            raise ValueError("download time must be non-negative")
        if (buffer_s < 0).any():
            raise ValueError("buffer must be non-negative")
        stall = np.maximum(download_time_s - buffer_s, 0.0)
        ratio = np.where(
            stall == 0.0, 0.0,
            np.minimum(stall / np.maximum(buffer_s, _BUFFER_FLOOR_S),
                       _REBUFFER_RATIO_CAP),
        )
        return ratio if ratio.ndim else float(ratio)

    def segment_qoe(self, qo, prev_qo, download_time_s, buffer_s) -> SegmentQoE:
        """Eq. 2 for one segment (elementwise, like :meth:`rebuffer_ratio`:
        with arrays, each field holds one value per session).

        ``prev_qo`` is the previous segment's Q_o (None for the first
        segment, which has no variation penalty).  ``buffer_s`` is the
        buffer level when the download started.
        """
        variation = 0.0 if prev_qo is None else abs(qo - prev_qo)
        ratio = self.rebuffer_ratio(download_time_s, buffer_s)
        return SegmentQoE(
            qo=qo,
            variation_penalty=self.weights.variation * variation,
            rebuffer_penalty=self.weights.rebuffering * ratio * qo,
        )


@dataclass
class SessionQoE:
    """Accumulates per-segment QoE into session-level statistics."""

    segments: list[SegmentQoE] = field(default_factory=list)

    def add(self, segment: SegmentQoE) -> None:
        self.segments.append(segment)

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def mean_q(self) -> float:
        """Session QoE: mean Eq. 2 value over all segments."""
        self._require_segments()
        return fold_sum(s.q for s in self.segments) / len(self.segments)

    @property
    def mean_qo(self) -> float:
        """Average video quality (first QoE component in Fig. 11(d))."""
        self._require_segments()
        return fold_sum(s.qo for s in self.segments) / len(self.segments)

    @property
    def mean_variation(self) -> float:
        """Average quality-variation impairment."""
        self._require_segments()
        return fold_sum(
            s.variation_penalty for s in self.segments
        ) / len(self.segments)

    @property
    def mean_rebuffer(self) -> float:
        """Average rebuffering impairment."""
        self._require_segments()
        return fold_sum(
            s.rebuffer_penalty for s in self.segments
        ) / len(self.segments)

    @property
    def rebuffer_count(self) -> int:
        """Number of segments with a non-zero rebuffering penalty."""
        return sum(1 for s in self.segments if s.rebuffer_penalty > 0)

    def _require_segments(self) -> None:
        if not self.segments:
            raise ValueError("no segments recorded")
