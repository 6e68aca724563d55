"""Session results and aggregation.

A :class:`SessionResult` collects per-segment records from one simulated
streaming session (one user watching one video over one network trace on
one device) and exposes the aggregates the paper reports: total energy
and its three components (Fig. 9), session QoE and its three components
(Fig. 11), rebuffering counts, and quality statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..power.energy import SegmentEnergy
from ..power.models import TilingScheme
from ..qoe.metrics import SegmentQoE, SessionQoE

__all__ = ["SegmentRecord", "SessionResult", "mean_sessions"]


@dataclass(frozen=True)
class SegmentRecord:
    """Everything measured for one downloaded segment."""

    index: int
    quality: int
    frame_rate: float
    size_mbit: float
    download_time_s: float
    wait_s: float
    stall_s: float
    buffer_before_s: float
    coverage: float
    qo_effective: float
    qoe: SegmentQoE
    energy: SegmentEnergy
    decode_scheme: TilingScheme
    used_ptile: bool
    # Bytes of this segment served by the edge cache (0 without an
    # attached EdgeHitModel); the miss remainder crossed the backhaul.
    edge_hit_mbit: float = 0.0
    # Resilience accounting (all zero on the ideal, fault-free path):
    # download attempts beyond the first, attempts aborted by the
    # playback deadline, and the delivered rung of the degradation
    # ladder as an int (repro.resilience.policy.DegradationLevel:
    # 0=FULL, 1=REDUCED, 2=LOW_LAYER, 3=SKIPPED).
    retries: int = 0
    timeouts: int = 0
    degraded_level: int = 0
    # Uncertainty accounting (robust planning; trusting defaults on the
    # point-prediction paths): the planner's expected viewport coverage
    # of the downloaded region and the angular error scale (degrees) it
    # planned against.
    expected_coverage: float = 1.0
    uncertainty_deg: float = 0.0


@dataclass
class SessionResult:
    """Aggregated outcome of one streaming session."""

    scheme_name: str
    video_id: int
    user_id: int
    device_name: str
    network_name: str
    records: list[SegmentRecord] = field(default_factory=list)

    def add(self, record: SegmentRecord) -> None:
        self.records.append(record)

    @property
    def num_segments(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Energy (Fig. 9 / Fig. 10)
    # ------------------------------------------------------------------

    @property
    def energy(self) -> SegmentEnergy:
        """Total session energy with its three components (joules)."""
        total = SegmentEnergy.zero()
        for record in self.records:
            total = total + record.energy
        return total

    @property
    def total_energy_j(self) -> float:
        return self.energy.total_j

    @property
    def energy_per_segment_j(self) -> float:
        self._require_records()
        return self.total_energy_j / self.num_segments

    # ------------------------------------------------------------------
    # QoE (Fig. 11)
    # ------------------------------------------------------------------

    @property
    def session_qoe(self) -> SessionQoE:
        session = SessionQoE()
        for record in self.records:
            session.add(record.qoe)
        return session

    @property
    def mean_qoe(self) -> float:
        return self.session_qoe.mean_q

    @property
    def mean_quality_level(self) -> float:
        self._require_records()
        return float(np.mean([r.quality for r in self.records]))

    @property
    def mean_frame_rate(self) -> float:
        self._require_records()
        return float(np.mean([r.frame_rate for r in self.records]))

    @property
    def mean_coverage(self) -> float:
        self._require_records()
        return float(np.mean([r.coverage for r in self.records]))

    # ------------------------------------------------------------------
    # Stalls
    # ------------------------------------------------------------------

    @property
    def total_stall_s(self) -> float:
        return sum(r.stall_s for r in self.records)

    @property
    def rebuffer_count(self) -> int:
        """Stalled segments, excluding the cold-start first download."""
        return sum(1 for r in self.records if r.stall_s > 0 and r.index > 0)

    @property
    def ptile_hit_rate(self) -> float:
        self._require_records()
        return float(np.mean([r.used_ptile for r in self.records]))

    # ------------------------------------------------------------------
    # Edge cache
    # ------------------------------------------------------------------

    @property
    def total_edge_hit_mbit(self) -> float:
        """Bytes the edge cache served across the whole session."""
        return sum(r.edge_hit_mbit for r in self.records)

    @property
    def edge_hit_fraction(self) -> float:
        """Fraction of downloaded bytes served at the edge."""
        total = sum(r.size_mbit for r in self.records)
        if total <= 0:
            return 0.0
        return self.total_edge_hit_mbit / total

    # ------------------------------------------------------------------
    # Resilience (fault-injected sessions; all zero on the ideal path)
    # ------------------------------------------------------------------

    @property
    def total_retries(self) -> int:
        """Download attempts beyond the first, summed over segments."""
        return sum(r.retries for r in self.records)

    @property
    def total_timeouts(self) -> int:
        """Attempts aborted by the playback deadline, summed."""
        return sum(r.timeouts for r in self.records)

    @property
    def degraded_segment_count(self) -> int:
        """Segments delivered below the scheme's planned rung."""
        return sum(1 for r in self.records if r.degraded_level > 0)

    @property
    def skipped_segment_count(self) -> int:
        """Segments skipped outright (DegradationLevel.SKIPPED)."""
        return sum(1 for r in self.records if r.degraded_level >= 3)

    # ------------------------------------------------------------------
    # Uncertainty (robust planning; trusting defaults elsewhere)
    # ------------------------------------------------------------------

    @property
    def mean_expected_coverage(self) -> float:
        """Mean planner-expected viewport coverage across segments."""
        self._require_records()
        return float(np.mean([r.expected_coverage for r in self.records]))

    @property
    def mean_uncertainty_deg(self) -> float:
        """Mean angular error scale (degrees) planned against."""
        self._require_records()
        return float(np.mean([r.uncertainty_deg for r in self.records]))

    def _require_records(self) -> None:
        if not self.records:
            raise ValueError("session has no records")


def mean_sessions(results: list[SessionResult]) -> dict[str, float]:
    """Average the headline metrics over a batch of sessions."""
    if not results:
        raise ValueError("no sessions to aggregate")
    return {
        "energy_j": float(np.mean([r.total_energy_j for r in results])),
        "energy_per_segment_j": float(
            np.mean([r.energy_per_segment_j for r in results])
        ),
        "transmission_j": float(np.mean([r.energy.transmission_j for r in results])),
        "decoding_j": float(np.mean([r.energy.decoding_j for r in results])),
        "rendering_j": float(np.mean([r.energy.rendering_j for r in results])),
        "qoe": float(np.mean([r.mean_qoe for r in results])),
        "qo": float(np.mean([r.session_qoe.mean_qo for r in results])),
        "variation": float(np.mean([r.session_qoe.mean_variation for r in results])),
        "rebuffer_penalty": float(
            np.mean([r.session_qoe.mean_rebuffer for r in results])
        ),
        "rebuffer_count": float(np.mean([r.rebuffer_count for r in results])),
        "stall_s": float(np.mean([r.total_stall_s for r in results])),
        "quality_level": float(np.mean([r.mean_quality_level for r in results])),
        "frame_rate": float(np.mean([r.mean_frame_rate for r in results])),
        "coverage": float(np.mean([r.mean_coverage for r in results])),
    }
