"""Record-loop session aggregates: the oracle for the columnar result.

:class:`RecordLoopResult` is the per-record implementation that
:class:`~repro.streaming.metrics.SessionResult` used while it stored a
list of :class:`~repro.streaming.metrics.SegmentRecord` objects: every
aggregate is a Python loop over the records.  The columnar result must
equal it bit for bit, including the Python type of each value, on every
interpreter (``tests/test_streaming_metrics.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.power import SegmentEnergy
from repro.qoe import SessionQoE
from repro.streaming import SegmentRecord

__all__ = ["AGGREGATES", "RecordLoopResult", "reference_mean_sessions"]

AGGREGATES = (
    "num_segments", "energy", "total_energy_j", "energy_per_segment_j",
    "mean_qoe", "mean_qo", "mean_variation", "mean_rebuffer",
    "mean_quality_level", "mean_frame_rate", "mean_coverage",
    "total_stall_s", "rebuffer_count", "ptile_hit_rate",
    "total_size_mbit", "total_edge_hit_mbit", "edge_hit_fraction",
    "total_retries", "total_timeouts", "degraded_segment_count",
    "skipped_segment_count", "mean_expected_coverage",
    "mean_uncertainty_deg",
)
"""Every aggregate property both implementations expose."""


@dataclass
class RecordLoopResult:
    records: list[SegmentRecord] = field(default_factory=list)

    @property
    def num_segments(self) -> int:
        return len(self.records)

    @property
    def energy(self) -> SegmentEnergy:
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
    def mean_qo(self) -> float:
        return self.session_qoe.mean_qo

    @property
    def mean_variation(self) -> float:
        return self.session_qoe.mean_variation

    @property
    def mean_rebuffer(self) -> float:
        return self.session_qoe.mean_rebuffer

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

    @property
    def total_stall_s(self) -> float:
        return sum(r.stall_s for r in self.records)

    @property
    def rebuffer_count(self) -> int:
        return sum(1 for r in self.records if r.stall_s > 0 and r.index > 0)

    @property
    def ptile_hit_rate(self) -> float:
        self._require_records()
        return float(np.mean([r.used_ptile for r in self.records]))

    @property
    def total_size_mbit(self) -> float:
        return sum(r.size_mbit for r in self.records)

    @property
    def total_edge_hit_mbit(self) -> float:
        return sum(r.edge_hit_mbit for r in self.records)

    @property
    def edge_hit_fraction(self) -> float:
        total = sum(r.size_mbit for r in self.records)
        if total <= 0:
            return 0.0
        return self.total_edge_hit_mbit / total

    @property
    def total_retries(self) -> int:
        return sum(r.retries for r in self.records)

    @property
    def total_timeouts(self) -> int:
        return sum(r.timeouts for r in self.records)

    @property
    def degraded_segment_count(self) -> int:
        return sum(1 for r in self.records if r.degraded_level > 0)

    @property
    def skipped_segment_count(self) -> int:
        return sum(1 for r in self.records if r.degraded_level >= 3)

    @property
    def mean_expected_coverage(self) -> float:
        self._require_records()
        return float(np.mean([r.expected_coverage for r in self.records]))

    @property
    def mean_uncertainty_deg(self) -> float:
        self._require_records()
        return float(np.mean([r.uncertainty_deg for r in self.records]))

    def _require_records(self) -> None:
        if not self.records:
            raise ValueError("session has no records")


def reference_mean_sessions(results: list[RecordLoopResult]) -> dict:
    """``mean_sessions`` over record-loop results."""
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
