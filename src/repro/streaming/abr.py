"""Quality selection for the baseline schemes.

Ctile, Ftile, Nontile and the Ptile variant pick the *highest quality
the predicted bandwidth can sustain* (the paper's baselines maximize
quality under the network constraint; energy is not part of their
objective).  The rule is a standard throughput-based DASH heuristic:
the download budget is one segment duration of predicted throughput
(with a safety factor), tightened when the buffer is nearly empty.
Surplus buffer does not raise the budget by default — spending beyond
the sustainable rate just oscillates the quality and keeps the radio
busy; set ``surplus_scale > 0`` to study that behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["ThroughputBufferABR"]


@dataclass(frozen=True)
class ThroughputBufferABR:
    """Pick the largest quality whose size fits the download budget."""

    safety: float = 0.95
    low_buffer_s: float = 1.0
    low_buffer_scale: float = 0.6
    surplus_start_s: float = 2.0
    surplus_scale: float = 0.0

    def __post_init__(self) -> None:
        if not (0 < self.safety <= 1):
            raise ValueError("safety must be in (0, 1]")

    def budget_mbit(self, bandwidth_mbps, buffer_s, segment_s: float = 1.0):
        """Megabits the client is willing to spend on this segment
        (elementwise: the session kernel passes one row per session)."""
        if np.any(bandwidth_mbps <= 0):
            raise ValueError("bandwidth must be positive")
        if np.any(buffer_s < 0):
            raise ValueError("buffer must be non-negative")
        budget_time = np.where(
            buffer_s < self.low_buffer_s,
            segment_s * self.low_buffer_scale,
            np.where(
                buffer_s > self.surplus_start_s,
                segment_s + self.surplus_scale * (buffer_s - self.surplus_start_s),
                segment_s,
            ),
        )
        return bandwidth_mbps * self.safety * budget_time

    @staticmethod
    def pick(sizes: np.ndarray, budget: np.ndarray) -> np.ndarray:
        """Per row of ``(n, Q)`` sizes over ascending qualities: the
        index of the highest quality within ``budget``, else 0."""
        fits = sizes <= budget[:, None]
        last = (fits.shape[1] - 1) - np.argmax(fits[:, ::-1], axis=1)
        return np.where(fits.any(axis=1), last, 0)

    def choose_quality(
        self,
        sizes: Sequence[float],
        bandwidth_mbps: float,
        buffer_s: float,
        segment_s: float = 1.0,
        qualities: Sequence[float] = (1, 2, 3, 4, 5),
    ) -> float:
        """Highest quality whose total segment size fits the budget.

        ``sizes[i]`` is the segment's total size at ``qualities[i]``.
        Falls back to the lowest quality when nothing fits.
        """
        if not qualities:
            raise ValueError("need at least one quality level")
        if len(sizes) != len(qualities):
            raise ValueError(f"need one size per quality level, got {len(sizes)}")
        # The one-row case of the kernel's pick, over ascending qualities.
        order = sorted(range(len(qualities)), key=qualities.__getitem__)
        budget = self.budget_mbit(bandwidth_mbps, buffer_s, segment_s)
        best = self.pick(np.array([[sizes[i] for i in order]], dtype=float),
                         np.reshape(budget, 1))[0]
        return qualities[order[best]]
