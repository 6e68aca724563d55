"""Bandwidth estimation (paper Section IV-C).

The paper estimates future bandwidth with the harmonic mean of the
downloading throughput of the past several segments, which suppresses
the influence of isolated spikes and dips.  EWMA and last-sample
estimators are provided as alternatives for ablation studies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .. import fold_sum

__all__ = ["HarmonicMeanEstimator", "EwmaEstimator", "LastSampleEstimator"]


@dataclass
class HarmonicMeanEstimator:
    """Harmonic mean of the last ``window`` throughput samples (Mbps)."""

    window: int = 5
    _samples: deque = field(default_factory=deque, repr=False)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be at least 1")

    def add(self, throughput_mbps: float) -> None:
        if throughput_mbps <= 0:
            raise ValueError("throughput must be positive")
        self._samples.append(throughput_mbps)
        while len(self._samples) > self.window:
            self._samples.popleft()

    @property
    def num_samples(self) -> int:
        return len(self._samples)

    def estimate(self) -> float:
        """Harmonic-mean estimate; raises if no samples were added."""
        if not self._samples:
            raise RuntimeError("no throughput samples yet")
        return len(self._samples) / fold_sum(1.0 / s for s in self._samples)


@dataclass
class EwmaEstimator:
    """Exponentially weighted moving average estimator."""

    alpha: float = 0.3
    _value: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")

    def add(self, throughput_mbps: float) -> None:
        if throughput_mbps <= 0:
            raise ValueError("throughput must be positive")
        if self._value is None:
            self._value = throughput_mbps
        else:
            self._value = self.alpha * throughput_mbps + (1 - self.alpha) * self._value

    def estimate(self) -> float:
        if self._value is None:
            raise RuntimeError("no throughput samples yet")
        return self._value


@dataclass
class LastSampleEstimator:
    """Most recent throughput sample (the naive baseline)."""

    _value: float | None = None

    def add(self, throughput_mbps: float) -> None:
        if throughput_mbps <= 0:
            raise ValueError("throughput must be positive")
        self._value = throughput_mbps

    def estimate(self) -> float:
        if self._value is None:
            raise RuntimeError("no throughput samples yet")
        return self._value
