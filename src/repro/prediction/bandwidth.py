"""Bandwidth estimation (paper Section IV-C).

The paper estimates future bandwidth with the harmonic mean of the
downloading throughput of the past several segments, which suppresses
the influence of isolated spikes and dips.  EWMA and last-sample
estimators are provided as alternatives for ablation studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["HarmonicMeanEstimator", "EwmaEstimator", "LastSampleEstimator"]


@dataclass
class HarmonicMeanEstimator:
    """Harmonic mean of the last ``window`` throughput samples (Mbps).

    Elementwise over rows: :meth:`add` takes a float (one estimator) or
    an ``(N,)`` array (one sample per session, as the session kernel
    passes them), and the first sample fixes the row shape; a masked
    entry of a :class:`numpy.ma.MaskedArray` is a row that took no
    sample.  :meth:`estimate` answers in the same shape.
    """

    window: int = 5
    # Each row's window, oldest sample first.  Empty slots hold inf,
    # whose reciprocal adds 0.0 ahead of the first sample, so the left
    # fold is the one over the samples alone.
    _ring: np.ndarray | None = field(default=None, repr=False, compare=False)
    _count: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be at least 1")

    def add(self, throughput_mbps) -> None:
        if isinstance(throughput_mbps, np.ma.MaskedArray):
            values = throughput_mbps.data
            taking = ~np.ma.getmaskarray(throughput_mbps)
        else:
            values, taking = np.asarray(throughput_mbps, dtype=float), None
        if ((values if taking is None else values[taking]) <= 0).any():
            raise ValueError("throughput must be positive")
        if self._ring is None:
            self._ring = np.full(values.shape + (self.window,), np.inf)
            self._count = np.zeros(values.shape, dtype=np.int64)
        ring, count = self._ring, self._count
        if taking is None:
            ring[..., :-1] = ring[..., 1:]
            ring[..., -1] = values
            np.minimum(count + 1, self.window, out=count)
        else:
            ring[taking, :-1] = ring[taking, 1:]
            ring[taking, -1] = values[taking]
            count[taking] = np.minimum(count[taking] + 1, self.window)

    @property
    def num_samples(self):
        if self._count is None:
            return 0
        return self._count.copy() if self._count.ndim else int(self._count)

    def estimate(self):
        """Harmonic-mean estimate; raises if a row has no sample yet."""
        if self._count is None or not self._count.all():
            raise RuntimeError("no throughput samples yet")
        ring = self._ring
        recip = 1.0 / ring[..., 0]
        for j in range(1, self.window):
            recip = recip + 1.0 / ring[..., j]
        estimate = self._count / recip
        return estimate if estimate.ndim else float(estimate)


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
