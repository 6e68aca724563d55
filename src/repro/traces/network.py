"""LTE network throughput traces.

The paper drives its simulations with an HTTP/2 4G/LTE throughput trace
(van der Hooft et al.), linearly scaled into two conditions: *trace 2*
has mean 3.9 Mbps ranging 2.3-8.4 Mbps, and *trace 1* is exactly twice
trace 2 (Section V-A).

:class:`NetworkTrace` stores per-second bandwidth bins and simulates
downloads against them with one bin walk (bounded by a deadline,
optionally over the link a resilience fault plan leaves) and its
columnar twin; :func:`generate_lte_trace` synthesizes a trace
with trace 2's published statistics (log-AR(1) variation plus occasional
handover dips); :func:`paper_traces` returns the (trace 1, trace 2)
pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..resilience.faults import FaultPlan

__all__ = ["NetworkTrace", "generate_lte_trace", "paper_traces"]


@dataclass(frozen=True)
class NetworkTrace:
    """Piecewise-constant bandwidth over one-second bins.

    The trace repeats cyclically when a simulation outlives it, as is
    standard for trace-driven streaming evaluation.
    """

    name: str
    bandwidth_mbps: np.ndarray = field(repr=False)
    bin_seconds: float = 1.0

    def __post_init__(self) -> None:
        bw = np.asarray(self.bandwidth_mbps, dtype=float)
        if bw.ndim != 1 or bw.size == 0:
            raise ValueError("bandwidth must be a non-empty 1D array")
        if np.any(bw < 0):
            raise ValueError("bandwidth must be non-negative")
        if self.bin_seconds <= 0:
            raise ValueError("bin duration must be positive")
        object.__setattr__(self, "bandwidth_mbps", bw)

    @property
    def duration_s(self) -> float:
        return float(self.bandwidth_mbps.size * self.bin_seconds)

    def bandwidth_at(self, t, faults=None):
        """Bandwidth (Mbps) at absolute time ``t`` (cyclic).

        Elementwise: an array of times (one per session, as the session
        kernel passes them) gives an array; a float keeps the scalar
        walk of :meth:`download_within` free of numpy overhead.  A
        float ``t`` may take a :class:`~repro.resilience.FaultPlan`,
        whose factor at ``t`` scales the sample: the effective link,
        0 inside an outage.
        """
        bw = self.bandwidth_mbps
        if isinstance(t, np.ndarray):
            if (t < 0).any():
                raise ValueError("time must be non-negative")
            return bw[(t / self.bin_seconds).astype(np.int64) % bw.size]
        if t < 0:
            raise ValueError("time must be non-negative")
        sample = float(bw[int(t / self.bin_seconds) % bw.size])
        return sample if faults is None else sample * faults.bandwidth_factor(t)

    def next_positive_bandwidth(self, t: float) -> float:
        """First strictly positive bandwidth sample at or after ``t``.

        Traces may contain zero-bandwidth bins (outage seconds); this
        scans forward cyclically until the link comes back.  Identical
        to :meth:`bandwidth_at` on all-positive traces.
        """
        if t < 0:
            raise ValueError("time must be non-negative")
        bw = self.bandwidth_mbps
        start = int(t / self.bin_seconds) % bw.size
        for offset in range(bw.size):
            sample = float(bw[(start + offset) % bw.size])
            if sample > 0:
                return sample
        raise ValueError(
            f"trace {self.name!r} has no positive bandwidth anywhere"
        )

    def download_time(self, size_mbit: float, start_t: float) -> float:
        """Seconds needed to download ``size_mbit`` starting at ``start_t``:
        :meth:`download_within` with no deadline, which only a trace
        with zero bandwidth everywhere leaves incomplete."""
        _, elapsed, completed = self.download_within(
            size_mbit, start_t, math.inf
        )
        if not completed:
            raise ValueError(
                f"cannot download {size_mbit:g} Mbit: trace "
                f"{self.name!r} has zero bandwidth everywhere"
            )
        return elapsed

    def download_within(
        self, size_mbit: float, start_t: float, budget_s: float,
        faults: FaultPlan | None = None,
    ) -> tuple[float, float, bool]:
        """Download ``size_mbit`` from ``start_t`` under a wall-clock
        budget, over the link a fault plan leaves (deadline-aware
        fetching).

        Integrates the piecewise-constant bandwidth piece by piece,
        crossing bin boundaries (and wrapping cyclically).  A piece ends
        at the first of the bin edge, the deadline and the next fault
        boundary; ``faults`` scales its bandwidth, so an outage adds
        wall time and no bytes.  Returns ``(delivered_mbit, elapsed_s,
        completed)``: either the full object arrived early
        (``elapsed_s <= budget_s``, ``completed=True``) or the budget
        ran out mid-transfer and the partial bytes are reported
        (``elapsed_s == budget_s``, ``completed=False``).  The resilience
        download policy uses this to charge timed-out attempts their
        real trace time; :meth:`download_time` is the unbounded,
        fault-free case.
        """
        if size_mbit < 0:
            raise ValueError("size must be non-negative")
        if start_t < 0:
            raise ValueError("start time must be non-negative")
        if budget_s < 0:
            raise ValueError("budget must be non-negative")
        if size_mbit == 0:
            return 0.0, 0.0, True
        if budget_s == 0:
            return 0.0, 0.0, False
        bin_s = self.bin_seconds
        remaining = size_mbit
        t = start_t
        elapsed = 0.0
        deadline = start_t + budget_s
        while remaining > 1e-12 and t < deadline:
            bw = self.bandwidth_at(t, faults)
            if bw <= 0 and not (self.bandwidth_mbps > 0).any():
                # A dead link delivers nothing: the whole budget elapses
                # with zero bytes (a timeout, not an error — callers
                # treat partial delivery as a deadline miss and degrade
                # or retry).  Checked only at an empty piece, so a
                # transfer over live bins never pays the scan.
                return 0.0, budget_s, False
            piece_end = min((int(t / bin_s) + 1) * bin_s, deadline)
            if faults is not None:
                piece_end = min(piece_end, faults.next_boundary_after(t))
            window = piece_end - t
            if window <= 0:  # pragma: no cover - safety net
                raise RuntimeError("download made no progress")
            capacity = bw * window
            if capacity >= remaining:
                return size_mbit, elapsed + remaining / bw, True
            remaining -= capacity
            elapsed += window
            t = piece_end
        if remaining > 1e-12:
            return size_mbit - remaining, budget_s, False
        return size_mbit, elapsed, True  # all but a sub-1e-12 Mbit residual

    def download_times(
        self, sizes: np.ndarray, starts: np.ndarray, budgets: np.ndarray,
        faults: FaultPlan | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`download_within` of each ``(size, start, budget)`` row,
        operation for operation: the ``(elapsed, completed)`` columns (a
        few rows take the scalar walk, cheaper than numpy at that size).
        An unbounded row that cannot complete (on a trace with zero
        bandwidth everywhere) raises, as in :meth:`download_time`."""
        if sizes.size <= 4:
            walks = [self.download_within(size, start, budget, faults)
                     for size, start, budget in zip(
                         sizes.tolist(), starts.tolist(), budgets.tolist())]
            elapsed = np.array([walk[1] for walk in walks], dtype=float)
            completed = np.array([walk[2] for walk in walks], dtype=bool)
        else:
            elapsed, completed = self._walk(sizes, starts, budgets, faults)
        if not completed.all() and np.isinf(budgets[~completed]).any():
            raise ValueError(f"trace {self.name!r} has zero bandwidth "
                             "everywhere")
        return elapsed, completed

    def _walk(self, sizes, starts, budgets, faults):
        """The columnar :meth:`download_within`: each walking row's piece
        ends at the first of its bin edge, its deadline and the fault
        plan's next boundary."""
        if (sizes < 0).any():
            raise ValueError("size must be non-negative")
        if (starts < 0).any():
            raise ValueError("start time must be non-negative")
        if (budgets < 0).any():
            raise ValueError("budget must be non-negative")
        bins, bin_s = self.bandwidth_mbps, self.bin_seconds
        remaining = sizes.astype(float)
        t = starts.astype(float)
        elapsed = np.zeros_like(remaining)
        walking = remaining > 1e-12
        # Only a finite deadline can end a piece or the walk early.
        bounded = not np.isinf(budgets).all()
        if bounded:
            deadline = t + budgets
            walking &= t < deadline
        # A dead link delivers nothing: each walking row times out.
        active = np.flatnonzero(walking) if bins.any() else np.arange(0)
        while active.size:
            now = t[active]
            index = (now / bin_s).astype(np.int64)
            bw = bins[index % bins.size]
            end = (index + 1) * bin_s
            if bounded:
                end = np.minimum(end, deadline[active])
            if faults is not None:
                bw = bw * faults.bandwidth_factor(now)
                end = np.minimum(end, faults.next_boundary_after(now))
            window = end - now
            if not (window > 0).all():  # pragma: no cover - safety net
                raise RuntimeError("download made no progress")
            capacity = bw * window
            fits = capacity >= remaining[active]
            rows = active[fits]
            elapsed[rows] += remaining[rows] / bw[fits]
            remaining[rows] = 0.0  # arrived
            rows = active[~fits]
            remaining[rows] -= capacity[~fits]
            elapsed[rows] += window[~fits]
            t[rows] = end[~fits]
            active = rows[remaining[rows] > 1e-12]
            if bounded:
                active = active[t[active] < deadline[active]]
        # A row left with a sub-1e-12 Mbit residual arrived; any other
        # ran out of budget.
        timed_out = remaining > 1e-12
        elapsed[timed_out] = budgets[timed_out]
        completed = ~timed_out
        if bounded:  # a zero budget fetches nothing, however little
            completed &= (sizes == 0) | (budgets != 0)
        return elapsed, completed

    def scaled(self, factor: float, name: str | None = None) -> "NetworkTrace":
        """Linearly scaled copy (the paper's trace 1 = 2 x trace 2)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return NetworkTrace(
            name=name or f"{self.name}x{factor:g}",
            bandwidth_mbps=self.bandwidth_mbps * factor,
            bin_seconds=self.bin_seconds,
        )

    @property
    def mean_mbps(self) -> float:
        return float(np.mean(self.bandwidth_mbps))

    @property
    def min_mbps(self) -> float:
        return float(np.min(self.bandwidth_mbps))

    @property
    def max_mbps(self) -> float:
        return float(np.max(self.bandwidth_mbps))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("bandwidth_mbps\n")
            for bw in self.bandwidth_mbps:
                fh.write(f"{bw:.6f}\n")

    @classmethod
    def from_csv(cls, path: str | Path, name: str | None = None) -> "NetworkTrace":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines or lines[0].lower() != "bandwidth_mbps":
            raise ValueError("expected header 'bandwidth_mbps'")
        values = np.array([float(v) for v in lines[1:]])
        return cls(name=name or Path(path).stem, bandwidth_mbps=values)


def generate_lte_trace(
    duration_s: int = 600,
    seed: int = 2016,  # van der Hooft et al. dataset vintage
    mean_mbps: float = 3.9,
    min_mbps: float = 2.3,
    max_mbps: float = 8.4,
    name: str = "lte",
) -> NetworkTrace:
    """Synthesize an LTE trace matching trace 2's published statistics.

    Log-space AR(1) variation around the target mean plus occasional
    multi-second handover dips, then an exact affine re-calibration so
    the generated trace hits the requested mean/min/max.
    """
    if duration_s < 10:
        raise ValueError("trace must be at least 10 seconds")
    if not (0 < min_mbps < mean_mbps < max_mbps):
        raise ValueError("need min < mean < max, all positive")
    rng = np.random.default_rng(seed)
    n = duration_s

    log_bw = np.empty(n)
    mu = np.log(mean_mbps) - 0.03
    phi = 0.92
    sigma = 0.16
    x = mu + rng.normal(0.0, sigma)
    for i in range(n):
        x = mu + phi * (x - mu) + rng.normal(0.0, sigma * np.sqrt(1 - phi * phi) * 2.2)
        log_bw[i] = x
    bw = np.exp(log_bw)

    # Handover / congestion dips: ~one per 90 s, 2-5 s long, 40-70 % drop.
    cursor = 0.0
    while True:
        cursor += rng.exponential(90.0)
        if cursor >= n:
            break
        length = int(rng.uniform(2, 6))
        depth = rng.uniform(0.3, 0.6)
        lo = int(cursor)
        bw[lo : lo + length] *= depth

    # Affine recalibration: match the min and max exactly, then nudge the
    # midrange towards the target mean with a power-law warp.
    bw = (bw - bw.min()) / (bw.max() - bw.min())
    for _ in range(40):
        current_mean = float(np.mean(min_mbps + bw * (max_mbps - min_mbps)))
        error = current_mean - mean_mbps
        if abs(error) < 1e-6:
            break
        exponent = 1.0 + np.clip(error / (max_mbps - min_mbps), -0.5, 0.5)
        bw = bw**exponent
    bw = min_mbps + bw * (max_mbps - min_mbps)
    return NetworkTrace(name=name, bandwidth_mbps=bw)


def paper_traces(
    duration_s: int = 600, seed: int = 2016
) -> tuple[NetworkTrace, NetworkTrace]:
    """The paper's (trace 1, trace 2): trace 1 is twice trace 2."""
    trace2 = generate_lte_trace(duration_s, seed, name="trace2")
    trace1 = trace2.scaled(2.0, name="trace1")
    return trace1, trace2
