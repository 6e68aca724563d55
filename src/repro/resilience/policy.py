"""Deadline-aware retry, backoff, and graceful degradation.

The ideal-network session assumes every download eventually succeeds;
the only failure mode is a stall.  Production clients behave very
differently when a link misbehaves: they time out a fetch that will
blow the playback deadline, retry with exponential backoff, and degrade
what they ask for rather than stall indefinitely.  The paper's Ptile
design anticipates exactly this — the low-quality block layer exists as
a fallback covering the non-Ptile area (Sec. IV-A) — and deadline-driven
fetching (Flare) already motivates ``late_fetch_horizon_s``.

:func:`execute_download` runs one segment's fetch under a
:class:`DownloadPolicy` against a network trace, each attempt walked
over the link the fault plan leaves
(:meth:`~repro.traces.network.NetworkTrace.download_within`):

* **Deadline budget.**  When segment ``k`` is requested with ``B``
  seconds buffered, the playback deadline is ``B`` seconds away.  The
  segment's time budget is ``B + timeout_slack_s``; an attempt is
  aborted once it would outlive ``max(min_timeout_s, budget - spent)``.
  The cold-start segment has no deadline (startup delay, not a stall),
  so its budget is unlimited.
* **Bounded retry with backoff.**  A corrupt/failed transfer is retried
  at the same ladder level after an exponential backoff
  (``min(backoff_cap_s, backoff_base_s * backoff_factor**i)``), charged
  as real wall time.  Total attempts never exceed
  ``retry_budget + 1``.
* **Degradation ladder.**  A timed-out attempt descends one level:
  retry the scheme's plan → the plan one quality step lower at a
  reduced frame rate (``REDUCED``) → only the lowest-quality block
  layer covering the whole frame (``LOW_LAYER``) → skip the segment
  entirely (``SKIPPED``, zero quality, full coverage penalty).

Aborted attempts charge their real elapsed time (latency + partial
transfer) to the wall clock and their radio-active time to transmission
energy; backoff waits cost wall time only.  Everything is a pure
function of the inputs, so faulty sessions stay deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from ..streaming.schemes import LOWEST_QUALITY, DownloadPlan
from .faults import FaultPlan

__all__ = [
    "DegradationLevel",
    "DownloadPolicy",
    "DownloadOutcome",
    "execute_download",
]

_UNBOUNDED_S = 1e9
"""Stand-in for an infinite attempt budget (cold-start segments)."""


class DegradationLevel(IntEnum):
    """Rungs of the graceful-degradation ladder, best first."""

    FULL = 0
    REDUCED = 1
    LOW_LAYER = 2
    SKIPPED = 3


@dataclass(frozen=True)
class DownloadPolicy:
    """Client-side retry/timeout/degradation parameters."""

    retry_budget: int = 2
    backoff_base_s: float = 0.2
    backoff_factor: float = 2.0
    backoff_cap_s: float = 2.0
    timeout_slack_s: float = 0.75
    min_timeout_s: float = 0.5

    def __post_init__(self) -> None:
        if self.retry_budget < 0:
            raise ValueError("retry budget must be non-negative")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff times must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.timeout_slack_s < 0:
            raise ValueError("timeout slack must be non-negative")
        if self.min_timeout_s <= 0:
            raise ValueError("minimum timeout must be positive")

    def backoff_s(self, retry_index: int) -> float:
        """Wait before retry ``retry_index`` (0-based) of one segment."""
        return min(
            self.backoff_cap_s,
            self.backoff_base_s * self.backoff_factor**retry_index,
        )

    def deadline_budget_s(self, buffer_level_s: float) -> float:
        """Total tolerable fetch time before degrading, from the buffer
        level at request time (the playback deadline)."""
        return max(self.min_timeout_s, buffer_level_s + self.timeout_slack_s)

    def first_timeouts_s(self, buffer_level_s: np.ndarray,
                         cold_start: bool) -> np.ndarray:
        """Each row's first-attempt timeout, as :func:`execute_download`
        sets it, from its buffer level at request time."""
        if cold_start:
            return np.full(buffer_level_s.shape, _UNBOUNDED_S)
        return np.minimum(np.maximum(
            self.min_timeout_s, buffer_level_s + self.timeout_slack_s
        ), _UNBOUNDED_S)


@dataclass(frozen=True)
class DownloadOutcome:
    """What one segment's resilient fetch actually delivered."""

    plan: DownloadPlan  # the delivered (possibly degraded) plan
    level: DegradationLevel
    elapsed_s: float  # wall time: latency + transfers + backoffs
    active_s: float  # radio-active time (transmission energy)
    retries: int  # attempts beyond the first
    timeouts: int  # attempts aborted by the deadline
    failed_attempts: int  # attempts completed corrupt
    edge_hit_mbit: float  # edge-served bytes of the delivered object

    @property
    def skipped(self) -> bool:
        return self.level == DegradationLevel.SKIPPED


def _reduced_plan(plan: DownloadPlan, seg, fps: float) -> DownloadPlan:
    """One quality step down at a reduced frame rate.

    The size is scaled by the rate law's ratio between the two quality
    levels (the encoder model is multiplicative in quality, so the
    full-frame ratio applies uniformly to any region mix).
    """
    reduced_q = max(float(LOWEST_QUALITY), math.ceil(plan.quality) - 1.0)
    if reduced_q >= plan.quality:
        ratio = 1.0
        reduced_q = plan.quality
    else:
        ratio = seg.full_frame_size_mbit(reduced_q) / seg.full_frame_size_mbit(
            plan.quality
        )
    return replace(
        plan,
        quality=reduced_q,
        total_size_mbit=plan.total_size_mbit * ratio,
        frame_rate=min(plan.frame_rate, 0.8 * fps),
    )


def _low_layer_plan(plan: DownloadPlan, seg, fps: float) -> DownloadPlan:
    """Only the lowest-quality layer covering the whole frame."""
    return DownloadPlan(
        scheme_name=plan.scheme_name,
        quality=LOWEST_QUALITY,
        frame_rate=min(plan.frame_rate, 0.7 * fps),
        total_size_mbit=seg.full_frame_size_mbit(LOWEST_QUALITY),
        decode_scheme=plan.decode_scheme,
    )


def _skip_plan(plan: DownloadPlan, fps: float) -> DownloadPlan:
    """Nothing downloaded; the player freezes through the gap."""
    return DownloadPlan(
        scheme_name=plan.scheme_name,
        quality=LOWEST_QUALITY,
        frame_rate=min(plan.frame_rate, 0.7 * fps),
        total_size_mbit=0.0,
        decode_scheme=plan.decode_scheme,
    )


# Fetchable rungs before SKIP: FULL, REDUCED, LOW_LAYER.
_LADDER_DEPTH = 3


def execute_download(
    net,
    plan: DownloadPlan,
    seg,
    fps: float,
    *,
    policy: DownloadPolicy,
    fault_plan: FaultPlan | None,
    start_wall_t: float,
    buffer_level_s: float,
    segment_index: int,
    edge_model=None,
    unlimited_deadline: bool = False,
) -> DownloadOutcome:
    """Fetch one segment under the retry/degradation policy.

    ``net`` is the :class:`~repro.traces.network.NetworkTrace` the
    fetch runs over; its ``download_within`` walks each attempt over
    the link ``fault_plan`` leaves (outages and collapse windows
    scale the trace).  ``edge_model`` splits each attempt: the cached
    fraction takes edge-link time, added after the backhaul walk of the
    miss, which starts at the first byte.  A fault plan's edge failure
    zeroes the hit ratio from its fault time.
    ``unlimited_deadline`` marks the cold-start segment, whose fetch
    time is startup delay rather than a stall.
    """
    budget = (
        _UNBOUNDED_S
        if unlimited_deadline
        else policy.deadline_budget_s(buffer_level_s)
    )
    attempts_left = policy.retry_budget + 1
    attempt_no = 0
    elapsed = 0.0
    active = 0.0
    timeouts = 0
    failures = 0
    rung = 0
    # Rung plans are built lazily: a fetch that degrades builds only
    # the rungs it reaches.
    rung_built = -1
    level, lplan = DegradationLevel.FULL, plan
    while rung < _LADDER_DEPTH and attempts_left > 0:
        if rung != rung_built:
            if rung == 1:
                level, lplan = DegradationLevel.REDUCED, _reduced_plan(
                    plan, seg, fps
                )
            elif rung == 2:
                level, lplan = DegradationLevel.LOW_LAYER, _low_layer_plan(
                    plan, seg, fps
                )
            rung_built = rung
        attempt_timeout = min(
            max(policy.min_timeout_s, budget - elapsed), _UNBOUNDED_S
        )
        t = start_wall_t + elapsed
        latency = fault_plan.extra_latency(t) if fault_plan is not None else 0.0
        attempt_no += 1
        attempts_left -= 1
        if latency >= attempt_timeout:
            elapsed += attempt_timeout
            timeouts += 1
            rung += 1
            continue
        avail = attempt_timeout - latency
        edge_alive = edge_model is not None and (
            fault_plan is None or fault_plan.edge_available(t)
        )
        hit = edge_model.hit_ratio(segment_index) if edge_alive else 0.0
        edge_mbit = lplan.total_size_mbit * hit
        edge_time = (
            edge_mbit / edge_model.edge_bandwidth_mbps if edge_mbit > 0 else 0.0
        )
        if edge_time >= avail and lplan.total_size_mbit > 0:
            elapsed += attempt_timeout
            active += avail
            timeouts += 1
            rung += 1
            continue
        miss_mbit = lplan.total_size_mbit - edge_mbit
        delivered, used, completed = net.download_within(
            miss_mbit, t + latency, avail - edge_time, fault_plan
        )
        attempt_active = edge_time + used
        if not completed:
            elapsed += attempt_timeout
            active += attempt_active
            timeouts += 1
            rung += 1
            continue
        if fault_plan is not None and fault_plan.attempt_fails(
            segment_index, attempt_no - 1
        ):
            failures += 1
            elapsed += latency + attempt_active
            active += attempt_active
            # Back off before retrying the same rung; real wall time.
            elapsed += policy.backoff_s(failures - 1)
            continue
        elapsed += latency + attempt_active
        active += attempt_active
        return DownloadOutcome(
            plan=lplan,
            level=level,
            elapsed_s=elapsed,
            active_s=active,
            retries=attempt_no - 1,
            timeouts=timeouts,
            failed_attempts=failures,
            edge_hit_mbit=edge_mbit,
        )
    return DownloadOutcome(
        plan=_skip_plan(plan, fps),
        level=DegradationLevel.SKIPPED,
        elapsed_s=elapsed,
        active_s=active,
        retries=max(attempt_no - 1, 0),
        timeouts=timeouts,
        failed_attempts=failures,
        edge_hit_mbit=0.0,
    )
