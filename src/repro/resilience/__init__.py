"""Resilience subsystem: deterministic fault injection and the
deadline-aware download policy (retry, backoff, graceful degradation).
A fault plan acts on a download through the one trace walk,
:meth:`~repro.traces.network.NetworkTrace.download_within`.

See ``docs/MODELING.md`` §10 for the fault semantics and the policy's
timeout/ladder rules.
"""

from .faults import (
    FAULT_PROFILES,
    CollapseWindow,
    FaultPlan,
    LatencySpike,
    Outage,
    generate_fault_plan,
)
from .policy import (
    DegradationLevel,
    DownloadOutcome,
    DownloadPolicy,
    execute_download,
)

__all__ = [
    "FAULT_PROFILES",
    "CollapseWindow",
    "FaultPlan",
    "LatencySpike",
    "Outage",
    "generate_fault_plan",
    "DegradationLevel",
    "DownloadOutcome",
    "DownloadPolicy",
    "execute_download",
]
