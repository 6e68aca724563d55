"""Resilience subsystem: deterministic fault injection and the
deadline-aware download policy (retry, backoff, graceful degradation).

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
from .network import FaultyNetwork
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
    "FaultyNetwork",
    "DegradationLevel",
    "DownloadOutcome",
    "DownloadPolicy",
    "execute_download",
]
