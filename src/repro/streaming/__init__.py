"""Streaming layer: buffer, ABR, schemes, Ftile partition, simulator."""

from .abr import ThroughputBufferABR
from .buffer import BufferEvent, PlaybackBuffer
from .cache import (
    CacheStats,
    CacheTenant,
    EdgeCache,
    EdgeHitModel,
    SharedCacheResult,
    build_edge_hit_model,
    build_shared_edge_hit_models,
    interleave_tenant_requests,
    ptile_vs_ctile_caching,
    simulate_cache,
)
from .ftile import (
    FtileCell,
    FtilePartition,
    build_ftile_partition,
    build_video_ftiles,
)
from .metrics import (
    SegmentRecord,
    SessionResult,
    mean_sessions,
)
from .population import PopulationEngine, PopulationResult
from .schemes import (
    CtileScheme,
    DownloadPlan,
    FtileScheme,
    LOWEST_QUALITY,
    NontileScheme,
    PlanContext,
    PtileScheme,
    StreamingScheme,
    split_wrapped_rect,
)
from .session import SessionConfig, SessionKernel, run_session

__all__ = [
    "ThroughputBufferABR",
    "BufferEvent",
    "PlaybackBuffer",
    "CacheStats",
    "CacheTenant",
    "EdgeCache",
    "EdgeHitModel",
    "SharedCacheResult",
    "build_edge_hit_model",
    "build_shared_edge_hit_models",
    "interleave_tenant_requests",
    "ptile_vs_ctile_caching",
    "simulate_cache",
    "PopulationEngine",
    "PopulationResult",
    "FtileCell",
    "FtilePartition",
    "build_ftile_partition",
    "build_video_ftiles",
    "SegmentRecord",
    "SessionResult",
    "mean_sessions",
    "CtileScheme",
    "DownloadPlan",
    "FtileScheme",
    "LOWEST_QUALITY",
    "NontileScheme",
    "PlanContext",
    "PtileScheme",
    "StreamingScheme",
    "split_wrapped_rect",
    "SessionConfig",
    "run_session",
    "SessionKernel",
]
