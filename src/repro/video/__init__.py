"""Video substrate: catalog, content features, rate model, manifests."""

from .content import (
    SI_RANGE,
    TI_RANGE,
    SegmentFeatures,
    Video,
    VideoMeta,
    VIDEO_CATALOG,
    build_catalog,
    build_video,
)
from .encoder import (
    DEFAULT_ENCODING_LADDER,
    EncoderModel,
    EncodingLadder,
    QUALITY_LEVELS,
)
from .framerate import DEFAULT_LADDER, FrameRateLadder
from .segments import SegmentManifest, VideoManifest
from .storage import StorageReport, storage_report

__all__ = [
    "SI_RANGE",
    "TI_RANGE",
    "SegmentFeatures",
    "Video",
    "VideoMeta",
    "VIDEO_CATALOG",
    "build_catalog",
    "build_video",
    "DEFAULT_ENCODING_LADDER",
    "EncoderModel",
    "EncodingLadder",
    "QUALITY_LEVELS",
    "DEFAULT_LADDER",
    "FrameRateLadder",
    "SegmentManifest",
    "VideoManifest",
    "StorageReport",
    "storage_report",
]
