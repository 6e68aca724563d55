"""repro: Energy-efficient and QoE-aware 360-degree video streaming.

A full reproduction of Chen & Cao, "Energy-Efficient and QoE-Aware
360-Degree Video Streaming on Mobile Devices" (ICDCS 2022): Ptile
construction from viewing popularity, measured power models, the
SI/TI/bitrate QoE model with frame-rate adaptation, and the MPC-based
energy-minimizing controller, plus the Ctile/Ftile/Nontile baselines and
a trace-driven evaluation harness.

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-versus-measured comparison of every table and figure.
"""


def fold_sum(values, start=0):
    """The builtin ``sum()`` without the float compensation CPython 3.12
    added: a left fold, the same bits on every interpreter.  Every float
    total in the package goes through it (the subpackages below import
    it, so it comes first)."""
    acc = start
    for x in values:
        acc += x
    return acc


from .core import EnergyQoEMpc, MpcConfig, OursScheme  # noqa: E402
from .power import (
    DEVICES,
    DevicePowerModel,
    EnergyModel,
    GALAXY_S20,
    NEXUS_5X,
    PIXEL_3,
    TilingScheme,
    get_device,
)
from .ptile import (
    Cluster,
    Ptile,
    PtileConfig,
    SegmentPtiles,
    ViewingCenter,
    build_video_ptiles,
    cluster_viewing_centers,
)
from .qoe import QoEModel, QoEWeights, QualityModel, TABLE_II
from .streaming import (
    CtileScheme,
    FtileScheme,
    NontileScheme,
    PtileScheme,
    SessionConfig,
    SessionResult,
    run_session,
)
from .traces import (
    EvaluationDataset,
    HeadTrace,
    NetworkTrace,
    build_dataset,
    paper_traces,
)
from .video import EncoderModel, FrameRateLadder, VideoManifest, build_catalog

__version__ = "1.0.0"

__all__ = [
    "fold_sum",
    "EnergyQoEMpc",
    "MpcConfig",
    "OursScheme",
    "DEVICES",
    "DevicePowerModel",
    "EnergyModel",
    "GALAXY_S20",
    "NEXUS_5X",
    "PIXEL_3",
    "TilingScheme",
    "get_device",
    "Cluster",
    "Ptile",
    "PtileConfig",
    "SegmentPtiles",
    "ViewingCenter",
    "build_video_ptiles",
    "cluster_viewing_centers",
    "QoEModel",
    "QoEWeights",
    "QualityModel",
    "TABLE_II",
    "CtileScheme",
    "FtileScheme",
    "NontileScheme",
    "PtileScheme",
    "SessionConfig",
    "SessionResult",
    "run_session",
    "EvaluationDataset",
    "HeadTrace",
    "NetworkTrace",
    "build_dataset",
    "paper_traces",
    "EncoderModel",
    "FrameRateLadder",
    "VideoManifest",
    "build_catalog",
    "__version__",
]
