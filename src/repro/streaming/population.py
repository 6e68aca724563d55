"""Population runs on the session kernel.

:class:`PopulationEngine` steps many sessions of one (scheme, video,
network, device) configuration through
:class:`~repro.streaming.session.SessionKernel`, the step
:func:`~repro.streaming.session.run_session` takes with one row: each
session is, bit for bit, the ``run_session`` of its inputs started at
its arrival time.  Every scheme and config ``run_session`` takes runs
here.  Sessions run in chunks; per chunk the engine keeps running sums
of the segment columns the kernel yields, so memory stays bounded by
the chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..power.models import DevicePowerModel
from ..ptile.construction import SegmentPtiles
from ..qoe.metrics import QoEModel
from ..traces.head_movement import HeadTrace
from ..traces.network import NetworkTrace
from ..video.segments import VideoManifest
from .ftile import FtilePartition
from .metrics import FLOAT_COLUMNS, INT_COLUMNS
from .session import SessionConfig, SessionKernel

__all__ = ["PopulationEngine", "PopulationResult"]


@dataclass
class PopulationResult:
    """Per-session aggregate arrays for one population run.

    Every array is indexed by session; the fields mirror the
    :class:`~repro.streaming.metrics.SessionResult` aggregates the
    parity tests compare against.
    """

    scheme_name: str
    video_id: int
    network_name: str
    device_name: str
    num_segments: int
    user_indices: np.ndarray
    start_times: np.ndarray
    transmission_j: np.ndarray
    decoding_j: np.ndarray
    rendering_j: np.ndarray
    qoe_sum: np.ndarray
    qo_sum: np.ndarray
    variation_sum: np.ndarray
    rebuffer_sum: np.ndarray
    total_stall_s: np.ndarray
    rebuffer_count: np.ndarray
    quality_sum: np.ndarray
    frame_rate_sum: np.ndarray
    coverage_sum: np.ndarray
    used_ptile_count: np.ndarray
    total_edge_hit_mbit: np.ndarray
    total_size_mbit: np.ndarray

    @property
    def num_sessions(self) -> int:
        return int(self.user_indices.size)

    # -- energy --------------------------------------------------------

    @property
    def total_energy_j(self) -> np.ndarray:
        return self.transmission_j + self.decoding_j + self.rendering_j

    @property
    def energy_per_segment_j(self) -> np.ndarray:
        return self.total_energy_j / self.num_segments

    # -- QoE -----------------------------------------------------------

    @property
    def mean_qoe(self) -> np.ndarray:
        return self.qoe_sum / self.num_segments

    @property
    def mean_qo(self) -> np.ndarray:
        return self.qo_sum / self.num_segments

    @property
    def mean_variation(self) -> np.ndarray:
        return self.variation_sum / self.num_segments

    @property
    def mean_rebuffer(self) -> np.ndarray:
        return self.rebuffer_sum / self.num_segments

    # -- quality / coverage -------------------------------------------

    @property
    def mean_quality_level(self) -> np.ndarray:
        return self.quality_sum / self.num_segments

    @property
    def mean_frame_rate(self) -> np.ndarray:
        return self.frame_rate_sum / self.num_segments

    @property
    def mean_coverage(self) -> np.ndarray:
        return self.coverage_sum / self.num_segments

    @property
    def ptile_hit_rate(self) -> np.ndarray:
        return self.used_ptile_count / self.num_segments

    @property
    def edge_hit_fraction(self) -> np.ndarray:
        total = self.total_size_mbit
        return np.where(
            total > 0, self.total_edge_hit_mbit / np.where(total > 0, total, 1.0), 0.0
        )

    def mean_sessions(self) -> dict[str, float]:
        """Population means, keyed like
        :func:`repro.streaming.metrics.mean_sessions`."""
        return {
            "energy_j": float(np.mean(self.total_energy_j)),
            "energy_per_segment_j": float(np.mean(self.energy_per_segment_j)),
            "transmission_j": float(np.mean(self.transmission_j)),
            "decoding_j": float(np.mean(self.decoding_j)),
            "rendering_j": float(np.mean(self.rendering_j)),
            "qoe": float(np.mean(self.mean_qoe)),
            "qo": float(np.mean(self.mean_qo)),
            "variation": float(np.mean(self.mean_variation)),
            "rebuffer_penalty": float(np.mean(self.mean_rebuffer)),
            "rebuffer_count": float(np.mean(self.rebuffer_count)),
            "stall_s": float(np.mean(self.total_stall_s)),
            "quality_level": float(np.mean(self.mean_quality_level)),
            "frame_rate": float(np.mean(self.mean_frame_rate)),
            "coverage": float(np.mean(self.mean_coverage)),
        }


_F = {name: i for i, name in enumerate(FLOAT_COLUMNS)}
_USED = INT_COLUMNS.index("used_ptile")
# PopulationResult sums -> the kernel's float column each one adds up.
_SUMS = {
    "transmission_j": "transmission_j", "decoding_j": "decoding_j",
    "rendering_j": "rendering_j", "qo_sum": "qo",
    "variation_sum": "variation_penalty", "rebuffer_sum": "rebuffer_penalty",
    "total_stall_s": "stall_s", "quality_sum": "quality",
    "frame_rate_sum": "frame_rate", "coverage_sum": "coverage",
    "total_edge_hit_mbit": "edge_hit_mbit", "total_size_mbit": "size_mbit",
}


class PopulationEngine:
    """Many sessions of one configuration on the session kernel.

    Parameters mirror :func:`~repro.streaming.session.run_session`; the
    engine is built once per (scheme, video, network, device)
    configuration and then :meth:`run` simulates arbitrary batches of
    sessions over the given head traces.
    """

    def __init__(
        self,
        scheme,
        manifest: VideoManifest,
        head_traces: Sequence[HeadTrace],
        network: NetworkTrace,
        device: DevicePowerModel,
        *,
        ptiles: list[SegmentPtiles] | None = None,
        ftiles: list[FtilePartition] | None = None,
        qoe: QoEModel | None = None,
        config: SessionConfig = SessionConfig(),
    ):
        if not np.any(network.bandwidth_mbps > 0):
            raise ValueError(
                f"trace {network.name!r} has zero bandwidth everywhere"
            )
        if not head_traces:
            raise ValueError("need at least one head trace")
        self.kernel = SessionKernel(manifest, device, qoe, config)
        if ptiles is not None and len(ptiles) < self.kernel.length:
            raise ValueError("ptiles must cover every streamed segment")
        self.scheme = scheme
        self.manifest = manifest
        self.head_traces = list(head_traces)
        self.network = network
        self.device = device
        self.ptiles = ptiles
        self.ftiles = ftiles
        self.config = config
        self.length = self.kernel.length

    def run(
        self,
        user_indices: Sequence[int] | None = None,
        start_times: Sequence[float] | None = None,
        *,
        chunk_size: int = 2048,
    ) -> PopulationResult:
        """Simulate one session per entry of ``user_indices``.

        ``user_indices`` select head traces (repeats share all
        precomputation); ``start_times`` offset each session's wall
        clock against the network trace (an arrival process), defaulting
        to 0 — at which every session is exactly ``run_session`` on the
        same inputs.  Sessions are processed in ``chunk_size`` batches;
        the chunking only bounds memory, results are identical.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if user_indices is None:
            idx = np.arange(len(self.head_traces), dtype=np.int64)
        else:
            idx = np.asarray(user_indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("need at least one session")
        if np.any(idx < 0) or np.any(idx >= len(self.head_traces)):
            raise ValueError("user index outside the head-trace list")
        if start_times is None:
            starts = np.zeros(idx.size)
        else:
            starts = np.asarray(start_times, dtype=float)
            if starts.shape != idx.shape:
                raise ValueError("start_times must match user_indices")
            if np.any(starts < 0):
                raise ValueError("start times must be non-negative")

        n = idx.size
        sums = {name: np.zeros(n) for name in (*_SUMS, "qoe_sum")}
        rebuffer_count = np.zeros(n, dtype=np.int64)
        used_count = np.zeros(n, dtype=np.int64)
        kernel = self.kernel
        for lo in range(0, n, chunk_size):
            hi = min(lo + chunk_size, n)
            unique, inv = np.unique(idx[lo:hi], return_inverse=True)
            plans = [
                kernel.plans(self.scheme, self.head_traces[u], self.ptiles,
                             self.ftiles)
                for u in unique.tolist()
            ]
            chunk = {name: values[lo:hi] for name, values in sums.items()}
            for k, F, I in kernel.steps(plans, inv,
                                        [self.network] * (hi - lo),
                                        starts[lo:hi]):
                for name, column in _SUMS.items():
                    chunk[name] += F[_F[column]]
                chunk["qoe_sum"] += (
                    F[_F["qo"]] - F[_F["variation_penalty"]]
                    - F[_F["rebuffer_penalty"]]
                )
                rebuffer_count[lo:hi] += F[_F["stall_s"]] > 0
                used_count[lo:hi] += I[_USED]
        return PopulationResult(
            scheme_name=self.scheme.name,
            video_id=self.manifest.video.meta.video_id,
            network_name=self.network.name,
            device_name=self.device.name,
            num_segments=self.length,
            user_indices=idx,
            start_times=starts,
            rebuffer_count=rebuffer_count,
            used_ptile_count=used_count,
            **sums,
        )
