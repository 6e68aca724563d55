"""Per-segment energy accounting (paper Eq. 1).

The energy to download and process segment k encoded at bitrate level v
and frame rate f is::

    E(T_k^{v,f}) = E_t + E_d + E_r

with ``E_t = P_t * S / R`` (transmission power times download time),
``E_d = P_d(f) * L`` and ``E_r = P_r(f) * L`` (decode and render power
over the segment duration L).  All energies are reported in joules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import DevicePowerModel, TilingScheme

__all__ = ["SegmentEnergy", "EnergyModel"]

_MW_TO_W = 1e-3


@dataclass(frozen=True)
class SegmentEnergy:
    """Energy breakdown (joules) for one downloaded segment."""

    transmission_j: float
    decoding_j: float
    rendering_j: float

    @property
    def total_j(self) -> float:
        return self.transmission_j + self.decoding_j + self.rendering_j

    def __add__(self, other: "SegmentEnergy") -> "SegmentEnergy":
        return SegmentEnergy(
            self.transmission_j + other.transmission_j,
            self.decoding_j + other.decoding_j,
            self.rendering_j + other.rendering_j,
        )

    @classmethod
    def zero(cls) -> "SegmentEnergy":
        return cls(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class EnergyModel:
    """Eq. 1 evaluated against a device's Table I power model."""

    device: DevicePowerModel
    segment_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.segment_seconds <= 0:
            raise ValueError("segment duration must be positive")

    def transmission_energy_j(
        self, size_mbit: float, bandwidth_mbps: float
    ) -> float:
        """E_t = P_t * S / R for a download of ``size_mbit`` megabits."""
        if size_mbit < 0:
            raise ValueError("size must be non-negative")
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        download_time_s = size_mbit / bandwidth_mbps
        return self.device.transmission_mw * _MW_TO_W * download_time_s

    def transmission_energy_from_time_j(self, download_time_s):
        """E_t when the download time has already been simulated
        (elementwise: the session kernel passes one time per session)."""
        if (np.asarray(download_time_s) < 0).any():
            raise ValueError("download time must be non-negative")
        return self.device.transmission_mw * _MW_TO_W * download_time_s

    def decoding_energy_j(self, scheme: TilingScheme, frame_rate: float) -> float:
        """E_d = P_d(f) * L."""
        return (
            self.device.decoding_mw(scheme, frame_rate)
            * _MW_TO_W
            * self.segment_seconds
        )

    def rendering_energy_j(self, frame_rate: float) -> float:
        """E_r = P_r(f) * L."""
        return self.device.rendering_mw(frame_rate) * _MW_TO_W * self.segment_seconds
