"""Fig. 9 / Fig. 10 — energy comparison of the five schemes.

Fig. 9(a,b): per-video total energy under trace 1 and trace 2 (Pixel 3).
Fig. 9(c): energy normalized by Ctile, averaged over videos and traces —
the paper's headline: Ptile saves 30.3 % and Ours 49.7 % versus Ctile.
Fig. 9(d): the three energy components for video 8 under trace 2.
Fig. 10 is the same computation on the Nexus 5X and Galaxy S20.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..power.models import DevicePowerModel, PIXEL_3
from ..streaming.metrics import SessionResult
from .setup import ExperimentSetup, SCHEME_ORDER, run_comparison

__all__ = ["EnergyComparison", "run_fig9"]


@dataclass(frozen=True)
class EnergyComparison:
    """Energy results across schemes, videos, and traces for a device."""

    device_name: str
    # (trace, scheme, video) -> mean per-segment energy (J)
    per_video: dict[tuple[str, str, int], float]
    # (trace, scheme, video) -> (transmission, decoding, rendering) J/segment
    breakdown: dict[tuple[str, str, int], tuple[float, float, float]]
    video_ids: tuple[int, ...]
    traces: tuple[str, ...] = ("trace1", "trace2")
    schemes: tuple[str, ...] = SCHEME_ORDER

    def normalized(self, trace: str | None = None) -> dict[str, float]:
        """Fig. 9(c): mean energy per scheme normalized by Ctile."""
        traces = (trace,) if trace else self.traces
        means = {
            scheme: float(
                np.mean(
                    [
                        self.per_video[(t, scheme, vid)]
                        for t in traces
                        for vid in self.video_ids
                    ]
                )
            )
            for scheme in self.schemes
        }
        base = means["ctile"]
        return {scheme: value / base for scheme, value in means.items()}

    def breakdown_for(
        self, video_id: int, trace: str
    ) -> dict[str, tuple[float, float, float]]:
        """Fig. 9(d): per-component energy for one video and trace."""
        return {
            scheme: self.breakdown[(trace, scheme, video_id)]
            for scheme in self.schemes
        }

    def report(self) -> list[str]:
        lines = [f"Energy comparison ({self.device_name})"]
        for trace in self.traces:
            lines.append(f"  {trace}: per-video energy per segment (J)")
            for scheme in self.schemes:
                row = " ".join(
                    f"{self.per_video[(trace, scheme, vid)]:.2f}"
                    for vid in self.video_ids
                )
                lines.append(f"    {scheme:<8} {row}")
        norm = self.normalized()
        lines.append("  normalized by Ctile (paper: Ptile 0.697, Ours 0.503):")
        for scheme in self.schemes:
            lines.append(
                f"    {scheme:<8} {norm[scheme]:.3f}"
                f" (saving {1 - norm[scheme]:+.1%})"
            )
        vid = self.video_ids[-1]
        lines.append(f"  breakdown, video {vid} / trace2 (t, d, r J/segment):")
        for scheme, (t, d, r) in self.breakdown_for(vid, "trace2").items():
            lines.append(f"    {scheme:<8} {t:.2f} {d:.2f} {r:.2f}")
        return lines


def summarize_energy(
    results: dict[tuple[str, str, int], list[SessionResult]],
    device_name: str,
) -> EnergyComparison:
    """Collapse a session matrix into the Fig. 9 energy views."""
    per_video: dict[tuple[str, str, int], float] = {}
    breakdown: dict[tuple[str, str, int], tuple[float, float, float]] = {}
    video_ids = sorted({key[2] for key in results})
    traces = tuple(sorted({key[0] for key in results}))
    schemes = tuple(s for s in SCHEME_ORDER if any(k[1] == s for k in results))
    for key, sessions in results.items():
        per_video[key] = float(
            np.mean([s.energy_per_segment_j for s in sessions])
        )
        breakdown[key] = (
            float(np.mean([s.energy.transmission_j / s.num_segments for s in sessions])),
            float(np.mean([s.energy.decoding_j / s.num_segments for s in sessions])),
            float(np.mean([s.energy.rendering_j / s.num_segments for s in sessions])),
        )
    return EnergyComparison(
        device_name=device_name,
        per_video=per_video,
        breakdown=breakdown,
        video_ids=tuple(video_ids),
        traces=traces,
        schemes=schemes,
    )


def run_fig9(
    setup: ExperimentSetup,
    device: DevicePowerModel = PIXEL_3,
    users_per_video: int | None = None,
    results: dict[tuple[str, str, int], list[SessionResult]] | None = None,
    workers: int | None = 1,
    results_store=None,
) -> EnergyComparison:
    """Run (or reuse) the session matrix and summarize energy.

    Pass ``device=NEXUS_5X`` or ``GALAXY_S20`` for Fig. 10.  Passing a
    precomputed ``results`` matrix avoids re-simulating when Fig. 11
    shares the same sessions.  ``workers`` parallelizes the sweep
    (0 = auto-detect) without changing its results.
    """
    if results is None:
        results = run_comparison(setup, device, users_per_video,
                                 workers=workers,
                                 results_store=results_store)
    return summarize_energy(results, device.name)
