"""Fig. 11 — QoE comparison of the five schemes.

(a,b) Per-video session QoE under the two traces; (c) QoE normalized by
Ctile (paper: Ours +7.4 % on trace 1, +18.4 % on trace 2; Nontile
worst); (d) the three QoE components — average quality, quality
variation, rebuffering — for video 8 under trace 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..streaming.metrics import SessionResult
from .setup import SCHEME_ORDER

__all__ = ["QoEComparison", "summarize_qoe"]


@dataclass(frozen=True)
class QoEComparison:
    """QoE results across schemes, videos, and traces."""

    per_video: dict[tuple[str, str, int], float]
    components: dict[tuple[str, str, int], tuple[float, float, float]]
    video_ids: tuple[int, ...]
    traces: tuple[str, ...] = ("trace1", "trace2")
    schemes: tuple[str, ...] = SCHEME_ORDER

    def normalized(self, trace: str) -> dict[str, float]:
        """Fig. 11(c): mean QoE per scheme normalized by Ctile."""
        means = {
            scheme: float(
                np.mean(
                    [self.per_video[(trace, scheme, vid)] for vid in self.video_ids]
                )
            )
            for scheme in self.schemes
        }
        base = means["ctile"]
        return {scheme: value / base for scheme, value in means.items()}

    def improvement_vs_ctile(self, scheme: str, trace: str) -> float:
        return self.normalized(trace)[scheme] - 1.0

    def components_for(
        self, video_id: int, trace: str
    ) -> dict[str, tuple[float, float, float]]:
        """Fig. 11(d): (avg quality, variation, rebuffer) per scheme."""
        return {
            scheme: self.components[(trace, scheme, video_id)]
            for scheme in self.schemes
        }

    def report(self) -> list[str]:
        lines = ["QoE comparison"]
        for trace in self.traces:
            norm = self.normalized(trace)
            lines.append(f"  {trace} normalized by Ctile:")
            for scheme in self.schemes:
                lines.append(
                    f"    {scheme:<8} {norm[scheme]:.3f}"
                    f" ({norm[scheme] - 1:+.1%})"
                )
        vid = self.video_ids[-1]
        lines.append(
            f"  components, video {vid} / trace2 (quality, variation, rebuffer):"
        )
        for scheme, (qo, var, reb) in self.components_for(vid, "trace2").items():
            lines.append(f"    {scheme:<8} {qo:.1f} {var:.2f} {reb:.2f}")
        return lines


def summarize_qoe(
    results: dict[tuple[str, str, int], list[SessionResult]],
) -> QoEComparison:
    """Collapse a session matrix into the Fig. 11 QoE views."""
    per_video: dict[tuple[str, str, int], float] = {}
    components: dict[tuple[str, str, int], tuple[float, float, float]] = {}
    video_ids = sorted({key[2] for key in results})
    traces = tuple(sorted({key[0] for key in results}))
    schemes = tuple(s for s in SCHEME_ORDER if any(k[1] == s for k in results))
    for key, sessions in results.items():
        qoes = [s.session_qoe for s in sessions]
        per_video[key] = float(np.mean([q.mean_q for q in qoes]))
        components[key] = (
            float(np.mean([q.mean_qo for q in qoes])),
            float(np.mean([q.mean_variation for q in qoes])),
            float(np.mean([q.mean_rebuffer for q in qoes])),
        )
    return QoEComparison(
        per_video=per_video,
        components=components,
        video_ids=tuple(video_ids),
        traces=traces,
        schemes=schemes,
    )
