"""One-shot reproduction report.

Runs every experiment at a configurable scale and renders a single
markdown document (tables, ASCII figures, paper-versus-measured notes) —
the programmatic counterpart of EXPERIMENTS.md.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

from ..power.models import PIXEL_3, get_device
from ..viz.ascii import bar_chart, cdf_plot
from .artifacts import ArtifactStore
from .fig2 import run_fig2
from .fig5 import run_fig5
from .fig7 import run_fig7
from .fig8 import PAPER_MEDIANS, run_fig8
from .fig9 import summarize_energy
from .fig11 import summarize_qoe
from .setup import make_setup, run_comparison
from .tables import run_table2, table1_rows, table3_rows

__all__ = ["ReportConfig", "generate_report"]


@dataclass(frozen=True)
class ReportConfig:
    """Scale knobs for the full report."""

    max_duration_s: int | None = 90
    users_per_video: int | None = 2
    device: str = "pixel3"
    seed: int = 2017
    video_ids: tuple[int, ...] | None = None  # None = the full catalog
    workers: int | None = 1  # session-sweep processes; 0 = auto-detect
    artifacts: ArtifactStore | None = None  # content-prep disk cache
    # session-results disk cache, in per-(context, video) columnar shards
    results: ArtifactStore | None = None


def generate_report(
    config: ReportConfig = ReportConfig(), path: str | Path | None = None
) -> str:
    """Run all experiments and render the markdown report.

    Returns the document; optionally writes it to ``path``.
    """
    out = io.StringIO()

    def emit(*lines: str) -> None:
        for line in lines:
            out.write(line + "\n")

    def code(lines) -> None:
        emit("```")
        for line in lines:
            emit(line)
        emit("```", "")

    device = get_device(config.device)
    emit("# Reproduction report", "")
    emit(
        f"Scale: videos clipped to {config.max_duration_s or 'full length'} s,"
        f" {config.users_per_video or 'all'} test users per video,"
        f" device {device.name}, seed {config.seed}.",
        "",
    )

    emit("## Table I — power models", "")
    code(table1_rows())

    emit("## Table II — Q_o fit", "")
    code(run_table2().report())

    emit("## Table III — test videos", "")
    code(table3_rows())

    emit("## Fig. 2 — motivation", "")
    code(run_fig2(workers=config.workers).report())

    setup = make_setup(
        max_duration_s=config.max_duration_s,
        seed=config.seed,
        video_ids=config.video_ids,
        artifacts=config.artifacts,
    )

    emit("## Fig. 5 — switching speed", "")
    fig5 = run_fig5(setup.dataset)
    code(fig5.report())
    code(cdf_plot({"speed (deg/s)": fig5.speeds[fig5.speeds < 60]},
                  title="Switching-speed CDF"))

    emit("## Fig. 7 — Ptile construction", "")
    code(run_fig7(setup).report())

    emit("## Fig. 8 — normalized Ptile size", "")
    fig8 = run_fig8(segments_per_video=60)
    code(fig8.report())
    code(
        bar_chart(
            {f"q{q}": fig8.median(q) for q in sorted(PAPER_MEDIANS, reverse=True)},
            title="Median Ptile/Ctile size ratio per quality",
        )
    )

    emit("## Figs. 9-11 — scheme comparison", "")
    results = run_comparison(
        setup, device, users_per_video=config.users_per_video,
        workers=config.workers, results_store=config.results,
    )
    energy = summarize_energy(results, device.name)
    qoe = summarize_qoe(results)
    code(energy.report())
    code(
        bar_chart(
            energy.normalized(),
            title="Energy normalized by Ctile (paper: ptile 0.697, ours 0.503)",
        )
    )
    code(qoe.report())
    for trace in ("trace1", "trace2"):
        code(
            bar_chart(
                qoe.normalized(trace),
                title=f"QoE normalized by Ctile, {trace}",
            )
        )

    text = out.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
