"""Population-scale streaming experiment.

Drives the batched :class:`~repro.streaming.population.PopulationEngine`
with a seeded diurnal-Poisson arrival process over the synthetic user
pool: sessions arrive over a window, share the cell's capacity as a
fair-share link (``NetworkTrace.scaled(1 / N)``, a processor-sharing
approximation), optionally sit behind a shared edge cache, and
each replays one held-out head trace.  The result summarizes the same
per-session aggregates the paper's single-session tables report, now as
population means.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..power.models import PIXEL_3, DevicePowerModel
from ..streaming.cache import build_edge_hit_model
from ..streaming.population import PopulationEngine, PopulationResult
from ..traces.arrivals import DiurnalPoissonArrivals, assign_users
from .setup import ExperimentSetup, make_schemes

__all__ = ["PopulationSummary", "run_population"]


@dataclass(frozen=True)
class PopulationSummary:
    """Aggregate outcome of one population run."""

    scheme_name: str
    video_id: int
    num_sessions: int
    mean_concurrency: float
    means: dict
    result: PopulationResult

    def report(self) -> str:
        m = self.means
        return (
            f"  {self.scheme_name:<8} sessions {self.num_sessions:5d}"
            f"  conc {self.mean_concurrency:5.1f}"
            f"  E/seg {m['energy_per_segment_j']:6.3f} J"
            f"  QoE {m['qoe']:6.2f}"
            f"  rebuffers {m['rebuffer_count']:5.2f}"
            f"  stall {m['stall_s']:5.2f} s"
        )


def run_population(
    setup: ExperimentSetup,
    device: DevicePowerModel = PIXEL_3,
    *,
    video_id: int = 8,
    scheme_name: str = "ours",
    arrivals: DiurnalPoissonArrivals | None = None,
    window_s: float = 120.0,
    sessions: int | None = None,
    fair_share: bool = True,
    edge_capacity_mbit: float = 0.0,
    chunk_size: int = 2048,
) -> PopulationSummary:
    """Simulate an arriving population of viewers on one cell.

    Arrivals come from ``arrivals`` sampled over ``window_s`` (or, when
    ``sessions`` is set, exactly that many sessions round-robined over
    the user pool with arrival-process start times truncated/cycled to
    fit).  ``fair_share`` divides the backhaul trace by the mean
    concurrency (processor sharing, as in the multi-client sweep);
    ``edge_capacity_mbit > 0`` trains a shared edge cache on the
    training population and serves hits at the edge link rate.
    """
    scheme = make_schemes(device)[scheme_name]
    manifest = setup.manifest(video_id)
    ptiles = setup.ptiles(video_id) if scheme_name in ("ptile", "ours") else None
    traces = setup.dataset.test_traces(video_id)

    arrivals = arrivals or DiurnalPoissonArrivals(rate_per_s=0.5)
    times = arrivals.sample(window_s)
    if sessions is not None:
        if sessions < 1:
            raise ValueError("need at least one session")
        reps = int(np.ceil(sessions / max(times.size, 1)))
        times = np.tile(times, max(reps, 1))[:sessions] if times.size else np.zeros(sessions)
    if times.size == 0:
        raise ValueError("arrival process produced no sessions; widen the window")
    users, starts = assign_users(times, len(traces), seed=arrivals.seed)

    config = setup.session_config
    # Mean number of concurrently active sessions: total session-seconds
    # over the window (Little's law with deterministic service time).
    session_len_s = config.segment_seconds * (
        config.max_segments or manifest.num_segments
    )
    concurrency = max(times.size * session_len_s / max(window_s, session_len_s), 1.0)
    network = setup.trace2
    if fair_share:
        share = max(int(round(concurrency)), 1)
        network = network.scaled(1.0 / share, name=f"{network.name}/{share}")

    if edge_capacity_mbit > 0:
        edge = build_edge_hit_model(
            manifest,
            setup.dataset.train_traces(video_id),
            setup.ptiles(video_id),
            capacity_mbit=edge_capacity_mbit,
        )
        config = replace(config, edge_model=edge)

    engine = PopulationEngine(
        scheme,
        manifest,
        traces,
        network,
        device,
        ptiles=ptiles,
        config=config,
    )
    result = engine.run(users, starts, chunk_size=chunk_size)
    return PopulationSummary(
        scheme_name=scheme_name,
        video_id=video_id,
        num_sessions=result.num_sessions,
        mean_concurrency=float(concurrency),
        means=result.mean_sessions(),
        result=result,
    )
