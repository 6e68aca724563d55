"""Planner-throughput micro-benchmark (plans/second).

Quantifies the PR-level optimization: ``OursScheme.plan`` slices a
per-session :class:`~repro.core.plan_tables.PlanTables` view instead of
rebuilding the lookahead window's size/QoE tensors on every call.  The
benchmark replays one video's per-segment planning contexts — the same
call pattern a streaming session generates — and reports plans/second
in ``extra_info`` for the CI regression gate.
"""

from __future__ import annotations

from repro.core import OursScheme
from repro.power import PIXEL_3
from repro.streaming import PlanContext

from conftest import run_once, shared_setup


def _plan_contexts():
    """Every segment's PlanContext for one video, as run_session builds
    them (the video, its Ptiles and the clipped lookahead window)."""
    setup = shared_setup()
    vid = setup.videos[0].meta.video_id
    manifest = setup.manifest(vid)
    ptiles = setup.ptiles(vid)
    head = setup.dataset.test_traces(vid)[0]
    config = setup.session_config
    contexts = []
    for k in range(manifest.num_segments):
        viewport = head.viewport_at(
            (k + 0.5) * config.segment_seconds, config.fov_deg
        )
        contexts.append(
            PlanContext(
                video=manifest,
                segment_index=k,
                predicted_viewport=viewport,
                buffer_s=1.5 + (k % 3) * 0.5,
                bandwidth_mbps=4.0 + (k % 5) * 2.0,
                window=min(config.horizon, manifest.num_segments - k),
                ptiles=ptiles,
                predicted_speed_deg_s=float(5 + (k % 7) * 4),
                segment_seconds=config.segment_seconds,
            )
        )
    return contexts


def test_planner_throughput(benchmark):
    contexts = _plan_contexts()
    rounds = 5  # several session replays; tables amortize after the first

    def solve():
        scheme = OursScheme(device=PIXEL_3)
        plans = []
        for _ in range(rounds):
            plans.extend(scheme.plan(ctx) for ctx in contexts)
        return plans

    plans = run_once(benchmark, solve)
    assert len(plans) == rounds * len(contexts)
    assert all(p.total_size_mbit > 0 for p in plans)
    elapsed = benchmark.stats["mean"]
    benchmark.extra_info["num_plans"] = len(plans)
    benchmark.extra_info["plans_per_second"] = (
        len(plans) / elapsed if elapsed > 0 else float("inf")
    )


def test_planner_throughput_cold_tables(benchmark):
    """Worst case: a fresh scheme per replay, so every replay pays the
    one-time PlanTables build before the amortized slicing."""
    contexts = _plan_contexts()

    def solve():
        scheme = OursScheme(device=PIXEL_3)
        return [scheme.plan(ctx) for ctx in contexts]

    plans = run_once(benchmark, solve)
    assert len(plans) == len(contexts)
    elapsed = benchmark.stats["mean"]
    benchmark.extra_info["plans_per_second"] = (
        len(plans) / elapsed if elapsed > 0 else float("inf")
    )
