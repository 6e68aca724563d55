"""Ablation benches over the paper's Section IV design choices.

Not paper figures — these quantify what each fixed design parameter
contributes, as called out in DESIGN.md.
"""

import math

import pytest

from conftest import run_once
from repro.experiments import (
    make_setup,
    run_ablation,
    sweep_bandwidth_estimator,
    sweep_clustering_sigma,
    sweep_frame_rate_ladder,
    sweep_mpc_horizon,
    sweep_qoe_tolerance,
)


@pytest.fixture(scope="module")
def ablation_setup():
    return make_setup(max_duration_s=60, video_ids=(5, 8))


def _run(benchmark, sweep, *args, **kwargs):
    """Declare a sweep's points and run them once under the benchmark."""
    return run_once(benchmark, lambda: run_ablation(sweep(*args, **kwargs)))


def _print(title, points):
    print(title)
    for point in points:
        print(point.report())


def test_ablation_mpc_horizon(benchmark, ablation_setup):
    points = _run(benchmark, sweep_mpc_horizon, ablation_setup,
                  horizons=(1, 3, 5))
    _print("MPC horizon sweep:", points)
    # Every horizon streams successfully with sane metrics.
    for point in points:
        assert point.energy_per_segment_j > 0
        assert point.qoe > 0


def test_ablation_qoe_tolerance(benchmark, ablation_setup):
    points = _run(benchmark, sweep_qoe_tolerance, ablation_setup,
                  tolerances=(0.0, 0.05, 0.20))
    _print("QoE tolerance sweep:", points)
    by_label = {p.label: p for p in points}
    # A looser tolerance can only help the energy objective.
    assert (
        by_label["eps=20%"].energy_per_segment_j
        <= by_label["eps=0%"].energy_per_segment_j + 1e-9
    )
    # And it costs QoE (or at least never gains).
    assert by_label["eps=20%"].qoe <= by_label["eps=0%"].qoe + 0.5


def test_ablation_frame_rate_ladder(benchmark, ablation_setup):
    points = _run(benchmark, sweep_frame_rate_ladder, ablation_setup)
    _print("Frame-rate ladder sweep (video 5, low-TI):", points)
    by_label = {p.label: p for p in points}
    none = by_label["no reduction"]
    paper = by_label["paper {10,20,30}%"]
    deep = by_label["deep {20,40,60}%"]
    # The ladder is where Ours's extra savings come from.
    assert paper.energy_per_segment_j < none.energy_per_segment_j
    assert deep.energy_per_segment_j <= paper.energy_per_segment_j + 1e-9
    # Mean frame rate tracks the ladder depth.
    assert deep.extra["fps"] < paper.extra["fps"] < none.extra["fps"] + 1e-9


def test_ablation_bandwidth_estimator(benchmark, ablation_setup):
    points = _run(benchmark, sweep_bandwidth_estimator, ablation_setup)
    _print("Bandwidth estimator sweep:", points)
    by_label = {p.label: p for p in points}
    harmonic = by_label["harmonic (paper)"]
    ewma = by_label["ewma"]
    # The harmonic mean's estimate is biased low relative to EWMA on a
    # bursty trace (the paper's rationale: it suppresses spikes, so
    # risky overestimates are rarer than with arithmetic smoothing).
    assert harmonic.extra["overestimates"] <= ewma.extra["overestimates"]
    for point in points:
        assert point.extra["mape"] < 0.5


def test_ablation_clustering_sigma(benchmark, ablation_setup):
    points = _run(benchmark, sweep_clustering_sigma, ablation_setup)
    _print("Clustering sigma sweep (video 8):", points)
    # Larger sigma -> larger Ptiles (the Fig. 6 trade-off).
    areas = [p.extra["mean_area"] for p in points]
    assert areas == sorted(areas)
    for point in points:
        assert 0 < point.extra["coverage"] <= 1
        assert math.isnan(point.energy_per_segment_j)


def test_ablation_viewport_predictor(benchmark, ablation_setup):
    from repro.experiments import sweep_viewport_predictor

    points = _run(benchmark, sweep_viewport_predictor, ablation_setup)
    _print("Viewport predictor sweep:", points)
    by_label = {p.label: p for p in points}
    oracle = by_label["oracle (bound)"]
    ridge = by_label["ridge (paper)"]
    # Perfect prediction bounds achievable coverage from above.
    assert oracle.extra["coverage"] > ridge.extra["coverage"]
    assert oracle.extra["coverage"] > 0.9
