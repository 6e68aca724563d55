"""Guard: no float total in the package goes through builtin ``sum()``.

CPython 3.12 made ``sum()`` of floats compensated, so a float total
taken with it has different bits on different interpreters.  Every
float total folds through :func:`repro.fold_sum` instead; these tests
run a short Fig. 9 sweep, a population run and an in-process
``VideoPlanner.plan_batch`` under a ``builtins.sum`` that raises on an
all-float input, so a new float ``sum()`` on any of those paths fails
tier-1 on every interpreter.
"""

from __future__ import annotations

import builtins
from unittest import mock

import pytest

from repro import fold_sum
from repro.core import OursScheme
from repro.experiments.population import run_population
from repro.experiments.runner import run_session_jobs
from repro.experiments.setup import build_sweep, make_setup
from repro.power import PIXEL_3
from repro.serving.planner import VideoPlanner
from repro.serving.requests import PlanRequest
from repro.traces import DiurnalPoissonArrivals

_builtin_sum = builtins.sum


def _no_float_sum(values, start=0):
    values = list(values)
    if values and all(isinstance(x, float) for x in values):
        raise AssertionError(f"float sum() of {len(values)} values")
    return _builtin_sum(values, start)


@pytest.fixture(scope="module")
def setup():
    return make_setup(max_duration_s=8, n_users=6, n_train=4,
                      video_ids=(2, 8))


def test_the_guard_trips_on_floats():
    with mock.patch.object(builtins, "sum", _no_float_sum):
        assert sum([1, 2]) == 3
        with pytest.raises(AssertionError):
            sum([0.5, 0.25])
        assert fold_sum([0.5, 0.25]) == 0.75


def test_fig9_sweep_sums_no_floats(setup):
    context, jobs = build_sweep(setup, users_per_video=1)
    with mock.patch.object(builtins, "sum", _no_float_sum):
        run = run_session_jobs(context, jobs)
        run.report()
        for result in run.results:
            result.mean_qoe, result.total_stall_s, result.total_size_mbit
            result.session_qoe.mean_q


def test_population_run_sums_no_floats(setup):
    with mock.patch.object(builtins, "sum", _no_float_sum):
        summary = run_population(
            setup, video_id=8, scheme_name="ours",
            arrivals=DiurnalPoissonArrivals(rate_per_s=1.0, seed=3),
            window_s=6.0,
        )
    assert summary.result.num_sessions > 0


def test_plan_batch_sums_no_floats(setup):
    manifest = setup.manifest(2)
    planner = VideoPlanner(OursScheme(device=PIXEL_3), manifest,
                           setup.ptiles(2))
    requests = [
        PlanRequest(video_id=2, segment_index=k, buffer_s=0.5 * k,
                    bandwidth_mbps=4.0 + k, yaw=40.0 * k, pitch=5.0 * k,
                    window=min(5, manifest.num_segments - k))
        for k in range(manifest.num_segments)
    ]
    with mock.patch.object(builtins, "sum", _no_float_sum):
        plans = planner.plan_batch(requests)
    assert len(plans) == len(requests)

