"""Tests for the parallel sweep runner.

The load-bearing property is determinism: a sweep must return the same
results in the same order for any worker count, because every figure's
aggregates are built from them.
"""

from __future__ import annotations

import pytest

from repro.experiments import make_schemes, run_comparison
from repro.experiments.runner import (
    SessionJob,
    SweepContext,
    parallel_map,
    resolve_chunk_size,
    resolve_workers,
    run_session_jobs,
)
from repro.experiments.setup import SCHEME_ORDER, ExperimentSetup
from repro.streaming.session import SessionConfig
from repro.video import EncoderModel


@pytest.fixture(scope="module")
def sweep_context(small_dataset, manifest2, ptiles2, ftiles2,
                  network_traces, device):
    trace1, trace2 = network_traces
    return SweepContext(
        schemes=make_schemes(device),
        device=device,
        networks={"trace1": trace1, "trace2": trace2},
        manifests={2: manifest2},
        head_traces={2: tuple(small_dataset.test_traces(2))},
        ptiles={2: ptiles2},
        ftiles={2: ftiles2},
        config=SessionConfig(),
    )


def make_jobs(schemes=("ctile", "ours"), users=2):
    return [
        SessionJob(key=(name, 2, u), scheme=name, video_id=2,
                   network="trace2", user_index=u)
        for name in schemes
        for u in range(users)
    ]


def session_signature(result):
    return (
        result.scheme_name,
        result.video_id,
        result.user_id,
        result.total_energy_j,
        result.mean_qoe,
        result.total_stall_s,
        result.rebuffer_count,
    )


class TestRunSessionJobs:
    def test_serial_results_in_job_order(self, sweep_context):
        jobs = make_jobs()
        run = run_session_jobs(sweep_context, jobs, workers=1)
        assert run.num_jobs == len(jobs)
        assert not run.failures
        for job, result in zip(jobs, run.results):
            assert result.scheme_name == job.scheme
            assert result.video_id == job.video_id
        assert len(run.timings) == len(jobs)
        assert all(t.elapsed_s >= 0 for t in run.timings)

    def test_parallel_identical_to_serial(self, sweep_context):
        jobs = make_jobs()
        serial = run_session_jobs(sweep_context, jobs, workers=1)
        parallel = run_session_jobs(sweep_context, jobs, workers=2,
                                    chunk_size=1)
        assert [session_signature(r) for r in serial.results] == [
            session_signature(r) for r in parallel.results
        ]

    def test_per_job_config_override(self, sweep_context):
        short = SessionConfig(max_segments=3)
        jobs = [
            SessionJob(key="short", scheme="ctile", video_id=2,
                       network="trace2", user_index=0, config=short)
        ]
        run = run_session_jobs(sweep_context, jobs, workers=1)
        assert run.results[0].num_segments == 3

    def test_unknown_scheme_fails_strict(self, sweep_context):
        jobs = [SessionJob(key="bad", scheme="nope", video_id=2,
                           network="trace2", user_index=0)]
        with pytest.raises(RuntimeError, match="nope"):
            run_session_jobs(sweep_context, jobs, workers=1)

    def test_non_strict_reports_failures_in_place(self, sweep_context):
        jobs = [
            SessionJob(key="ok", scheme="ctile", video_id=2,
                       network="trace2", user_index=0),
            SessionJob(key="bad-user", scheme="ctile", video_id=2,
                       network="trace2", user_index=999),
            SessionJob(key="bad-video", scheme="ctile", video_id=77,
                       network="trace2", user_index=0),
        ]
        run = run_session_jobs(sweep_context, jobs, workers=1, strict=False)
        assert run.results[0] is not None
        assert run.results[1] is None and run.results[2] is None
        assert [f.job_index for f in run.failures] == [1, 2]
        assert "999" in run.failures[0].error
        assert "77" in run.failures[1].error
        assert any("FAILED" in line for line in run.report())


class TestContextSlicing:
    def test_slice_drops_unreferenced_videos(self, sweep_context,
                                             manifest8, small_dataset):
        import dataclasses

        wide = dataclasses.replace(
            sweep_context,
            manifests={**sweep_context.manifests, 8: manifest8},
            head_traces={
                **sweep_context.head_traces,
                8: tuple(small_dataset.test_traces(8)),
            },
        )
        sliced = wide.slice({2})
        assert set(sliced.manifests) == {2}
        assert set(sliced.head_traces) == {2}
        assert sliced.schemes is wide.schemes
        assert sliced.config is wide.config

    def test_slice_is_identity_when_nothing_drops(self, sweep_context):
        assert sweep_context.slice({2}) is sweep_context
        assert sweep_context.slice({2, 99}) is sweep_context

    def test_sliced_context_runs_jobs_identically(self, sweep_context,
                                                  manifest8, small_dataset,
                                                  ptiles8):
        import dataclasses

        wide = dataclasses.replace(
            sweep_context,
            manifests={**sweep_context.manifests, 8: manifest8},
            head_traces={
                **sweep_context.head_traces,
                8: tuple(small_dataset.test_traces(8)),
            },
            ptiles={**sweep_context.ptiles, 8: ptiles8},
        )
        jobs = make_jobs()
        narrow = run_session_jobs(wide, jobs, workers=1)
        full = run_session_jobs(sweep_context, jobs, workers=1)
        assert [session_signature(r) for r in narrow.results] == [
            session_signature(r) for r in full.results
        ]


class TestParallelMap:
    def test_preserves_order(self):
        run = parallel_map(abs, [-5, 3, -1, 0], workers=1)
        assert run.results == [5, 3, 1, 0]

    def test_parallel_matches_serial(self):
        items = list(range(20))
        serial = parallel_map(_square, items, workers=1)
        parallel = parallel_map(_square, items, workers=2, chunk_size=3)
        assert serial.results == parallel.results == [i * i for i in items]

    def test_failures_non_strict(self):
        run = parallel_map(len, [[1], 7, [2, 3]], workers=1, strict=False)
        assert run.results == [1, None, 2]
        assert len(run.failures) == 1
        assert run.failures[0].job_index == 1

    def test_failures_strict_raises_with_context(self):
        with pytest.raises(RuntimeError, match="1/1 sweep jobs failed"):
            parallel_map(len, [7], workers=1)


class TestResolvers:
    def test_workers_auto_detect(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)
        assert resolve_workers(3) == 3
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_chunk_size_default_gives_four_waves(self):
        assert resolve_chunk_size(None, 40, 4) == 3  # ceil(40 / 16)
        assert resolve_chunk_size(None, 3, 4) == 1
        assert resolve_chunk_size(None, 10, 1) == 10  # serial: one chunk
        assert resolve_chunk_size(7, 40, 4) == 7
        with pytest.raises(ValueError):
            resolve_chunk_size(0, 40, 4)


class TestRunComparisonParallel:
    def test_workers_do_not_change_results(self, small_dataset,
                                           network_traces, device):
        setup = ExperimentSetup(
            dataset=small_dataset,
            encoder=EncoderModel(),
            trace1=network_traces[0],
            trace2=network_traces[1],
        )
        # Every default scheme over both catalog videos.
        kwargs = dict(users_per_video=2, video_ids=(2, 8))
        serial = run_comparison(setup, device, workers=1, **kwargs)
        parallel = run_comparison(setup, device, workers=2, **kwargs)
        assert {key[1] for key in serial} == set(SCHEME_ORDER)
        assert list(serial.keys()) == list(parallel.keys())
        for key in serial:
            assert [r.records for r in serial[key]] == [
                r.records for r in parallel[key]
            ]


def _square(x):
    return x * x
