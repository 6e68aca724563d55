"""Byte golden of a small session matrix.

Pins the pickled :class:`~repro.streaming.metrics.SessionResult` bytes
of videos 2 and 8 (10-s clips): all five schemes on both paper networks
for two users each, plus one edge-cached Ptile session and one Ours
session under the ``stress`` fault profile.  Any change to the session
dynamics, the planners or the result layout moves the digest; a change
that keeps every output byte-identical keeps it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

import pytest

from repro.experiments.runner import SessionJob, run_session_jobs
from repro.experiments.setup import build_sweep, make_setup
from repro.resilience import DownloadPolicy, generate_fault_plan
from repro.streaming.cache import build_edge_hit_model

GOLDEN_SESSIONS_SHA256 = (
    "1e7f17fb714db72f94ade9bcf8a9f646296df88612a3f928fb1312422727e811"
)


@pytest.fixture(scope="module")
def golden_sweep():
    setup = make_setup(max_duration_s=10, n_users=16, n_train=12,
                       video_ids=(2, 8))
    context, jobs = build_sweep(setup, users_per_video=2)
    edge = build_edge_hit_model(
        setup.manifest(2), setup.dataset.train_traces(2), setup.ptiles(2),
        capacity_mbit=500,
    )
    base = context.config
    faults = dataclasses.replace(
        base,
        fault_plan=generate_fault_plan("stress", setup.trace1.duration_s),
        download_policy=DownloadPolicy(),
    )
    jobs = list(jobs) + [
        SessionJob(("edge", 2), "ptile", 2, "trace1", 0,
                   config=dataclasses.replace(base, edge_model=edge)),
        SessionJob(("faults", 8), "ours", 8, "trace2", 1, config=faults),
    ]
    return jobs, run_session_jobs(context, jobs).results


def test_matrix_shape(golden_sweep):
    jobs, results = golden_sweep
    assert len(results) == 2 * 5 * 2 * 2 + 2
    assert results[-1].total_retries + results[-1].total_timeouts > 0
    assert results[-2].total_edge_hit_mbit > 0


def test_session_bytes_golden(golden_sweep):
    _, results = golden_sweep
    digest = hashlib.sha256()
    for result in results:
        digest.update(pickle.dumps(result, protocol=4))
    assert digest.hexdigest() == GOLDEN_SESSIONS_SHA256
