"""Differential test of the session kernel.

:class:`~repro.streaming.session.SessionKernel` steps every session row
of a batch together, so a session must be the same bits however it is
stepped: alone (``run_session``, one row), inside one mixed batch of
several schemes, both networks and repeated head traces, through the
decision service (``ServiceClient``), and inside a population whose
sessions start at different wall-clock offsets.  Inputs are adversarial:
network traces with zero-bandwidth bins and tiny or huge bandwidth,
1–2-segment sessions, a non-default encoding and frame-rate ladder, and
robust planning with sigma > 0.  Every session also satisfies the
per-segment invariants of ``tests/session_invariants.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import OursScheme, RobustScheme
from repro.encoding import EncodingLadder
from repro.power import EnergyModel
from repro.prediction import AngularErrorModel, HarmonicMeanEstimator
from repro.qoe import QoEModel
from repro.serving import (
    DecisionService,
    ServiceClient,
    ServiceConfig,
    ServiceRunner,
    VideoPlanner,
)
from repro.streaming import (
    CtileScheme,
    FtileScheme,
    NontileScheme,
    PopulationEngine,
    PtileScheme,
    SessionConfig,
    SessionKernel,
    run_session,
)
from repro.traces import NetworkTrace
from repro.video import FrameRateLadder, VideoManifest

from .session_invariants import check_invariants

_BANDWIDTHS = (0.0, 0.05, 0.4, 3.0, 9.0, 30.0, 1e4)


@st.composite
def networks(draw, name):
    bins = draw(st.lists(st.sampled_from(_BANDWIDTHS), min_size=2,
                         max_size=24))
    if not any(bins):
        bins[draw(st.integers(0, len(bins) - 1))] = draw(
            st.sampled_from(_BANDWIDTHS[1:])
        )
    return NetworkTrace(name, np.array(bins))


@pytest.fixture(scope="module")
def videos(small_dataset, video8, encoder, manifest2, ptiles2, ptiles8,
           ftiles2):
    """Video 2 on the paper's ladder (with Ftiles), video 8 on a
    four-rung encoding ladder (no Ftiles)."""
    ladder = dataclasses.replace(
        encoder, ladder=EncodingLadder(crfs=(40.0, 34.0, 27.0, 20.0))
    )
    return {
        2: (manifest2, ptiles2, ftiles2, small_dataset.test_traces(2)),
        8: (VideoManifest(video8, ladder), ptiles8, None,
            small_dataset.test_traces(8)),
    }


def _schemes(device, video_id):
    schemes = [
        CtileScheme(), NontileScheme(), PtileScheme(),
        OursScheme(device=device,
                   ladder=FrameRateLadder(reductions=(0.5, 0.25))),
        RobustScheme(device=device, error_model=AngularErrorModel(
            base_sigma_deg=8.0, growth_deg_per_s=6.0)),
    ]
    if video_id == 2:
        schemes.append(FtileScheme())
    return schemes


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    video_id=st.sampled_from([2, 8]),
    nets=st.tuples(networks("net-a"), networks("net-b")),
    max_segments=st.sampled_from([1, 2, 4]),
    count_startup_stall=st.booleans(),
    users=st.lists(st.integers(0, 3), min_size=2, max_size=3),
    offsets=st.lists(st.sampled_from([0.0, 0.5, 3.25, 17.0]), min_size=4,
                     max_size=4),
)
def test_alone_batched_served_and_offset_sessions_agree(
    videos, device, video_id, nets, max_segments, count_startup_stall,
    users, offsets,
):
    manifest, ptiles, ftiles, traces = videos[video_id]
    config = SessionConfig(max_segments=max_segments,
                           count_startup_stall=count_startup_stall)
    schemes = _schemes(device, video_id)
    users = users + users[:1]  # a repeated head trace
    rows = [
        (scheme, traces[u], network, ptiles, ftiles)
        for scheme in schemes for network in nets for u in users
    ]

    alone = [
        run_session(scheme, manifest, trace, network, device, ptiles=ptiles,
                    ftiles=ftiles, config=config)
        for scheme, trace, network, _, _ in rows
    ]
    for result in alone:
        check_invariants(result, config)

    # One mixed batch: every scheme, both networks, repeated traces.
    batched = SessionKernel(manifest, device, config=config).sessions(rows)
    for got, want in zip(batched, alone):
        check_invariants(got, config)
        assert got == want

    # The MPC scheme through the decision service (which serves point
    # predictions only: a plan request carries no prediction horizon).
    for scheme in schemes[3:4]:
        service = DecisionService(
            [VideoPlanner(scheme, manifest, ptiles)],
            ServiceConfig(max_batch=8, batch_wait_us=50.0),
        )
        with ServiceRunner(service) as runner:
            client = ServiceClient(runner, name=scheme.name)
            for (row_scheme, trace, network, _, _), want in zip(rows, alone):
                if row_scheme is not scheme:
                    continue
                got = run_session(client, manifest, trace, network, device,
                                  ptiles=ptiles, config=config)
                check_invariants(got, config)
                assert got == want

    # A population with start offsets: each session equals itself run
    # alone from the same offset.
    starts = offsets[:len(users)]
    for scheme in schemes:
        engine = PopulationEngine(
            scheme, manifest, traces, nets[0], device, ptiles=ptiles,
            ftiles=ftiles, config=config,
        )
        together = engine.run(users, starts)
        for j, (u, start) in enumerate(zip(users, starts)):
            single = engine.run([u], [start])
            for field in dataclasses.fields(together):
                value = getattr(together, field.name)
                if isinstance(value, np.ndarray):
                    assert value[j] == getattr(single, field.name)[0], (
                        field.name, scheme.name, j
                    )
        at_zero = engine.run(users)
        for j, u in enumerate(users):
            want = next(
                result for (s, trace, network, _, _), result in zip(rows, alone)
                if s is scheme and trace is traces[u] and network is nets[0]
            )
            assert at_zero.total_energy_j[j] == want.total_energy_j
            assert at_zero.mean_qoe[j] == want.mean_qoe
            assert at_zero.total_stall_s[j] == want.total_stall_s


def test_step_calls_each_model_once_per_segment(videos, device, monkeypatch):
    """The kernel evaluates Eq. 2, the bandwidth estimate and Eq. 1
    transmission through the model classes, one call per segment for
    all rows at once (plus the estimator's startup probe sample)."""
    calls: dict[str, int] = {}

    def count(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    count(QoEModel, "segment_qoe")
    count(HarmonicMeanEstimator, "add")
    count(HarmonicMeanEstimator, "estimate")
    count(EnergyModel, "transmission_energy_from_time_j")
    manifest, ptiles, ftiles, traces = videos[8]
    network = NetworkTrace("net", np.array([3.0, 9.0, 0.4]))
    rows = [(CtileScheme(), traces[0], network, ptiles, ftiles),
            (PtileScheme(), traces[1], network, ptiles, ftiles)]
    kernel = SessionKernel(manifest, device,
                           config=SessionConfig(max_segments=3))
    results = kernel.sessions(rows)
    assert [r.num_segments for r in results] == [3, 3]
    assert calls == {"segment_qoe": 3, "add": 4, "estimate": 3,
                     "transmission_energy_from_time_j": 3}
