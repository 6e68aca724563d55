"""Ridge viewport predictions shared by every session replaying a trace.

:class:`~repro.prediction.viewport.TraceFeeder` memoizes the paper's
ridge predictor on the head trace, keyed on the predictor's parameters,
the count of samples fed and the target time.  A session on a trace that
earlier sessions (other schemes, networks, configs, fault plans, or the
population engine) already replayed must produce exactly the result it
produces on a fresh copy of the trace: ``==`` and the same pickle bytes.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.controller import OursScheme
from repro.prediction import oracle_predictor_factory, static_predictor_factory
from repro.prediction.viewport import (
    RidgeRegressor,
    TraceFeeder,
    ViewportPredictor,
)
from repro.resilience import DownloadPolicy, generate_fault_plan
from repro.streaming import (
    CtileScheme,
    FtileScheme,
    NontileScheme,
    PopulationEngine,
    PtileScheme,
    SessionConfig,
    run_session,
)
from repro.streaming.session import SessionKernel

from .session_invariants import check_invariants

CFG = SessionConfig(max_segments=12)


def _schemes(device):
    return [CtileScheme(), FtileScheme(), NontileScheme(), PtileScheme(),
            OursScheme(device=device)]


def _fresh(trace):
    """A copy of ``trace`` whose memos start empty."""
    return pickle.loads(pickle.dumps(trace))


def _ridge_keys(trace) -> list:
    return [key for key in trace._kinematics_cache
            if isinstance(key, tuple) and key[0] == "ridge"]


@pytest.fixture
def inputs(manifest2, ptiles2, ftiles2, small_dataset, device):
    """Video 2's manifest, Ptiles and Ftiles and a fresh test trace."""
    trace = _fresh(small_dataset.test_traces(2)[0])
    return manifest2, ptiles2, ftiles2, trace, device


class _Recording:
    """A scheme that records the prediction of every plan it makes."""

    def __init__(self, scheme):
        self.scheme = scheme
        self.name = scheme.name
        self.predictions = []

    def plan(self, ctx):
        self.predictions.append(
            (ctx.predicted_viewport, ctx.predicted_speed_deg_s)
        )
        return self.scheme.plan(ctx)


def _assert_shared_equals_fresh(inputs, runs):
    """Run ``runs`` -- (scheme, network, config) -- in order on one shared
    trace, and each again on its own fresh copy of the trace: results
    and the predictions the scheme was given must match."""
    manifest, ptiles, ftiles, trace, device = inputs
    results = []
    for scheme, network, config in runs:
        sessions = []
        for head in (trace, _fresh(trace)):
            recording = _Recording(scheme)
            result = run_session(recording, manifest, head, network, device,
                                 ptiles=ptiles, ftiles=ftiles, config=config)
            check_invariants(result, config)
            sessions.append((result, recording.predictions))
        (shared, seen), (alone, expected) = sessions
        assert seen == expected, (scheme.name, network.name)
        assert pickle.dumps(seen) == pickle.dumps(expected)
        assert shared == alone, (scheme.name, network.name)
        assert pickle.dumps(shared) == pickle.dumps(alone)
        results.append(shared)
    return results


class TestSharedEqualsFresh:
    def test_every_scheme_both_networks(self, inputs, network_traces):
        runs = [(scheme, network, CFG)
                for network in network_traces
                for scheme in _schemes(inputs[4])]
        _assert_shared_equals_fresh(inputs, runs)
        assert _ridge_keys(inputs[3])

    def test_binding_playhead_term(self, inputs, network_traces):
        # late_fetch_horizon_s=2.0 puts the prediction time at the
        # playhead whenever the buffer runs low, so the fed counts of
        # one segment differ across networks.
        config = SessionConfig(max_segments=12, late_fetch_horizon_s=2.0)
        runs = [(scheme, network, config)
                for network in network_traces
                for scheme in _schemes(inputs[4])]
        _assert_shared_equals_fresh(inputs, runs)
        targets = {}
        for key in _ridge_keys(inputs[3]):
            targets.setdefault(key[-1], set()).add(key[-2])
        assert any(len(counts) > 1 for counts in targets.values())

    def test_fault_plan(self, inputs, network_traces):
        config = SessionConfig(
            max_segments=12,
            fault_plan=generate_fault_plan("stress", 30.0, seed=13),
            download_policy=DownloadPolicy(),
        )
        runs = [(scheme, network_traces[0], cfg)
                for cfg in (CFG, config)
                for scheme in _schemes(inputs[4])]
        _assert_shared_equals_fresh(inputs, runs)

    def test_interleaved_predictor_parameters(self, inputs, network_traces):
        narrow = SessionConfig(max_segments=12, predictor_window_s=1.0,
                               fov_deg=90.0)
        runs = [(scheme, network_traces[1], config)
                for scheme in _schemes(inputs[4])
                for config in (CFG, narrow)]
        results = _assert_shared_equals_fresh(inputs, runs)
        # Both parameter sets left entries, and they predict differently.
        windows = {(key[1], key[5]) for key in _ridge_keys(inputs[3])}
        assert windows == {(2.0, 100.0), (1.0, 90.0)}
        assert any(a != b for a, b in zip(results[::2], results[1::2]))

    @pytest.mark.parametrize(
        "factory", [static_predictor_factory, oracle_predictor_factory]
    )
    def test_predictor_factory_leaves_memo_empty(self, inputs, network_traces,
                                                 factory):
        config = SessionConfig(max_segments=12, predictor_factory=factory)
        runs = [(scheme, network_traces[0], config)
                for scheme in _schemes(inputs[4])]
        _assert_shared_equals_fresh(inputs, runs)
        assert not _ridge_keys(inputs[3])

    def test_factory_session_after_ridge_sessions(self, inputs,
                                                  network_traces):
        config = SessionConfig(max_segments=12,
                               predictor_factory=static_predictor_factory)
        runs = [(scheme, network_traces[0], cfg)
                for cfg in (CFG, config)
                for scheme in _schemes(inputs[4])]
        _assert_shared_equals_fresh(inputs, runs)

    def test_population_engine_entries(self, inputs, network_traces):
        # The engine predicts without the playhead term; its entries are
        # keyed by the same fed counts, so a later run_session reads them.
        manifest, ptiles, _, trace, device = inputs
        scheme = PtileScheme()
        PopulationEngine(scheme, manifest, [trace], network_traces[1],
                         device, ptiles=ptiles, config=CFG).run([0])
        assert _ridge_keys(trace)
        _assert_shared_equals_fresh(
            inputs, [(scheme, network, CFG) for network in network_traces]
        )


class TestTraceFeeder:
    def test_matches_an_eagerly_fed_predictor(self, small_dataset):
        trace = _fresh(small_dataset.test_traces(8)[1])
        feeder = TraceFeeder.ridge(trace, 2.0, 100.0)
        eager = ViewportPredictor(window_s=2.0, fov_deg=100.0)
        t = trace.timestamps
        cursor = 0
        # Video times may step back (never in a session): the fed count
        # is a running maximum, as the eager feeder's cursor was.
        for video_time in (-1.0, 0.0, 0.3, 2.5, 1.0, 2.5, 4.0, 3.9, 7.2):
            while cursor < t.size and t[cursor] <= video_time:
                eager.observe(float(t[cursor]),
                              float(trace.yaw_unwrapped[cursor]),
                              float(trace.pitch[cursor]))
                cursor += 1
            target = video_time + 0.7
            got = feeder.predict(video_time, target)
            assert feeder.fed == cursor
            if cursor:
                want = (eager.predict_viewport(target),
                        eager.recent_speed_deg_s())
            else:
                want = (trace.viewport_at(0.0, 100.0), 0.0)
            assert got == want, video_time
        # One path fills the memo: predict is predict_many of one pair,
        # which reads the trace's arrays and never feeds the predictor.
        assert feeder.predictor.num_observations == 0


class TestFitCount:
    def test_two_fits_per_fed_count_and_target(self, inputs, network_traces,
                                               monkeypatch):
        # Fits are stacked (one RidgeRegressor.fit per window length in
        # the per-trace pass), so this counts solved rows: each fitting
        # (fed, target) key is solved once per coordinate.
        manifest, ptiles, ftiles, trace, device = inputs
        rows = []
        original = RidgeRegressor.fit

        def counting_fit(self, features, targets):
            rows.append(int(np.prod(np.shape(targets)[:-1])))
            return original(self, features, targets)

        monkeypatch.setattr(RidgeRegressor, "fit", counting_fit)
        for network in network_traces:
            for scheme in _schemes(device):
                run_session(scheme, manifest, trace, network, device,
                            ptiles=ptiles, ftiles=ftiles, config=CFG)
        keys = _ridge_keys(trace)
        assert len({(key[-2], key[-1]) for key in keys}) == len(keys)
        fitting = _fitting_windows(trace)
        assert len(fitting) >= CFG.max_segments - 2
        assert sum(rows) == 2 * len(fitting)

    def test_view_solves_once_per_window_length(self, inputs, monkeypatch):
        # A fresh trace's per-trace pass stacks every fit of one window
        # length into one np.linalg.solve call.
        manifest, _, _, trace, device = inputs
        calls = []
        original = np.linalg.solve

        def counting_solve(a, b):
            calls.append(np.shape(a)[:-2])
            return original(a, b)

        kernel = SessionKernel(manifest, device, config=CFG)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        kernel._view(trace)
        fitting = _fitting_windows(trace)
        assert fitting
        assert len(calls) <= 2 * len(set(fitting))
        # Every fit was solved in those calls: one row per coordinate.
        assert sum(int(np.prod(shape)) for shape in calls) == 2 * len(fitting)


def _fitting_windows(trace) -> list[int]:
    """The window length of each memo entry that fit a trend:
    predict_center fits only with >= 4 samples in the window and a
    target past the last one; the rest answer with that sample."""
    t = trace.timestamps
    lengths = []
    for key in _ridge_keys(trace):
        window_s, fed, target = key[1], key[-2], key[-1]
        n = np.count_nonzero(t[:fed] >= t[fed - 1] - window_s)
        if n >= 4 and target > t[fed - 1]:
            lengths.append(n)
    return lengths


class TestPickling:
    def test_trace_with_entries_pickles_like_a_fresh_one(
        self, inputs, network_traces
    ):
        manifest, ptiles, ftiles, trace, device = inputs
        before = pickle.dumps(trace)
        run_session(OursScheme(device=device), manifest, trace,
                    network_traces[0], device, ptiles=ptiles, config=CFG)
        assert _ridge_keys(trace)
        assert pickle.dumps(trace) == before
        assert not _ridge_keys(pickle.loads(pickle.dumps(trace)))
