"""The per-trace columnar prediction pass equals the scalar predictor.

:meth:`TraceFeeder.predict_many` answers a head trace's late-fetch
predictions and recent speeds in one pass, its ridge fits stacked per
window length; :meth:`HeadTrace.speed_quantiles_in` reduces many speed
windows at once.  Both must give the bits a :class:`ViewportPredictor`
fed sample by sample (and :meth:`HeadTrace.speed_quantile_in`, window by
window) gives, compared with ``==`` and pickle bytes.  The references
below are the scalar formulas written out (a ridge fit per coordinate,
a boolean window mask), so a change to the shared core that moves a bit
fails here, in the one-row APIs too.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry.viewport import Viewport
from repro.prediction.viewport import TraceFeeder, ViewportPredictor
from repro.traces.head_movement import HeadTrace

# ----------------------------------------------------------------------
# Scalar references
# ----------------------------------------------------------------------


def _reference_fit_predict(rel, values, lam, horizon):
    design = np.hstack([np.ones((rel.shape[0], 1)), rel])
    penalty = lam * np.eye(2)
    penalty[0, 0] = 0.0
    weights = np.linalg.solve(design.T @ design + penalty, design.T @ values)
    row = np.hstack([np.ones((1, 1)), np.array([[horizon]])])
    return float((row @ weights)[0])


def _reference_center(history, t_target, p):
    times = np.array([h[0] for h in history])
    yaws = np.array([h[1] for h in history])
    pitches = np.array([h[2] for h in history])
    t_last, yaw_last, pitch_last = history[-1]
    if len(history) < 4 or t_target <= t_last:
        return yaw_last % 360.0, float(min(max(pitch_last, -90.0), 90.0))
    rel = (times - t_last)[:, None]
    horizon = min(t_target - t_last, p.max_extrapolation_s)
    yaw_hat = _reference_fit_predict(rel, yaws, p.lam, horizon)
    pitch_hat = _reference_fit_predict(rel, pitches, p.lam, horizon)
    max_move = p.max_trend_deg_s * horizon
    yaw_move = float(min(max(yaw_hat - yaw_last, -max_move), max_move))
    pitch_move = float(min(max(pitch_hat - pitch_last, -max_move), max_move))
    yaw_hat = yaw_last + yaw_move if yaw_move else yaw_last
    pitch_hat = pitch_last + pitch_move if pitch_move else pitch_last
    return yaw_hat % 360.0, float(min(max(pitch_hat, -90.0), 90.0))


def _reference_speed(history, quantile=0.75):
    if len(history) < 2:
        return 0.0
    times = np.array([h[0] for h in history])
    yaws = np.array([h[1] for h in history])
    pitches = np.array([h[2] for h in history])
    steps = np.hypot(np.diff(yaws), np.diff(pitches))
    return float(np.quantile(steps / np.diff(times), quantile))


def _reference_window_speed(trace, t0, t1, quantile):
    speeds = trace.switching_speeds()
    mids = 0.5 * (trace.timestamps[:-1] + trace.timestamps[1:])
    mask = (mids >= t0) & (mids < t1)
    if not np.any(mask):
        idx = int(np.searchsorted(mids, t0))
        return float(speeds[min(max(idx, 0), speeds.size - 1)])
    if quantile is None:
        return float(np.mean(speeds[mask]))
    return float(np.quantile(speeds[mask], quantile))


# ----------------------------------------------------------------------
# Generated traces
# ----------------------------------------------------------------------


@st.composite
def traces(draw, max_samples=60):
    """Head traces whose yaw crosses the seam often (steps up to ±300°,
    so the observed unwrap disagrees with the stored one) and whose
    pitch often sits exactly at the ±90° clamp."""
    n = draw(st.integers(2, max_samples))
    dts = draw(st.lists(st.floats(0.01, 0.4), min_size=n - 1,
                        max_size=n - 1))
    t0 = draw(st.floats(0.0, 2.0))
    times = np.cumsum([t0] + dts)
    assume(np.all(np.diff(times) > 0))
    yaw = np.cumsum(draw(st.lists(
        st.floats(-300.0, 300.0) | st.sampled_from([180.0, -180.0, 179.9]),
        min_size=n, max_size=n)))
    pitch = draw(st.lists(
        st.sampled_from([90.0, -90.0, 0.0, -0.0]) | st.floats(-90.0, 90.0),
        min_size=n, max_size=n))
    return HeadTrace(0, 0, times, yaw, np.array(pitch))


predictor_params = st.fixed_dictionaries({
    "window_s": st.sampled_from([2.0, 0.3, 1.0]) | st.floats(0.05, 4.0),
    "lam": st.sampled_from([1.0, 0.0]) | st.floats(0.0, 50.0),
    "max_trend_deg_s": st.sampled_from([120.0, 0.0, math.inf])
    | st.floats(0.0, 500.0),
    "max_extrapolation_s": st.sampled_from([1.2, 0.05]) | st.floats(0.01, 3.0),
    "fov_deg": st.sampled_from([100.0, 90.0]),
})


def _shared_feeder(trace, params) -> TraceFeeder:
    """A memo-sharing feeder with any predictor parameters (ridge()
    takes only the window and FoV)."""
    feeder = TraceFeeder(trace, ViewportPredictor(**params),
                         params["fov_deg"])
    feeder.shared = True
    return feeder


def _bytes(entries) -> list[bytes]:
    # Per entry: equal keys share one memo entry, so a list pickle would
    # also compare object identity.
    return [pickle.dumps(entry) for entry in entries]


class TestPredictManyParity:
    @given(trace=traces(), params=predictor_params, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_a_predictor_fed_sample_by_sample(self, trace, params,
                                                     data):
        t = trace.timestamps
        span = (float(t[0]) - 0.5, float(t[-1]) + 0.5)
        # Video times in any order (the fed count is a running maximum)
        # and targets before, at and after the last fed sample.
        times = data.draw(st.lists(
            st.floats(*span) | st.sampled_from(t.tolist()),
            min_size=1, max_size=25))
        offsets = data.draw(st.lists(
            st.sampled_from([0.0, -0.1]) | st.floats(-1.0, 3.0),
            min_size=len(times), max_size=len(times)))
        pairs = [(v, v + o) for v, o in zip(times, offsets)]
        # Some targets land exactly on the last fed sample's time.
        pairs += [(float(s), float(s)) for s in t[::3]]

        got = _shared_feeder(trace, params).predict_many(pairs)

        eager = ViewportPredictor(**params)
        fed = 0
        fov = params["fov_deg"]
        want = []
        for video_time, target in pairs:
            while fed < t.size and t[fed] <= video_time:
                eager.observe(float(t[fed]), float(trace.yaw_unwrapped[fed]),
                              float(trace.pitch[fed]))
                fed += 1
            if not eager.num_observations:
                want.append((trace.viewport_at(0.0, fov), 0.0))
                continue
            yaw, pitch = _reference_center(eager._history, target, eager)
            speed = _reference_speed(eager._history)
            want.append((Viewport(yaw, pitch, fov, fov), speed))
            # The one-row APIs are the same core: same bits.
            assert eager.predict_center(target) == (yaw, pitch)
            assert eager.recent_speed_deg_s() == speed
        assert got == want
        assert _bytes(got) == _bytes(want)

    @given(trace=traces(), params=predictor_params)
    @settings(max_examples=40, deadline=None)
    def test_memo_entries_match_one_row_lookups(self, trace, params):
        # A row's entry does not depend on the rows stacked with it: a
        # fresh trace answered one pair at a time (predict, the one-row
        # case) stores the batch's entries, and a feeder asking after
        # the batch reads them.
        t = trace.timestamps
        pairs = [(float(s), float(s) + 0.7) for s in t]
        batch = _shared_feeder(trace, params).predict_many(pairs)
        fresh = pickle.loads(pickle.dumps(trace))
        one = _shared_feeder(fresh, params)
        single = [one.predict(v, target) for v, target in pairs]
        assert _bytes(batch) == _bytes(single)
        assert trace._kinematics_cache.keys() >= {
            key for key in fresh._kinematics_cache if key[0] == "ridge"}
        again = _shared_feeder(trace, params)
        assert all(again.predict(v, target)[0] is entry[0]
                   for (v, target), entry in zip(pairs, batch))

    @pytest.mark.parametrize("window_s", [0.25, 2.0])
    def test_short_windows_and_stale_targets(self, window_s):
        # Windows of 1-3 samples and targets at or before the last
        # sample answer with that sample; the rest extrapolate.
        t = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
        trace = HeadTrace(0, 0, t, np.array(
            [170.0, -175.0, 185.0, -170.0, 200.0, -160.0, 210.0, 215.0]),
            np.array([89.0, 90.0, 90.0, 90.0, 88.0, -90.0, -90.0, -89.0]))
        params = dict(window_s=window_s, lam=1.0, max_trend_deg_s=120.0,
                      max_extrapolation_s=1.2, fov_deg=100.0)
        pairs = [(float(s), target) for s in t
                 for target in (float(s) - 0.05, float(s), float(s) + 0.5)]
        got = _shared_feeder(trace, params).predict_many(pairs)
        eager = ViewportPredictor(**params)
        fed = 0
        for (video_time, target), (viewport, speed) in zip(pairs, got):
            while fed < t.size and t[fed] <= video_time:
                eager.observe(float(t[fed]), float(trace.yaw_unwrapped[fed]),
                              float(trace.pitch[fed]))
                fed += 1
            yaw, pitch = _reference_center(eager._history, target, eager)
            assert (viewport.yaw, viewport.pitch) == (yaw, pitch)
            assert speed == _reference_speed(eager._history)

    def test_unshared_feeder_asks_its_predictor(self):
        t = np.linspace(0.0, 3.0, 31)
        trace = HeadTrace(0, 0, t, 40.0 * t, np.zeros(t.size))
        pairs = [(1.0, 1.5), (2.0, 2.5)]
        plain = TraceFeeder(trace, ViewportPredictor(), 100.0)
        ridge = TraceFeeder.ridge(pickle.loads(pickle.dumps(trace)), 2.0,
                                  100.0)
        assert plain.predict_many(pairs) == ridge.predict_many(pairs)
        assert not any(key[0] == "ridge" for key in trace._kinematics_cache
                       if isinstance(key, tuple))


@st.composite
def windows(draw, trace):
    t = trace.timestamps
    lo, hi = float(t[0]) - 1.0, float(t[-1]) + 1.0
    out = []
    for _ in range(draw(st.integers(1, 20))):
        t0 = draw(st.floats(lo, hi) | st.sampled_from(t.tolist()))
        # Tiny windows fall between samples (empty, nearest-interval
        # fallback); long ones cover many.
        width = draw(st.sampled_from([1e-6, 1.0]) | st.floats(1e-4, 5.0))
        assume(t0 + width > t0)
        out.append((t0, t0 + width))
    return out


def _assert_windows_match(trace, spans, quantile):
    got = trace.speed_quantiles_in(spans, quantile)
    want = [_reference_window_speed(trace, t0, t1, quantile)
            for t0, t1 in spans]
    assert got == want
    assert all(type(v) is float for v in got)
    fresh = pickle.loads(pickle.dumps(trace))
    assert [fresh.speed_quantile_in(t0, t1, quantile)
            for t0, t1 in spans] == want
    # Both fill the same memo keys.
    assert _speed_keys(trace) == _speed_keys(fresh)


def _speed_keys(trace) -> set:
    return {key for key in trace._kinematics_cache
            if isinstance(key, tuple) and key[0] == "speed_quantile"}


class TestSpeedQuantilesParity:
    @given(trace=traces(max_samples=120), data=st.data(),
           quantile=st.sampled_from([None, 0.75, 0.0, 1.0, 0.5])
           | st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_equals_each_window_alone(self, trace, data, quantile):
        _assert_windows_match(trace, data.draw(windows(trace)), quantile)

    @pytest.mark.parametrize("quantile", [None, 0.75])
    def test_empty_outside_and_full_windows(self, quantile):
        trace = HeadTrace(0, 0, np.array([0.0, 1.0, 2.0, 2.5]),
                          np.array([0.0, 350.0, 10.0, 40.0]),
                          np.array([0.0, 90.0, -90.0, -90.0]))
        _assert_windows_match(trace, [
            (0.2, 0.3), (0.0, 3.0), (5.0, 6.0), (-2.0, -1.0), (0.5, 1.5),
            (1.4, 2.0), (0.0, 3.0),
        ], quantile)

    def test_validation(self):
        t = np.linspace(0.0, 1.0, 11)
        trace = HeadTrace(0, 0, t, t, t)
        for bad in ((1.0, 1.0), (1.0, 0.5), (math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError):
                trace.speed_quantiles_in([(0.0, 1.0), bad])
            with pytest.raises(ValueError):
                trace.speed_quantile_in(*bad)
        with pytest.raises(ValueError):
            trace.speed_quantiles_in([(0.0, 1.0)], quantile=1.5)


class TestPredictorValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_extrapolation_s": math.nan},
        {"max_extrapolation_s": -1.0},
        {"max_extrapolation_s": 0.0},
        {"max_extrapolation_s": math.inf},
        {"lam": math.nan},
        {"lam": -1.0},
        {"lam": math.inf},
        {"window_s": math.nan},
        {"window_s": -1.0},
        {"window_s": math.inf},
        {"max_trend_deg_s": math.nan},
        {"max_trend_deg_s": -1.0},
    ])
    def test_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            ViewportPredictor(**kwargs)

    def test_valid_edges_accepted(self):
        ViewportPredictor(lam=0.0, max_trend_deg_s=0.0)
        ViewportPredictor(max_trend_deg_s=math.inf, window_s=1e-3,
                          max_extrapolation_s=1e-3)
