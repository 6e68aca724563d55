"""Unit tests for ridge regression and viewport prediction."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prediction import RidgeRegressor, ViewportPredictor


class TestRidgeRegressor:
    def test_fits_line_exactly_without_regularization(self):
        x = np.arange(10.0)
        y = 3.0 * x + 2.0
        model = RidgeRegressor(lam=0.0).fit(x, y)
        assert model.predict(np.array([20.0]))[0] == pytest.approx(62.0)

    def test_regularization_shrinks_slope(self):
        x = np.arange(10.0)
        y = 3.0 * x
        free = RidgeRegressor(lam=0.0).fit(x, y)
        ridge = RidgeRegressor(lam=100.0).fit(x, y)
        assert abs(ridge.weights[1]) < abs(free.weights[1])

    def test_intercept_not_regularized(self):
        x = np.zeros(20)
        y = np.full(20, 7.0)
        model = RidgeRegressor(lam=1000.0).fit(x, y)
        assert model.predict(np.array([0.0]))[0] == pytest.approx(7.0)

    def test_multifeature(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + 4.0
        model = RidgeRegressor(lam=1e-6).fit(x, y)
        pred = model.predict(x)
        assert np.allclose(pred, y, atol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            RidgeRegressor(lam=-1.0)
        with pytest.raises(ValueError):
            RidgeRegressor().fit(np.zeros((2, 1)), np.zeros(3))
        with pytest.raises(ValueError):
            RidgeRegressor().fit(np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(RuntimeError):
            RidgeRegressor().predict(np.zeros((1, 1)))

    def test_is_fitted(self):
        model = RidgeRegressor()
        assert not model.is_fitted
        model.fit(np.arange(5.0), np.arange(5.0))
        assert model.is_fitted


class TestViewportPredictor:
    def test_requires_observations(self):
        with pytest.raises(RuntimeError):
            ViewportPredictor().predict_center(1.0)

    def test_few_samples_fall_back_to_last(self):
        p = ViewportPredictor()
        p.observe(0.0, 100.0, 10.0)
        p.observe(0.1, 102.0, 10.0)
        yaw, pitch = p.predict_center(1.0)
        assert yaw == pytest.approx(102.0)
        assert pitch == pytest.approx(10.0)

    def test_linear_trend_extrapolated(self):
        p = ViewportPredictor(lam=1e-6)
        for i in range(20):
            p.observe(i * 0.1, 100.0 + i, 0.0)  # 10 deg/s
        yaw, _ = p.predict_center(2.4)  # 0.5 s ahead
        assert yaw == pytest.approx(124.0, abs=0.5)

    def test_extrapolation_capped(self):
        p = ViewportPredictor(lam=1e-6, max_extrapolation_s=1.0)
        for i in range(20):
            p.observe(i * 0.1, 100.0 + i, 0.0)
        yaw_far, _ = p.predict_center(10.0)
        # Only 1 s of trend applied: 119 + 10 deg.
        assert yaw_far == pytest.approx(129.0, abs=1.0)

    def test_seam_crossing_unwrapped(self):
        p = ViewportPredictor(lam=1e-6)
        yaws = [356.0, 358.0, 0.0, 2.0, 4.0]
        for i, yaw in enumerate(yaws):
            p.observe(i * 0.1, yaw, 0.0)
        yaw, _ = p.predict_center(0.6)
        assert 4.0 < yaw < 12.0  # continues forward, no 360 jump

    def test_pitch_clamped(self):
        p = ViewportPredictor(lam=1e-6)
        for i in range(20):
            p.observe(i * 0.1, 0.0, 60.0 + i * 2.0)
        _, pitch = p.predict_center(3.0)
        assert pitch <= 90.0

    def test_window_eviction(self):
        p = ViewportPredictor(window_s=1.0)
        for i in range(50):
            p.observe(i * 0.1, 0.0, 0.0)
        assert p.num_observations <= 11

    def test_time_ordering_enforced(self):
        p = ViewportPredictor()
        p.observe(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            p.observe(0.0, 1.0, 0.0)

    def test_recent_speed(self):
        p = ViewportPredictor()
        for i in range(11):
            p.observe(i * 0.1, i * 1.0, 0.0)  # 10 deg/s
        assert p.recent_speed_deg_s() == pytest.approx(10.0, abs=0.5)

    def test_recent_speed_empty(self):
        assert ViewportPredictor().recent_speed_deg_s() == 0.0

    def test_predict_viewport_object(self):
        p = ViewportPredictor(fov_deg=90.0)
        p.observe(0.0, 10.0, 0.0)
        vp = p.predict_viewport(1.0)
        assert vp.fov_h == 90.0
        assert vp.yaw == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ViewportPredictor(window_s=0.0)
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError):
                ViewportPredictor(max_trend_deg_s=bad)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestClampParity:
    """The predictor clamps with min/max; they must equal np.clip bit
    for bit, NaN and signed zeros included (NaN bounds are rejected at
    construction, which is where the two would differ)."""

    any_float = st.floats(allow_nan=True, allow_infinity=True)
    bound = st.sampled_from([0.0, -0.0, math.inf]) | st.floats(0.0, 1e6)

    @given(any_float, bound)
    @settings(max_examples=300)
    def test_symmetric_clamp_matches_np_clip(self, x, m):
        got = float(min(max(x, -m), m))
        assert _bits(got) == _bits(float(np.clip(x, -m, m)))

    @given(any_float)
    @settings(max_examples=300)
    def test_pitch_clamp_matches_np_clip(self, pitch):
        # observe() stores the clamped pitch, and the short-history
        # fallback returns it.
        p = ViewportPredictor()
        p.observe(0.0, 10.0, pitch)
        _, got = p.predict_center(1.0)
        assert type(got) is float
        assert _bits(got) == _bits(float(np.clip(pitch, -90.0, 90.0)))

    @given(st.lists(st.floats(-200.0, 200.0), min_size=4, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_zero_trend_clamp_holds_last_sample(self, pitches):
        # max_trend_deg_s = 0 clamps the trend to [-0.0, 0.0]: the
        # prediction is the last sample exactly.
        p = ViewportPredictor(max_trend_deg_s=0.0)
        for i, pitch in enumerate(pitches):
            p.observe(0.1 * i, 3.0 * i, pitch)
        yaw, pitch = p.predict_center(0.1 * len(pitches) + 0.5)
        last = len(pitches) - 1
        assert _bits(yaw) == _bits((3.0 * last) % 360.0)
        assert _bits(pitch) == _bits(
            float(np.clip(pitches[-1], -90.0, 90.0))
        )


class TestPredictionBoundary:
    """Targets past the usable horizon clamp — and say so (S1).

    ``predict_center`` extrapolates at most ``max_extrapolation_s``
    past the last observation; ``prediction_end_s`` exposes the time a
    prediction is actually *for*, so callers (the error-model fit, the
    robust planner) never mistake a clamped prediction for a
    full-horizon one.
    """

    def test_prediction_end_clamps_to_extrapolation_cap(self):
        p = ViewportPredictor(lam=1e-6, max_extrapolation_s=1.0)
        for i in range(20):
            p.observe(i * 0.1, 100.0 + i, 0.0)  # last sample at t=1.9
        assert p.prediction_end_s(10.0) == pytest.approx(2.9)
        # In-range targets are honored exactly.
        assert p.prediction_end_s(2.4) == pytest.approx(2.4)
        # Past targets clamp to the last observation.
        assert p.prediction_end_s(0.5) == pytest.approx(1.9)

    def test_prediction_end_matches_capped_prediction(self):
        # The prediction for a far target equals the prediction at the
        # clamped end time: the clamp is real, not cosmetic.
        p = ViewportPredictor(lam=1e-6, max_extrapolation_s=1.0)
        for i in range(20):
            p.observe(i * 0.1, 100.0 + i, 0.0)
        far = p.predict_center(50.0)
        capped = p.predict_center(p.prediction_end_s(50.0))
        assert far[0] == pytest.approx(capped[0])
        assert far[1] == pytest.approx(capped[1])

    def test_prediction_end_with_sparse_history(self):
        # Below the 4-sample trend threshold the predictor holds the
        # last observation, and prediction_end_s reports exactly that.
        p = ViewportPredictor()
        p.observe(0.0, 10.0, 0.0)
        p.observe(0.1, 11.0, 0.0)
        assert p.prediction_end_s(5.0) == pytest.approx(0.1)
        yaw, _ = p.predict_center(5.0)
        assert yaw == pytest.approx(11.0)

    def test_prediction_end_requires_observations(self):
        with pytest.raises(RuntimeError):
            ViewportPredictor().prediction_end_s(1.0)

    def test_fit_excludes_windows_past_trace_end(self):
        # A trace too short to ground-truth the long horizon: the fit
        # must leave that bucket empty (sigma 0) instead of scoring the
        # prediction against the clamped final sample.
        from repro.prediction import fit_error_model
        from repro.traces.head_movement import HeadTrace

        t = np.arange(0.0, 3.0, 0.1)
        trace = HeadTrace(
            user_id=0, video_id=0, timestamps=t,
            yaw_unwrapped=5.0 * t, pitch=np.zeros(t.size),
        )
        # Evaluation starts after window_s=2.0; the trace ends at
        # t=2.9, so 5-second targets never fit inside it.
        model = fit_error_model(
            [trace], horizons_s=(0.25, 5.0), window_s=2.0
        )
        assert model.sigmas_deg[0] > 0.0
        assert model.sigmas_deg[1] == 0.0
