"""Property-based tests (hypothesis) for the uncertainty layer.

The probabilistic viewport machinery must hold its mathematical
invariants for arbitrary inputs: hypothesis weights form a
distribution monotone in angular distance from the predicted center,
per-tile viewing probabilities stay in [0, 1], expected coverage is
bounded by the best and worst deterministic coverage over the
hypothesis grid, and error-model fits reproduce bit-for-bit from
identical traces.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import DEFAULT_GRID
from repro.geometry.viewport import Rect
from repro.prediction import (
    AngularErrorModel,
    PanoWeight,
    angular_distance_deg,
    coverage_profile,
    expected_coverage,
    fit_error_model,
    hypothesis_grid,
    hypothesis_weights,
)
from repro.traces.head_movement import HeadTrace

HYP = hypothesis_grid(DEFAULT_GRID)

centers = st.tuples(
    st.floats(0.0, 360.0, exclude_max=True),
    st.floats(-90.0, 90.0),
)
sigmas = st.floats(0.5, 45.0)


@st.composite
def hq_rect_sets(draw):
    """1-3 non-degenerate equirectangular rects (a Ptile-ish region)."""
    rects = []
    for _ in range(draw(st.integers(1, 3))):
        x0 = draw(st.floats(0.0, 300.0))
        y0 = draw(st.floats(-90.0, 40.0))
        width = draw(st.floats(20.0, 360.0 - x0))
        height = draw(st.floats(20.0, 90.0 - y0))
        rects.append(Rect(x0, y0, x0 + width, y0 + height))
    return tuple(rects)


class TestHypothesisWeights:
    @given(center=centers, sigma=sigmas)
    @settings(max_examples=80, deadline=None)
    def test_weights_form_a_distribution(self, center, sigma):
        yaw, pitch = center
        w = hypothesis_weights(HYP, yaw, pitch, sigma)
        assert w.shape == (HYP.num_hypotheses,)
        assert np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)

    @given(center=centers, sigma=sigmas)
    @settings(max_examples=80, deadline=None)
    def test_weights_monotone_in_angular_distance(self, center, sigma):
        yaw, pitch = center
        w = hypothesis_weights(HYP, yaw, pitch, sigma)
        d = angular_distance_deg(
            HYP.centers_yaw, HYP.centers_pitch, yaw, pitch
        )
        order = np.argsort(d, kind="stable")
        sorted_w = w[order]
        # Closer hypotheses never weigh less (ties in distance weigh
        # equally; far tails may both underflow to zero).
        assert np.all(np.diff(sorted_w) <= 1e-15)

    @given(center=centers)
    @settings(max_examples=30, deadline=None)
    def test_zero_sigma_rejected(self, center):
        yaw, pitch = center
        with pytest.raises(ValueError):
            hypothesis_weights(HYP, yaw, pitch, 0.0)


class TestExpectedCoverage:
    @given(center=centers, sigma=sigmas, rects=hq_rect_sets())
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_deterministic_extremes(self, center, sigma, rects):
        yaw, pitch = center
        w = hypothesis_weights(HYP, yaw, pitch, sigma)
        profile = coverage_profile(HYP, rects)
        expected = expected_coverage(w, HYP, rects)
        assert np.all(profile >= 0.0) and np.all(profile <= 1.0)
        # A convex combination of per-hypothesis coverages can never
        # beat the best hypothesis or undercut the worst.
        assert profile.min() - 1e-9 <= expected <= profile.max() + 1e-9
        assert 0.0 <= expected <= 1.0 + 1e-9

    @given(center=centers, rects=hq_rect_sets())
    @settings(max_examples=40, deadline=None)
    def test_tight_sigma_approaches_nearest_hypothesis(self, center, rects):
        # As sigma -> 0 the weight mass collapses onto the nearest
        # hypothesis center, so expected coverage approaches its
        # deterministic coverage.
        yaw, pitch = center
        w = hypothesis_weights(HYP, yaw, pitch, 0.5)
        profile = coverage_profile(HYP, rects)
        # Weights are shared among near-equidistant hypotheses (ties
        # are common near the poles), so bound by the profile spread
        # among the dominant hypotheses, widened by the total weight
        # of the excluded tail (coverage is in [0, 1], so the tail can
        # shift the expectation by at most its own mass).
        dominant = w > 1e-6
        tail = float(w[~dominant].sum())
        top = profile[dominant]
        expected = expected_coverage(w, HYP, rects)
        assert top.min() - tail - 1e-9 <= expected <= top.max() + tail + 1e-9


class TestPanoWeight:
    @given(pitch=st.floats(-90.0, 90.0), discount=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_weight_bounded_and_symmetric(self, pitch, discount):
        pano = PanoWeight(polar_discount=discount)
        w = pano.weight(pitch)
        assert 1.0 - discount - 1e-12 <= w <= 1.0
        assert w == pytest.approx(pano.weight(-pitch))

    def test_equator_undiscounted_poles_discounted(self):
        pano = PanoWeight(polar_discount=0.35)
        assert pano.weight(0.0) == pytest.approx(1.0)
        assert pano.weight(90.0) == pytest.approx(0.65)


class TestErrorModel:
    @given(
        base=st.floats(0.0, 30.0),
        growth=st.floats(0.0, 30.0),
        horizon=st.floats(0.0, 10.0) | st.floats(-5.0, 0.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_parametric_sigma_bounded(self, base, growth, horizon):
        model = AngularErrorModel(
            base_sigma_deg=base, growth_deg_per_s=growth
        )
        sigma = model.sigma_deg(horizon)
        assert 0.0 <= sigma <= model.max_sigma_deg
        if base == 0.0 and growth == 0.0:
            assert model.is_degenerate
            assert sigma == 0.0

    @given(horizon=st.floats(0.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_table_interpolation_stays_within_range(self, horizon):
        model = AngularErrorModel(
            horizons_s=(0.25, 0.5, 1.0, 2.0),
            sigmas_deg=(4.0, 7.0, 12.0, 20.0),
        )
        sigma = model.sigma_deg(horizon)
        assert 4.0 <= sigma <= 20.0

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_fit_reproducible_from_identical_traces(self, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(0.0, 8.0, 0.1)
        yaw = np.cumsum(rng.normal(0.0, 2.0, t.size))
        pitch = np.clip(
            np.cumsum(rng.normal(0.0, 1.0, t.size)), -90.0, 90.0
        )
        trace = HeadTrace(
            user_id=0, video_id=0, timestamps=t, yaw_unwrapped=yaw,
            pitch=pitch,
        )
        a = fit_error_model([trace], horizons_s=(0.25, 0.5, 1.0))
        b = fit_error_model([trace], horizons_s=(0.25, 0.5, 1.0))
        assert a.sigmas_deg == b.sigmas_deg
        assert a.horizons_s == b.horizons_s
        assert all(s >= 0.0 for s in a.sigmas_deg)
