"""Unit tests for the alternative viewport-prediction strategies."""

import pytest

from repro.prediction import (
    OraclePredictor,
    StaticPredictor,
    oracle_predictor_factory,
    static_predictor_factory,
)
from repro.streaming import PtileScheme, SessionConfig, run_session


class TestStaticPredictor:
    def test_persists_last_position(self):
        p = StaticPredictor()
        p.observe(0.0, 100.0, 5.0)
        p.observe(0.1, 110.0, 6.0)
        vp = p.predict_viewport(5.0)
        assert vp.yaw == pytest.approx(110.0)
        assert vp.pitch == pytest.approx(6.0)

    def test_requires_observation(self):
        with pytest.raises(RuntimeError):
            StaticPredictor().predict_viewport(1.0)

    def test_time_ordering(self):
        p = StaticPredictor()
        p.observe(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            p.observe(0.0, 1.0, 0.0)

    def test_speed_tracking(self):
        p = StaticPredictor()
        for i in range(11):
            p.observe(i * 0.1, i * 2.0, 0.0)  # 20 deg/s
        assert p.recent_speed_deg_s() == pytest.approx(20.0, abs=0.5)

    def test_speed_empty(self):
        assert StaticPredictor().recent_speed_deg_s() == 0.0

    def test_seam_handling(self):
        p = StaticPredictor()
        p.observe(0.0, 359.0, 0.0)
        p.observe(0.1, 1.0, 0.0)
        vp = p.predict_viewport(1.0)
        assert vp.yaw == pytest.approx(1.0)


class TestOraclePredictor:
    def test_reads_future(self, small_dataset):
        trace = small_dataset.traces[2][0]
        oracle = OraclePredictor(trace=trace)
        vp = oracle.predict_viewport(10.0)
        yaw, pitch = trace.orientation_at(10.0)
        assert vp.yaw == pytest.approx(yaw)
        assert vp.pitch == pytest.approx(pitch)

    def test_always_ready(self, small_dataset):
        oracle = OraclePredictor(trace=small_dataset.traces[2][0])
        assert oracle.num_observations >= 1

    def test_speed_non_negative(self, small_dataset):
        oracle = OraclePredictor(trace=small_dataset.traces[2][0])
        oracle.observe(0.0, 0.0, 0.0)
        assert oracle.recent_speed_deg_s() >= 0.0


class TestFactories:
    def test_factory_types(self, small_dataset):
        trace = small_dataset.traces[2][0]
        assert isinstance(
            static_predictor_factory(trace, 100.0), StaticPredictor
        )
        assert isinstance(
            oracle_predictor_factory(trace, 100.0), OraclePredictor
        )

    def test_fov_propagated(self, small_dataset):
        trace = small_dataset.traces[2][0]
        predictor = static_predictor_factory(trace, 90.0)
        predictor.observe(0.0, 0.0, 0.0)
        assert predictor.predict_viewport(1.0).fov_h == 90.0


class TestSessionIntegration:
    def test_oracle_improves_coverage(
        self, small_dataset, manifest2, network_traces, device, ptiles2
    ):
        head = small_dataset.test_traces(2)[0]

        def run_with(factory):
            return run_session(
                PtileScheme(), manifest2, head, network_traces[1], device,
                ptiles=ptiles2,
                config=SessionConfig(predictor_factory=factory),
            )

        oracle = run_with(oracle_predictor_factory)
        ridge = run_with(None)
        assert oracle.mean_coverage >= ridge.mean_coverage - 0.02
        assert oracle.mean_coverage > 0.9

    def test_static_session_completes(
        self, small_dataset, manifest2, network_traces, device, ptiles2
    ):
        head = small_dataset.test_traces(2)[0]
        result = run_session(
            PtileScheme(), manifest2, head, network_traces[1], device,
            ptiles=ptiles2,
            config=SessionConfig(predictor_factory=static_predictor_factory),
        )
        assert result.num_segments == manifest2.num_segments
