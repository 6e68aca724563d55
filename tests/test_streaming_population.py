"""Parity and unit tests for population runs on the session kernel.

The engine steps many sessions through the same kernel ``run_session``
steps one through, so every aggregate both sides take by the same left
fold (energies, QoE means, stalls, byte totals, rebuffer counts) must
agree exactly; the aggregates ``SessionResult`` takes with ``np.mean``
(pairwise summation) keep a tolerance.  The scalar reference sessions
must also satisfy the per-segment invariants of
``tests/session_invariants.py``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.controller import OursScheme
from repro.prediction import static_predictor_factory
from repro.resilience import DownloadPolicy, FaultPlan, generate_fault_plan
from repro.streaming import (
    CtileScheme,
    FtileScheme,
    NontileScheme,
    PopulationEngine,
    PtileScheme,
    SessionConfig,
    run_session,
)
from repro.streaming.cache import EdgeHitModel, build_edge_hit_model
from repro.traces import DiurnalPoissonArrivals, NetworkTrace, assign_users

from .session_invariants import check_invariants

RTOL = 1e-9
CFG = SessionConfig(max_segments=10)


def _assert_parity(engine, scheme, manifest, traces, network, device,
                   ptiles, config, user_indices, ftiles=None, **run_kwargs):
    res = engine.run(user_indices, **run_kwargs)
    for j, u in enumerate(user_indices):
        scalar = run_session(
            scheme, manifest, traces[u], network, device,
            ptiles=ptiles, ftiles=ftiles, config=config,
        )
        check_invariants(scalar, config)
        sq = scalar.session_qoe
        exact = [
            ("transmission_j", res.transmission_j[j], scalar.energy.transmission_j),
            ("decoding_j", res.decoding_j[j], scalar.energy.decoding_j),
            ("rendering_j", res.rendering_j[j], scalar.energy.rendering_j),
            ("total_energy_j", res.total_energy_j[j], scalar.total_energy_j),
            ("mean_qoe", res.mean_qoe[j], sq.mean_q),
            ("mean_qoe", res.mean_qoe[j], scalar.mean_qoe),
            ("mean_qo", res.mean_qo[j], sq.mean_qo),
            ("mean_variation", res.mean_variation[j], sq.mean_variation),
            ("mean_rebuffer", res.mean_rebuffer[j], sq.mean_rebuffer),
            ("total_stall_s", res.total_stall_s[j], scalar.total_stall_s),
            ("total_edge_hit_mbit", res.total_edge_hit_mbit[j],
             scalar.total_edge_hit_mbit),
            ("total_size_mbit", res.total_size_mbit[j],
             scalar.total_size_mbit),
            ("rebuffer_count", res.rebuffer_count[j], scalar.rebuffer_count),
        ]
        for name, got, want in exact:
            assert got == want, (
                f"{name} diverged for session {j} (user {u}): "
                f"engine={got!r} scalar={want!r}"
            )
        # SessionResult takes these with np.mean (pairwise summation).
        close = [
            ("mean_quality_level", res.mean_quality_level[j],
             scalar.mean_quality_level),
            ("mean_frame_rate", res.mean_frame_rate[j], scalar.mean_frame_rate),
            ("mean_coverage", res.mean_coverage[j], scalar.mean_coverage),
            ("ptile_hit_rate", res.ptile_hit_rate[j], scalar.ptile_hit_rate),
        ]
        for name, got, want in close:
            assert got == pytest.approx(want, rel=RTOL, abs=1e-12), (
                f"{name} diverged for session {j} (user {u}): "
                f"engine={got!r} scalar={want!r}"
            )
    return res


class TestParity:
    def test_ctile_single_session(self, manifest2, small_dataset,
                                  network_traces, device):
        traces = small_dataset.test_traces(2)
        scheme = CtileScheme()
        engine = PopulationEngine(
            scheme, manifest2, traces, network_traces[1], device, config=CFG
        )
        _assert_parity(engine, scheme, manifest2, traces, network_traces[1],
                       device, None, CFG, [0])

    def test_ptile_all_users(self, manifest2, ptiles2, small_dataset,
                             network_traces, device):
        traces = small_dataset.test_traces(2)
        scheme = PtileScheme()
        engine = PopulationEngine(
            scheme, manifest2, traces, network_traces[1], device,
            ptiles=ptiles2, config=CFG,
        )
        _assert_parity(engine, scheme, manifest2, traces, network_traces[1],
                       device, ptiles2, CFG, list(range(len(traces))))

    def test_ours_bandwidth_window_boundary(self, manifest2, ptiles2,
                                            small_dataset, network_traces,
                                            device):
        # Exactly bandwidth_window (5) sessions: the harmonic-estimator
        # ring wraps for the first time on the last segment feeds.
        traces = small_dataset.test_traces(2)
        scheme = OursScheme(device=device)
        engine = PopulationEngine(
            scheme, manifest2, traces, network_traces[1], device,
            ptiles=ptiles2, config=CFG,
        )
        _assert_parity(engine, scheme, manifest2, traces, network_traces[1],
                       device, ptiles2, CFG, [0, 1, 2, 3, 0])

    def test_repeated_users_chunked(self, manifest2, ptiles2, small_dataset,
                                    network_traces, device):
        # Seven sessions over four traces in chunks of 3: session count
        # is not a multiple of the chunk, and repeats must share the
        # per-trace precomputation without cross-talk.
        traces = small_dataset.test_traces(2)
        scheme = OursScheme(device=device)
        engine = PopulationEngine(
            scheme, manifest2, traces, network_traces[1], device,
            ptiles=ptiles2, config=CFG,
        )
        users = [0, 1, 2, 3, 0, 1, 2]
        res = _assert_parity(engine, scheme, manifest2, traces,
                             network_traces[1], device, ptiles2, CFG, users,
                             chunk_size=3)
        # Identical inputs yield identical rows.
        assert res.total_energy_j[0] == res.total_energy_j[4]
        assert res.mean_qoe[1] == res.mean_qoe[5]

    def test_ours_without_ptiles_falls_back(self, manifest2, small_dataset,
                                            network_traces, device):
        traces = small_dataset.test_traces(2)
        scheme = OursScheme(device=device)
        engine = PopulationEngine(
            scheme, manifest2, traces, network_traces[1], device, config=CFG
        )
        res = _assert_parity(engine, scheme, manifest2, traces,
                             network_traces[1], device, None, CFG, [0, 1])
        assert np.all(res.ptile_hit_rate == 0.0)

    def test_edge_model_parity(self, manifest2, ptiles2, small_dataset,
                               network_traces, device):
        traces = small_dataset.test_traces(2)
        edge = build_edge_hit_model(
            manifest2, small_dataset.train_traces(2), ptiles2,
            capacity_mbit=500,
        )
        config = SessionConfig(max_segments=10, edge_model=edge)
        scheme = PtileScheme()
        engine = PopulationEngine(
            scheme, manifest2, traces, network_traces[1], device,
            ptiles=ptiles2, config=config,
        )
        res = _assert_parity(engine, scheme, manifest2, traces,
                             network_traces[1], device, ptiles2, config,
                             [0, 1])
        assert np.all(res.total_edge_hit_mbit > 0)

    def test_zero_bandwidth_bins_parity(self, manifest2, small_dataset,
                                        device):
        # A trace that starts with outage seconds exercises the startup
        # probe and the instantaneous-download estimator fallback on
        # both paths.
        traces = small_dataset.test_traces(2)
        trace = NetworkTrace("zeros", np.array([0.0, 0.0] + [6.0] * 40))
        scheme = CtileScheme()
        engine = PopulationEngine(
            scheme, manifest2, traces, trace, device, config=CFG
        )
        _assert_parity(engine, scheme, manifest2, traces, trace, device,
                       None, CFG, [0, 1])

    def test_resilience_config_parity(self, manifest2, ptiles2,
                                      small_dataset, network_traces, device):
        # The resilience overlay is a per-row branch of the same step.
        traces = small_dataset.test_traces(2)
        config = SessionConfig(
            max_segments=10, download_policy=DownloadPolicy(),
            fault_plan=generate_fault_plan("stress", 300.0),
        )
        scheme = OursScheme(device=device)
        engine = PopulationEngine(
            scheme, manifest2, traces, network_traces[1], device,
            ptiles=ptiles2, config=config,
        )
        _assert_parity(engine, scheme, manifest2, traces, network_traces[1],
                       device, ptiles2, config, [0, 1, 0])

    def test_idle_plan_with_edge_model_matches_faults_off(
            self, manifest2, ptiles2, small_dataset, network_traces, device):
        # An idle plan and a policy that never times out or retries
        # fetch every row in one attempt, edge split included: the
        # faults-off sessions bit for bit, over the columnar walk.
        traces = small_dataset.test_traces(2)
        faults_off = SessionConfig(edge_model=EdgeHitModel((0.5,) * 40))
        benign = replace(
            faults_off, fault_plan=FaultPlan(),
            download_policy=DownloadPolicy(retry_budget=0,
                                           timeout_slack_s=1e9),
        )
        scheme = PtileScheme()
        users = [0, 1, 2, 3, 0, 1]
        results = [
            _assert_parity(
                PopulationEngine(scheme, manifest2, traces,
                                 network_traces[1], device, ptiles=ptiles2,
                                 config=config),
                scheme, manifest2, traces, network_traces[1], device,
                ptiles2, config, users,
            )
            for config in (faults_off, benign)
        ]
        for name in ("transmission_j", "qoe_sum", "total_stall_s",
                     "total_edge_hit_mbit", "total_size_mbit"):
            assert np.array_equal(getattr(results[0], name),
                                  getattr(results[1], name)), name
        assert np.all(results[1].total_edge_hit_mbit > 0)

    def test_custom_predictor_parity(self, manifest2, ptiles2, small_dataset,
                                     network_traces, device):
        traces = small_dataset.test_traces(2)
        config = SessionConfig(
            max_segments=10, predictor_factory=static_predictor_factory
        )
        scheme = PtileScheme()
        engine = PopulationEngine(
            scheme, manifest2, traces, network_traces[1], device,
            ptiles=ptiles2, config=config,
        )
        _assert_parity(engine, scheme, manifest2, traces, network_traces[1],
                       device, ptiles2, config, [0, 1, 0])

    def test_playhead_bound_late_fetch_parity(self, manifest2, ptiles2,
                                              small_dataset, network_traces,
                                              device):
        # Past 0.5 L + min(L, threshold) the playhead binds some
        # prediction times; those segments plan through scheme.plan.
        traces = small_dataset.test_traces(2)
        config = SessionConfig(max_segments=10, late_fetch_horizon_s=2.0)
        scheme = OursScheme(device=device)
        engine = PopulationEngine(
            scheme, manifest2, traces, network_traces[1], device,
            ptiles=ptiles2, config=config,
        )
        _assert_parity(engine, scheme, manifest2, traces, network_traces[1],
                       device, ptiles2, config, [0, 1, 2])

    def test_nontile_parity(self, manifest2, small_dataset, network_traces,
                            device):
        # Nontile picks from a fractional ladder.
        traces = small_dataset.test_traces(2)
        scheme = NontileScheme()
        engine = PopulationEngine(
            scheme, manifest2, traces, network_traces[1], device, config=CFG
        )
        _assert_parity(engine, scheme, manifest2, traces, network_traces[1],
                       device, None, CFG, [0, 1])

    def test_ftile_parity(self, manifest2, ftiles2, small_dataset,
                          network_traces, device):
        traces = small_dataset.test_traces(2)
        scheme = FtileScheme()
        engine = PopulationEngine(
            scheme, manifest2, traces, network_traces[1], device,
            ftiles=ftiles2, config=CFG,
        )
        _assert_parity(engine, scheme, manifest2, traces, network_traces[1],
                       device, None, CFG, [0, 1], ftiles=ftiles2)


class TestRunSemantics:
    def test_start_times_shift_network_phase(self, manifest2, small_dataset,
                                             network_traces, device):
        traces = small_dataset.test_traces(2)
        engine = PopulationEngine(
            CtileScheme(), manifest2, traces, network_traces[1], device,
            config=CFG,
        )
        res = engine.run([0, 0], [0.0, 41.0])
        assert res.total_energy_j[0] != res.total_energy_j[1]

    def test_default_runs_every_trace(self, manifest2, small_dataset,
                                      network_traces, device):
        traces = small_dataset.test_traces(2)
        engine = PopulationEngine(
            CtileScheme(), manifest2, traces, network_traces[1], device,
            config=CFG,
        )
        res = engine.run()
        assert res.num_sessions == len(traces)
        assert res.num_segments == 10
        means = res.mean_sessions()
        assert means["energy_j"] == pytest.approx(
            float(np.mean(res.total_energy_j))
        )

    def test_run_validation(self, manifest2, small_dataset, network_traces,
                            device):
        traces = small_dataset.test_traces(2)
        engine = PopulationEngine(
            CtileScheme(), manifest2, traces, network_traces[1], device,
            config=CFG,
        )
        with pytest.raises(ValueError):
            engine.run([])
        with pytest.raises(ValueError):
            engine.run([len(traces)])
        with pytest.raises(ValueError):
            engine.run([0, 1], [0.0])
        with pytest.raises(ValueError):
            engine.run([0], [-1.0])
        with pytest.raises(ValueError):
            engine.run([0], chunk_size=0)


class TestConstructorValidation:
    def test_rejects_dead_network(self, manifest2, small_dataset, device):
        dead = NetworkTrace("dead", np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="zero bandwidth"):
            PopulationEngine(
                CtileScheme(), manifest2, small_dataset.test_traces(2),
                dead, device, config=CFG,
            )


class TestArrivals:
    def test_deterministic(self):
        a = DiurnalPoissonArrivals(rate_per_s=2.0, amplitude=0.5,
                                   period_s=60.0, seed=11)
        xs = a.sample(120.0)
        ys = a.sample(120.0)
        assert np.array_equal(xs, ys)
        assert np.all(np.diff(xs) > 0)
        assert np.all((xs >= 0) & (xs < 120.0))

    def test_rate_profile(self):
        a = DiurnalPoissonArrivals(rate_per_s=1.0, amplitude=0.5,
                                   period_s=100.0)
        assert a.rate_at(25.0) == pytest.approx(1.5)
        assert a.rate_at(75.0) == pytest.approx(0.5)
        flat = DiurnalPoissonArrivals(rate_per_s=2.0, amplitude=0.0)
        assert flat.rate_at(12345.0) == pytest.approx(2.0)

    def test_mean_rate_is_respected(self):
        a = DiurnalPoissonArrivals(rate_per_s=3.0, amplitude=0.4, seed=3)
        n = a.sample(2000.0).size
        assert n == pytest.approx(6000, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalPoissonArrivals(rate_per_s=0.0)
        with pytest.raises(ValueError):
            DiurnalPoissonArrivals(amplitude=1.0)
        with pytest.raises(ValueError):
            DiurnalPoissonArrivals(period_s=0.0)
        with pytest.raises(ValueError):
            DiurnalPoissonArrivals().sample(0.0)

    def test_assign_users(self):
        times = np.array([0.5, 3.0, 9.9])
        users, starts = assign_users(times, 4, seed=7)
        users2, _ = assign_users(times, 4, seed=7)
        assert np.array_equal(users, users2)
        assert np.array_equal(starts, times)
        assert np.all((users >= 0) & (users < 4))
        with pytest.raises(ValueError):
            assign_users(times, 0)
        with pytest.raises(ValueError):
            assign_users(np.array([-1.0]), 4)
