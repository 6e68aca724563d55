"""Tests for the resilience subsystem: fault plans, the faulty network,
the download policy, and their integration with the session loop."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    SessionJob,
    SweepContext,
    make_setup,
    run_session_jobs,
    sweep_resilience,
)
from repro.experiments.artifacts import ArtifactStore
from repro.power.models import TilingScheme
from repro.resilience import (
    FAULT_PROFILES,
    CollapseWindow,
    DegradationLevel,
    DownloadPolicy,
    FaultPlan,
    FaultyNetwork,
    LatencySpike,
    Outage,
    execute_download,
    generate_fault_plan,
)
from repro.streaming import (
    DownloadPlan,
    PtileScheme,
    SessionConfig,
    run_session,
)
from repro.traces import NetworkTrace


@pytest.fixture(scope="module")
def flat_trace():
    return NetworkTrace(name="flat", bandwidth_mbps=np.full(60, 4.0))


class TestFaultPlan:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            Outage(5.0, 5.0)
        with pytest.raises(ValueError):
            Outage(-1.0, 2.0)
        with pytest.raises(ValueError):
            CollapseWindow(0.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            LatencySpike(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            FaultPlan(failure_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(edge_fail_at_s=-2.0)

    def test_idle_plan(self):
        assert FaultPlan().is_idle
        assert not FaultPlan(failure_rate=0.1).is_idle
        assert not FaultPlan(outages=(Outage(1.0, 2.0),)).is_idle

    def test_bandwidth_factor_and_boundaries(self):
        plan = FaultPlan(
            outages=(Outage(10.0, 12.0),),
            collapses=(CollapseWindow(11.0, 20.0, 0.5),),
        )
        assert plan.bandwidth_factor(5.0) == 1.0
        assert plan.bandwidth_factor(10.5) == 0.0  # outage dominates
        assert plan.bandwidth_factor(15.0) == 0.5
        assert plan.bandwidth_factor(20.0) == 1.0  # half-open windows
        assert plan.next_boundary_after(0.0) == 10.0
        assert plan.next_boundary_after(10.0) == 11.0
        assert plan.next_boundary_after(19.0) == 20.0
        assert plan.next_boundary_after(25.0) == math.inf

    def test_overlapping_collapses_multiply(self):
        plan = FaultPlan(
            collapses=(
                CollapseWindow(0.0, 10.0, 0.5),
                CollapseWindow(5.0, 15.0, 0.4),
            )
        )
        assert plan.bandwidth_factor(7.0) == pytest.approx(0.2)

    def test_latency_spikes_take_max(self):
        plan = FaultPlan(
            latency_spikes=(
                LatencySpike(0.0, 10.0, 0.3),
                LatencySpike(5.0, 8.0, 0.9),
            )
        )
        assert plan.extra_latency(2.0) == 0.3
        assert plan.extra_latency(6.0) == 0.9
        assert plan.extra_latency(12.0) == 0.0

    def test_attempt_failures_deterministic_and_rate_bounded(self):
        plan = FaultPlan(seed=11, failure_rate=0.3)
        draws = [
            plan.attempt_fails(seg, att)
            for seg in range(200)
            for att in range(3)
        ]
        again = [
            plan.attempt_fails(seg, att)
            for seg in range(200)
            for att in range(3)
        ]
        assert draws == again  # pure function of (seed, segment, attempt)
        rate = sum(draws) / len(draws)
        assert 0.2 < rate < 0.4
        assert not FaultPlan(failure_rate=0.0).attempt_fails(0, 0)
        always = FaultPlan(failure_rate=1.0)
        assert all(always.attempt_fails(s, a) for s in range(5) for a in range(3))

    def test_edge_availability(self):
        assert FaultPlan().edge_available(1e9)
        plan = FaultPlan(edge_fail_at_s=30.0)
        assert plan.edge_available(29.9)
        assert not plan.edge_available(30.0)


class TestProfiles:
    def test_every_profile_generates_deterministically(self):
        for profile in FAULT_PROFILES:
            a = generate_fault_plan(profile, 120.0, seed=3)
            b = generate_fault_plan(profile, 120.0, seed=3)
            assert a == b
            assert a.name == profile

    def test_profiles_differ_by_seed(self):
        a = generate_fault_plan("outages", 500.0, seed=1)
        b = generate_fault_plan("outages", 500.0, seed=2)
        assert a != b

    def test_unknown_profile_lists_alternatives(self):
        with pytest.raises(ValueError, match="available profiles"):
            generate_fault_plan("flaky-wifi", 100.0)

    def test_windows_respect_duration(self):
        plan = generate_fault_plan("stress", 90.0, seed=5)
        for w in plan.outages + plan.collapses + plan.latency_spikes:
            assert 0.0 <= w.start_s < w.end_s <= 90.0
        if plan.edge_fail_at_s is not None:
            assert 0.0 <= plan.edge_fail_at_s <= 90.0

    def test_short_sessions_still_get_at_least_one_window(self):
        # Poisson gaps (45-60 s means) would frequently draw nothing on
        # a 30 s session, making a named fault profile a silent no-op.
        for seed in range(10):
            for profile, attr in (
                ("outages", "outages"),
                ("collapse", "collapses"),
                ("spikes", "latency_spikes"),
            ):
                plan = generate_fault_plan(profile, 30.0, seed=seed)
                windows = getattr(plan, attr)
                assert windows, f"{profile} seed {seed} injected nothing"
                for w in windows:
                    assert 0.0 <= w.start_s < w.end_s <= 30.0


class TestDownloadWithin:
    def test_matches_download_time_when_budget_suffices(self, flat_trace):
        t = flat_trace.download_time(10.0, 3.3)
        delivered, elapsed, completed = flat_trace.download_within(
            10.0, 3.3, t + 1.0
        )
        assert completed
        assert delivered == 10.0
        assert elapsed == pytest.approx(t)

    def test_partial_delivery_on_budget_exhaustion(self, flat_trace):
        delivered, elapsed, completed = flat_trace.download_within(
            100.0, 0.0, 2.0
        )
        assert not completed
        assert elapsed == 2.0
        assert delivered == pytest.approx(8.0)  # 4 Mbps * 2 s

    def test_degenerate_inputs(self, flat_trace):
        assert flat_trace.download_within(0.0, 0.0, 5.0) == (0.0, 0.0, True)
        assert flat_trace.download_within(5.0, 0.0, 0.0) == (0.0, 0.0, False)
        with pytest.raises(ValueError):
            flat_trace.download_within(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            flat_trace.download_within(1.0, 0.0, -1.0)


class TestFaultyNetwork:
    def test_idle_plan_matches_base(self, flat_trace):
        net = FaultyNetwork(flat_trace, FaultPlan())
        assert net.bandwidth_at(7.2) == flat_trace.bandwidth_at(7.2)
        assert net.download_within(6.0, 1.0, 10.0) == (
            flat_trace.download_within(6.0, 1.0, 10.0)
        )
        assert net.name == "flat+none"

    def test_outage_blocks_bytes_but_time_passes(self, flat_trace):
        plan = FaultPlan(outages=(Outage(5.0, 8.0),))
        net = FaultyNetwork(flat_trace, plan)
        assert net.bandwidth_at(6.0) == 0.0
        delivered, elapsed, completed = net.download_within(4.0, 5.0, 2.0)
        assert not completed
        assert delivered == 0.0
        assert elapsed == 2.0

    def test_download_crossing_outage_pays_the_gap(self, flat_trace):
        plan = FaultPlan(outages=(Outage(5.0, 8.0),))
        net = FaultyNetwork(flat_trace, plan)
        # 8 Mbit at 4 Mbps = 2 s of transfer; starting at 4 s the outage
        # inserts exactly 3 dead seconds after the first second.
        delivered, elapsed, completed = net.download_within(8.0, 4.0, 20.0)
        assert completed
        assert delivered == 8.0
        assert elapsed == pytest.approx(5.0)

    def test_collapse_scales_throughput(self, flat_trace):
        plan = FaultPlan(collapses=(CollapseWindow(0.0, 60.0, 0.25),))
        net = FaultyNetwork(flat_trace, plan)
        delivered, elapsed, completed = net.download_within(4.0, 0.0, 30.0)
        assert completed
        assert elapsed == pytest.approx(4.0)  # 4 Mbit at 1 Mbps effective


def _plan(size_mbit=4.0, quality=3, fr=30.0):
    return DownloadPlan(
        scheme_name="test",
        quality=quality,
        frame_rate=fr,
        total_size_mbit=size_mbit,
        decode_scheme=TilingScheme.PTILE,
    )


class TestDownloadPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            DownloadPolicy(retry_budget=-1)
        with pytest.raises(ValueError):
            DownloadPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            DownloadPolicy(min_timeout_s=0.0)

    def test_backoff_monotone_and_capped(self):
        policy = DownloadPolicy(
            backoff_base_s=0.2, backoff_factor=2.0, backoff_cap_s=1.0
        )
        waits = [policy.backoff_s(i) for i in range(6)]
        assert waits == sorted(waits)
        assert waits[-1] == 1.0

    def test_deadline_budget_floor(self):
        policy = DownloadPolicy(timeout_slack_s=0.5, min_timeout_s=0.4)
        assert policy.deadline_budget_s(3.0) == 3.5
        assert policy.deadline_budget_s(0.0) == 0.5
        assert policy.deadline_budget_s(-10.0) == 0.4


class TestExecuteDownload:
    def test_clean_fetch_matches_plain_download(self, flat_trace, manifest8):
        plan = _plan()
        outcome = execute_download(
            flat_trace, plan, manifest8[0], 30.0,
            policy=DownloadPolicy(),
            fault_plan=None,
            start_wall_t=2.0,
            buffer_level_s=3.0,
            segment_index=1,
        )
        assert outcome.level == DegradationLevel.FULL
        assert outcome.plan == plan
        assert outcome.retries == 0 and outcome.timeouts == 0
        assert outcome.elapsed_s == pytest.approx(
            flat_trace.download_time(plan.total_size_mbit, 2.0)
        )
        assert outcome.active_s == outcome.elapsed_s

    def test_outage_degrades_down_the_ladder(self, flat_trace, manifest8):
        # The whole deadline window is dead: every rung times out and
        # the segment is skipped with the full coverage penalty.
        plan_f = FaultPlan(outages=(Outage(0.0, 50.0),))
        outcome = execute_download(
            FaultyNetwork(flat_trace, plan_f), _plan(), manifest8[0], 30.0,
            policy=DownloadPolicy(retry_budget=2),
            fault_plan=plan_f,
            start_wall_t=1.0,
            buffer_level_s=2.0,
            segment_index=3,
        )
        assert outcome.skipped
        assert outcome.level == DegradationLevel.SKIPPED
        assert outcome.plan.total_size_mbit == 0.0
        assert outcome.timeouts == 3  # one per fetchable rung
        assert outcome.elapsed_s > 0.0

    def test_corrupt_attempts_retry_with_backoff(self, flat_trace, manifest8):
        plan_f = FaultPlan(failure_rate=1.0)
        policy = DownloadPolicy(retry_budget=2, backoff_base_s=0.1)
        outcome = execute_download(
            FaultyNetwork(flat_trace, plan_f), _plan(), manifest8[0], 30.0,
            policy=policy,
            fault_plan=plan_f,
            start_wall_t=0.0,
            buffer_level_s=20.0,
            segment_index=0,
            unlimited_deadline=True,
        )
        # Every attempt completes corrupt; the budget is exhausted at
        # the FULL rung and the segment is skipped.
        assert outcome.skipped
        assert outcome.retries == policy.retry_budget
        assert outcome.failed_attempts == policy.retry_budget + 1
        # Wall time includes the backoff waits; radio time does not.
        assert outcome.elapsed_s > outcome.active_s > 0.0

    def test_retries_never_exceed_budget(self, flat_trace, manifest8):
        for budget in (0, 1, 3):
            plan_f = FaultPlan(failure_rate=1.0)
            outcome = execute_download(
                FaultyNetwork(flat_trace, plan_f), _plan(), manifest8[0],
                30.0,
                policy=DownloadPolicy(retry_budget=budget),
                fault_plan=plan_f,
                start_wall_t=0.0,
                buffer_level_s=5.0,
                segment_index=2,
            )
            assert outcome.retries <= budget

    def test_reduced_rung_is_smaller_and_slower(self, manifest8):
        from repro.resilience.policy import build_degradation_ladder

        seg = manifest8[0]
        plan = _plan(size_mbit=seg.full_frame_size_mbit(3))
        ladder = build_degradation_ladder(plan, seg, 30.0)
        (_, full), (_, reduced), (_, low) = ladder
        assert reduced.quality < full.quality
        assert reduced.total_size_mbit < full.total_size_mbit
        assert reduced.frame_rate <= 0.8 * 30.0
        assert low.quality == 1
        assert low.total_size_mbit == pytest.approx(
            seg.full_frame_size_mbit(1)
        )
        assert low.total_size_mbit < reduced.total_size_mbit

    def test_latency_spike_charges_wall_time(self, flat_trace, manifest8):
        plan_f = FaultPlan(latency_spikes=(LatencySpike(0.0, 30.0, 0.4),))
        outcome = execute_download(
            FaultyNetwork(flat_trace, plan_f), _plan(), manifest8[0], 30.0,
            policy=DownloadPolicy(),
            fault_plan=plan_f,
            start_wall_t=1.0,
            buffer_level_s=5.0,
            segment_index=1,
        )
        clean = flat_trace.download_time(4.0, 1.4)
        assert outcome.elapsed_s == pytest.approx(0.4 + clean)
        assert outcome.active_s == pytest.approx(clean)


class TestSessionIntegration:
    @pytest.fixture(scope="class")
    def session_inputs(self, manifest8, small_dataset, network_traces, device):
        _, trace2 = network_traces
        head = small_dataset.test_traces(8)[0]
        return manifest8, head, trace2, device

    def test_faults_off_resilient_path_matches_legacy(
        self, session_inputs, ptiles8
    ):
        manifest, head, trace, device = session_inputs
        legacy = run_session(
            PtileScheme(), manifest, head, trace, device, ptiles=ptiles8
        )
        # An idle plan plus a policy that can never time out or retry
        # must reproduce the ideal session byte for byte.
        benign = SessionConfig(
            fault_plan=FaultPlan(),
            download_policy=DownloadPolicy(
                retry_budget=0, timeout_slack_s=1e9
            ),
        )
        resilient = run_session(
            PtileScheme(), manifest, head, trace, device, ptiles=ptiles8,
            config=benign,
        )
        assert resilient == legacy

    def test_fault_session_is_deterministic(self, session_inputs, ptiles8):
        manifest, head, trace, device = session_inputs
        plan = generate_fault_plan("stress", 30.0, seed=13)
        config = SessionConfig(
            fault_plan=plan, download_policy=DownloadPolicy()
        )
        a = run_session(
            PtileScheme(), manifest, head, trace, device, ptiles=ptiles8,
            config=config,
        )
        b = run_session(
            PtileScheme(), manifest, head, trace, device, ptiles=ptiles8,
            config=config,
        )
        assert a == b

    def test_fault_session_invariants(self, session_inputs, ptiles8):
        manifest, head, trace, device = session_inputs
        plan = FaultPlan(
            outages=(Outage(4.0, 9.0),),
            latency_spikes=(LatencySpike(10.0, 14.0, 0.6),),
            failure_rate=0.2,
            seed=5,
        )
        policy = DownloadPolicy(retry_budget=2)
        result = run_session(
            PtileScheme(), manifest, head, trace, device, ptiles=ptiles8,
            config=SessionConfig(fault_plan=plan, download_policy=policy),
        )
        assert result.total_stall_s >= 0.0
        assert result.total_retries > 0 or result.total_timeouts > 0
        for record in result.records:
            assert record.wait_s >= 0.0
            assert record.download_time_s >= 0.0
            assert record.retries <= policy.retry_budget
            assert 0 <= record.degraded_level <= 3
        # Degraded segments below FULL carry the resilience markers the
        # ablation aggregates report.
        assert result.degraded_segment_count >= result.skipped_segment_count

    def test_skipped_segments_cost_no_decode_energy(
        self, session_inputs, ptiles8
    ):
        manifest, head, trace, device = session_inputs
        # A multi-minute outage right after startup forces skips.
        plan = FaultPlan(outages=(Outage(1.0, 300.0),))
        result = run_session(
            PtileScheme(), manifest, head, trace, device, ptiles=ptiles8,
            config=SessionConfig(
                fault_plan=plan,
                download_policy=DownloadPolicy(retry_budget=1),
            ),
        )
        skipped = [r for r in result.records if r.degraded_level >= 3]
        assert skipped
        for record in skipped:
            assert record.size_mbit == 0.0
            assert record.energy.decoding_j == 0.0
            assert record.energy.rendering_j == 0.0
            assert record.coverage == 0.0
            assert record.qo_effective == 0.0

    def test_edge_failure_stops_edge_hits(
        self, session_inputs, ptiles8, small_dataset
    ):
        from repro.streaming import build_edge_hit_model

        manifest, head, trace, device = session_inputs
        model = build_edge_hit_model(
            manifest, small_dataset.train_traces(8), ptiles8,
            capacity_mbit=4000.0,
        )
        alive = run_session(
            PtileScheme(), manifest, head, trace, device, ptiles=ptiles8,
            config=SessionConfig(
                edge_model=model,
                fault_plan=FaultPlan(),
                download_policy=DownloadPolicy(),
            ),
        )
        dead_early = run_session(
            PtileScheme(), manifest, head, trace, device, ptiles=ptiles8,
            config=SessionConfig(
                edge_model=model,
                fault_plan=FaultPlan(edge_fail_at_s=0.0),
                download_policy=DownloadPolicy(),
            ),
        )
        assert dead_early.total_edge_hit_mbit == 0.0
        if alive.total_edge_hit_mbit > 0:
            assert (
                alive.total_edge_hit_mbit > dead_early.total_edge_hit_mbit
            )


class TestSweepResilience:
    @pytest.fixture(scope="class")
    def tiny_setup(self):
        return make_setup(
            max_duration_s=20, n_users=4, n_train=3, seed=3, video_ids=(8,)
        )

    def test_serial_and_pooled_identical(self, tiny_setup):
        # Every profile family and default scheme: the pool must not
        # perturb the seeded fault overlays.
        kwargs = dict(
            profiles=("none", "outages", "lossy"), users=2, fault_seed=11,
        )
        serial = sweep_resilience(tiny_setup, workers=1, **kwargs)
        pooled = sweep_resilience(tiny_setup, workers=2, **kwargs)
        assert serial == pooled

    def test_cold_and_warm_results_cache_identical(self, tiny_setup, tmp_path):
        kwargs = dict(
            profiles=("lossy",), users=2, scheme_names=("ptile",),
        )
        cold_store = ArtifactStore(tmp_path)
        cold = sweep_resilience(tiny_setup, results=cold_store, **kwargs)
        sessions = cold_store.stats.misses["results"]
        warm_store = ArtifactStore(tmp_path)
        warm = sweep_resilience(tiny_setup, results=warm_store, **kwargs)
        assert cold == warm
        assert warm_store.stats.hits == {"results": sessions}
        assert warm_store.stats.misses.get("results") is None, (
            warm_store.stats.report()
        )

    def test_fault_profiles_inject_observable_faults(self, tiny_setup):
        """Faults show up only where injected: the ``none`` profile
        records none, and every faulted profile records some retries,
        timeouts, or degraded segments (over the default schemes)."""
        points = sweep_resilience(
            tiny_setup, profiles=("none", "outages", "lossy"), users=2,
            fault_seed=11,
        )
        counters = ("retries", "timeouts", "degraded", "skipped")
        by_profile: dict[str, list] = {}
        for point in points:
            by_profile.setdefault(point.label.split(":")[0], []).append(point)
        assert set(by_profile) == {"none", "outages", "lossy"}
        for point in by_profile["none"]:
            assert all(point.extra[c] == 0.0 for c in counters), point
        for profile in ("outages", "lossy"):
            assert any(
                point.extra["retries"] > 0 or point.extra["timeouts"] > 0
                or point.extra["degraded"] > 0
                for point in by_profile[profile]
            ), f"{profile} produced no observable faults"

    def test_none_profile_matches_fault_free_sessions(self, tiny_setup):
        points = sweep_resilience(
            tiny_setup, profiles=("none",), users=2, scheme_names=("ptile",),
        )
        (point,) = points
        from repro.power.models import PIXEL_3

        scheme = PtileScheme()
        sessions = [
            run_session(
                scheme,
                tiny_setup.manifest(8),
                user,
                tiny_setup.trace2,
                PIXEL_3,
                ptiles=tiny_setup.ptiles(8),
                config=tiny_setup.session_config,
            )
            for user in tiny_setup.dataset.test_traces(8)[:2]
        ]
        assert point.energy_per_segment_j == pytest.approx(
            float(np.mean([s.energy_per_segment_j for s in sessions]))
        )
        assert point.extra["retries"] == 0.0
        assert point.extra["skipped"] == 0.0

    def test_rejects_empty_and_unknown_inputs(self, tiny_setup):
        with pytest.raises(ValueError, match="profile"):
            sweep_resilience(tiny_setup, profiles=())
        with pytest.raises(ValueError, match="scheme"):
            sweep_resilience(tiny_setup, scheme_names=("mystery",))
        with pytest.raises(ValueError, match="available profiles"):
            sweep_resilience(tiny_setup, profiles=("wat",))


class TestFaultPlanCaching:
    def test_fault_plan_changes_results_key(self, tiny_setup=None):
        from repro.experiments.artifacts import structural_fingerprint

        base = SessionConfig()
        faulted = SessionConfig(
            fault_plan=generate_fault_plan("lossy", 30.0, seed=1),
            download_policy=DownloadPolicy(),
        )
        other_seed = SessionConfig(
            fault_plan=generate_fault_plan("lossy", 30.0, seed=2),
            download_policy=DownloadPolicy(),
        )
        prints = {
            structural_fingerprint(c) for c in (base, faulted, other_seed)
        }
        assert len(prints) == 3  # every variant lands in its own slot
