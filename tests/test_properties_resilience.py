"""Property-based tests (hypothesis) for the resilience subsystem.

Random fault plans and policies must never break the session-level
invariants: stalls are non-negative, the wall clock only moves forward,
retries respect the budget, and identical seeds reproduce identical
results byte for byte.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.power.models import PIXEL_3, TilingScheme
from repro.resilience import (
    CollapseWindow,
    DownloadPolicy,
    FaultPlan,
    LatencySpike,
    Outage,
    execute_download,
    generate_fault_plan,
)
from repro.streaming import DownloadPlan, PtileScheme, SessionConfig, run_session
from repro.traces import NetworkTrace


@st.composite
def fault_plans(draw):
    """Arbitrary-but-valid fault plans over a ~30 s session."""
    def windows(maker):
        out = []
        for _ in range(draw(st.integers(0, 2))):
            start = draw(st.floats(0.0, 25.0))
            length = draw(st.floats(0.3, 6.0))
            out.append(maker(start, start + length))
        return tuple(out)

    return FaultPlan(
        name="hyp",
        seed=draw(st.integers(0, 2**20)),
        outages=windows(Outage),
        collapses=windows(
            lambda s, e: CollapseWindow(s, e, draw(st.floats(0.05, 0.95)))
        ),
        latency_spikes=windows(
            lambda s, e: LatencySpike(s, e, draw(st.floats(0.05, 1.5)))
        ),
        failure_rate=draw(st.floats(0.0, 0.5)),
        edge_fail_at_s=draw(st.none() | st.floats(0.0, 30.0)),
    )


policies = st.builds(
    DownloadPolicy,
    retry_budget=st.integers(0, 3),
    backoff_base_s=st.floats(0.0, 0.5),
    timeout_slack_s=st.floats(0.0, 2.0),
    min_timeout_s=st.floats(0.1, 1.0),
)


def _flat_trace():
    return NetworkTrace(name="flat", bandwidth_mbps=np.full(40, 5.0))


def _plan(size_mbit: float) -> DownloadPlan:
    return DownloadPlan(
        scheme_name="hyp",
        quality=3,
        frame_rate=30.0,
        total_size_mbit=size_mbit,
        decode_scheme=TilingScheme.PTILE,
    )


class TestDownloadEngineProperties:
    @given(
        plan_f=fault_plans(),
        policy=policies,
        size=st.floats(0.5, 20.0),
        start=st.floats(0.0, 25.0),
        buffer_s=st.floats(0.0, 5.0),
        segment=st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_outcome_invariants(
        self, plan_f, policy, size, start, buffer_s, segment
    ):
        trace = _flat_trace()
        seg = _FakeSegment()
        outcome = execute_download(
            trace, _plan(size), seg, 30.0,
            policy=policy,
            fault_plan=plan_f,
            start_wall_t=start,
            buffer_level_s=buffer_s,
            segment_index=segment,
        )
        assert outcome.retries <= policy.retry_budget
        assert outcome.elapsed_s >= outcome.active_s >= 0.0
        assert 0 <= int(outcome.level) <= 3
        assert outcome.plan.total_size_mbit >= 0.0
        if outcome.skipped:
            assert outcome.plan.total_size_mbit == 0.0
            assert outcome.edge_hit_mbit == 0.0

    @given(
        plan_f=fault_plans(),
        policy=policies,
        size=st.floats(0.5, 20.0),
        start=st.floats(0.0, 25.0),
        segment=st.integers(0, 40),
    )
    @settings(max_examples=30, deadline=None)
    def test_engine_is_deterministic(self, plan_f, policy, size, start, segment):
        trace = _flat_trace()
        seg = _FakeSegment()
        runs = [
            execute_download(
                trace, _plan(size), seg, 30.0,
                policy=policy,
                fault_plan=plan_f,
                start_wall_t=start,
                buffer_level_s=2.0,
                segment_index=segment,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class _FakeSegment:
    """Minimal stand-in exposing the rate-law hook the ladder needs."""

    def full_frame_size_mbit(self, quality: float) -> float:
        return 2.0 * float(quality)


class TestSessionProperties:
    @given(
        plan_f=fault_plans(),
        retry_budget=st.integers(0, 3),
        slack=st.floats(0.0, 2.0),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_session_invariants_under_random_faults(
        self,
        manifest8,
        small_dataset,
        network_traces,
        plan_f,
        retry_budget,
        slack,
    ):
        _, trace2 = network_traces
        head = small_dataset.test_traces(8)[0]
        policy = DownloadPolicy(
            retry_budget=retry_budget, timeout_slack_s=slack
        )
        config = SessionConfig(
            fault_plan=plan_f, download_policy=policy, max_segments=12
        )
        result = run_session(
            PtileScheme(), manifest8, head, trace2, PIXEL_3, config=config
        )
        # Stall time can never go negative.
        assert result.total_stall_s >= 0.0
        # The wall clock only moves forward: every per-segment wait and
        # download contributes non-negative time, so the cumulative
        # segment timestamps are monotone.
        for record in result.records:
            assert record.wait_s >= 0.0
            assert record.download_time_s >= 0.0
            assert record.stall_s >= 0.0
            # Retries never exceed the configured budget.
            assert record.retries <= retry_budget
        # Identical seeds/plans reproduce identical results.
        again = run_session(
            PtileScheme(), manifest8, head, trace2, PIXEL_3, config=config
        )
        assert again == result

    @given(seed=st.integers(0, 2**16), profile=st.sampled_from(
        ["outages", "spikes", "collapse", "lossy", "stress"]
    ))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_profile_seeds_reproduce_sessions(
        self, manifest8, small_dataset, network_traces, seed, profile
    ):
        _, trace2 = network_traces
        head = small_dataset.test_traces(8)[1]
        config = SessionConfig(
            fault_plan=generate_fault_plan(profile, 12.0, seed=seed),
            download_policy=DownloadPolicy(),
            max_segments=12,
        )
        a = run_session(
            PtileScheme(), manifest8, head, trace2, PIXEL_3, config=config
        )
        b = run_session(
            PtileScheme(), manifest8, head, trace2, PIXEL_3, config=config
        )
        assert a == b
        assert a.total_stall_s >= 0.0
