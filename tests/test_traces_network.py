"""Unit tests for LTE network traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import CollapseWindow, FaultPlan, Outage
from repro.traces import NetworkTrace, generate_lte_trace, paper_traces


class TestNetworkTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkTrace("x", np.array([]))
        with pytest.raises(ValueError):
            NetworkTrace("x", np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            NetworkTrace("x", np.array([1.0]), bin_seconds=0.0)

    def test_zero_bins_allowed(self):
        # Outage seconds (zero bandwidth) are legal trace content.
        trace = NetworkTrace("x", np.array([0.0, 2.0]))
        assert trace.bandwidth_at(0.5) == 0.0
        assert trace.bandwidth_at(1.5) == 2.0

    def test_next_positive_bandwidth(self):
        trace = NetworkTrace("x", np.array([0.0, 0.0, 3.0, 1.0]))
        assert trace.next_positive_bandwidth(0.0) == 3.0
        assert trace.next_positive_bandwidth(2.5) == 3.0
        assert trace.next_positive_bandwidth(3.0) == 1.0
        # Positive traces: identical to bandwidth_at.
        positive = NetworkTrace("x", np.array([1.0, 2.0]))
        assert positive.next_positive_bandwidth(1.2) == positive.bandwidth_at(1.2)
        dead = NetworkTrace("dead", np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            dead.next_positive_bandwidth(0.0)

    def test_bandwidth_at(self):
        trace = NetworkTrace("x", np.array([1.0, 2.0, 4.0]))
        assert trace.bandwidth_at(0.5) == 1.0
        assert trace.bandwidth_at(1.0) == 2.0
        assert trace.bandwidth_at(2.9) == 4.0

    def test_cyclic_wrap(self):
        trace = NetworkTrace("x", np.array([1.0, 2.0]))
        assert trace.bandwidth_at(2.5) == 1.0
        assert trace.bandwidth_at(3.0) == 2.0

    def test_negative_time_rejected(self):
        trace = NetworkTrace("x", np.array([1.0]))
        with pytest.raises(ValueError):
            trace.bandwidth_at(-0.1)

    def test_stats(self):
        trace = NetworkTrace("x", np.array([1.0, 3.0]))
        assert trace.mean_mbps == 2.0
        assert trace.min_mbps == 1.0
        assert trace.max_mbps == 3.0
        assert trace.duration_s == 2.0


class TestDownloadTime:
    def test_within_one_bin(self):
        trace = NetworkTrace("x", np.array([4.0, 4.0]))
        assert trace.download_time(2.0, 0.0) == pytest.approx(0.5)

    def test_zero_size(self):
        trace = NetworkTrace("x", np.array([4.0]))
        assert trace.download_time(0.0, 1.0) == 0.0

    def test_crosses_bins(self):
        trace = NetworkTrace("x", np.array([1.0, 3.0]))
        # 1 Mbit in bin 0 (1 s), then 1.5 Mbit at 3 Mbps (0.5 s).
        assert trace.download_time(2.5, 0.0) == pytest.approx(1.5)

    def test_mid_bin_start(self):
        trace = NetworkTrace("x", np.array([2.0, 4.0]))
        # From t=0.5: 1 Mbit in the remaining half of bin 0, then 2 Mbit
        # at 4 Mbps.
        assert trace.download_time(3.0, 0.5) == pytest.approx(1.0)

    def test_wraps_cyclically(self):
        trace = NetworkTrace("x", np.array([1.0]))
        assert trace.download_time(5.0, 0.0) == pytest.approx(5.0)

    def test_validation(self):
        trace = NetworkTrace("x", np.array([1.0]))
        with pytest.raises(ValueError):
            trace.download_time(-1.0, 0.0)
        with pytest.raises(ValueError):
            trace.download_time(1.0, -0.5)

    def test_zero_bin_stalls_then_completes(self):
        trace = NetworkTrace("x", np.array([0.0, 2.0]))
        # Bin 0 delivers nothing; 1 Mbit then takes 0.5 s of bin 1.
        assert trace.download_time(1.0, 0.0) == pytest.approx(1.5)

    def test_all_zero_trace_raises(self):
        dead = NetworkTrace("dead", np.array([0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="zero bandwidth everywhere"):
            dead.download_time(1.0, 0.0)
        # Zero payload still completes instantly.
        assert dead.download_time(0.0, 0.0) == 0.0

    def test_all_zero_trace_bounded_download_times_out(self):
        dead = NetworkTrace("dead", np.array([0.0, 0.0]))
        delivered, elapsed, completed = dead.download_within(4.0, 0.0, 3.0)
        assert delivered == 0.0
        assert elapsed == 3.0
        assert not completed

    def test_consistency_with_mean_throughput(self):
        rng = np.random.default_rng(1)
        trace = NetworkTrace("x", rng.uniform(2, 8, 30))
        size = 12.0
        dl = trace.download_time(size, 3.3)
        realized = size / dl
        assert trace.min_mbps <= realized <= trace.max_mbps


# Zero bins mid-trace and a 7-s cycle that long downloads wrap around.
_GAPPY = NetworkTrace("gappy", np.array([3.0, 0.0, 0.0, 5.5, 0.7, 0.0, 2.2]))

_sizes = st.one_of(st.just(0.0), st.floats(0.0, 40.0))
_starts = st.one_of(st.integers(0, 30).map(float), st.floats(0.0, 30.0))
_budgets = st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 50.0))
_windows = st.tuples(st.floats(0.0, 30.0), st.floats(0.05, 8.0))
_fault_plans = st.builds(
    lambda outages, collapses: FaultPlan(
        outages=tuple(Outage(t0, t0 + span) for t0, span in outages),
        collapses=tuple(CollapseWindow(t0, t0 + span, factor)
                        for (t0, span), factor in collapses),
    ),
    st.lists(_windows, max_size=3),
    st.lists(st.tuples(_windows, st.floats(0.05, 0.95)), max_size=4),
)


class TestWalkParity:
    """Bit-for-bit agreement of the one scalar bin walk, its unbounded
    and fault-free cases and its columnar twin."""

    @given(pairs=st.lists(st.tuples(_sizes, _starts), min_size=5,
                          max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_download_times_is_the_scalar_walk(self, pairs):
        sizes = np.array([size for size, _ in pairs])
        starts = np.array([start for _, start in pairs])
        expected = [_GAPPY.download_time(size, start) for size, start in pairs]
        elapsed, completed = _GAPPY.download_times(
            sizes, starts, np.full(sizes.size, math.inf)
        )
        assert elapsed.tolist() == expected
        assert completed.all()

    def test_download_times_edge_rows(self):
        # Zero-size rows, starts on bin edges, a start inside an empty
        # bin and one download longer than the whole cycle.
        sizes = np.array([0.0, 3.0, 0.0, 2.0, 60.0, 1.1, 0.0])
        starts = np.array([0.0, 1.0, 3.0, 5.0, 6.0, 7.0, 12.5])
        expected = [_GAPPY.download_time(size, start)
                    for size, start in zip(sizes.tolist(), starts.tolist())]
        elapsed, _ = _GAPPY.download_times(sizes, starts,
                                           np.full(7, math.inf))
        assert elapsed.tolist() == expected

    def test_download_times_on_a_dead_trace(self):
        # As the scalar walk: nothing to fetch takes no time, a bounded
        # row times out with its whole budget, and an unbounded row can
        # never arrive.
        dead = NetworkTrace("dead", np.zeros(3))
        starts = np.arange(5.0)
        unbounded = np.full(5, math.inf)
        elapsed, completed = dead.download_times(np.zeros(5), starts,
                                                 unbounded)
        assert elapsed.tolist() == [0.0] * 5 and completed.all()
        sizes = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="zero bandwidth everywhere"):
            dead.download_times(sizes, starts, unbounded)
        budgets = np.array([0.0, 2.0, 0.0, 1.5, 3.0])
        for n in (3, 5):  # the scalar walk and the columns
            got = dead.download_times(sizes[:n] + 1.0, starts[:n],
                                      budgets[:n])
            assert [g.tolist() for g in got] == [budgets[:n].tolist(),
                                                 [False] * n]

    @given(rows=st.lists(st.tuples(_sizes, _starts, _budgets), min_size=1,
                         max_size=12),
           plan=_fault_plans, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_bounded_faulty_walk_is_download_within(self, rows, plan, data):
        # Some rows start exactly on a fault boundary.
        edges = st.sampled_from((0.0, *plan._boundaries))
        rows = [(size, data.draw(edges) if data.draw(st.booleans())
                 else start, budget) for size, start, budget in rows]
        sizes, starts, budgets = (np.array(col) for col in zip(*rows))
        elapsed, completed = _GAPPY.download_times(sizes, starts, budgets,
                                                   plan)
        for i, (size, start, budget) in enumerate(rows):
            _, want_elapsed, want_completed = _GAPPY.download_within(
                size, start, budget, plan
            )
            assert elapsed[i] == want_elapsed
            assert completed[i] == want_completed

    def test_faulty_walk_edge_rows(self):
        # Stacked collapses, an outage across a bin edge, starts on fault
        # boundaries, zero and infinite budgets: the columns (7 rows)
        # against the scalar walk row by row.
        plan = FaultPlan(
            outages=(Outage(2.5, 4.0),),
            collapses=(CollapseWindow(0.5, 6.0, 0.5),
                       CollapseWindow(1.0, 2.5, 0.3)),
        )
        sizes = np.array([4.0, 4.0, 0.0, 3.0, 9.0, 1e-13, 2.0])
        starts = np.array([0.5, 2.5, 4.0, 1.0, 6.0, 0.0, 4.0])
        budgets = np.array([math.inf, 3.0, 0.0, 0.0, math.inf, 1.0, 0.25])
        elapsed, completed = _GAPPY.download_times(sizes, starts, budgets,
                                                   plan)
        for i in range(sizes.size):
            _, want_elapsed, want_completed = _GAPPY.download_within(
                sizes[i], starts[i], budgets[i], plan
            )
            assert (elapsed[i], completed[i]) == (want_elapsed,
                                                  want_completed)
        assert completed.tolist() == [True, False, True, False, True, True,
                                      False]

    @given(size=_sizes, start=_starts)
    @settings(max_examples=200, deadline=None)
    def test_unbounded_walk_is_download_time(self, size, start):
        delivered, elapsed, completed = _GAPPY.download_within(
            size, start, math.inf
        )
        assert elapsed == _GAPPY.download_time(size, start)
        assert completed and delivered == size

    @given(size=_sizes, start=_starts, budget=st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_idle_fault_plan_is_no_plan(self, size, start, budget):
        assert _GAPPY.download_within(size, start, budget, FaultPlan()) == (
            _GAPPY.download_within(size, start, budget)
        )


class TestScaling:
    def test_scaled_values(self):
        trace = NetworkTrace("x", np.array([1.0, 2.0]))
        doubled = trace.scaled(2.0)
        assert np.allclose(doubled.bandwidth_mbps, [2.0, 4.0])

    def test_scaled_name(self):
        trace = NetworkTrace("x", np.array([1.0]))
        assert trace.scaled(2.0).name == "xx2"
        assert trace.scaled(2.0, name="t1").name == "t1"

    def test_invalid_factor(self):
        trace = NetworkTrace("x", np.array([1.0]))
        with pytest.raises(ValueError):
            trace.scaled(0.0)


class TestGeneratedTraces:
    def test_trace2_statistics(self):
        trace = generate_lte_trace(600)
        assert trace.mean_mbps == pytest.approx(3.9, abs=0.05)
        assert trace.min_mbps == pytest.approx(2.3, abs=0.01)
        assert trace.max_mbps == pytest.approx(8.4, abs=0.01)

    def test_paper_pair_relation(self):
        t1, t2 = paper_traces(400)
        assert np.allclose(t1.bandwidth_mbps, 2.0 * t2.bandwidth_mbps)
        assert t1.name == "trace1"
        assert t2.name == "trace2"

    def test_deterministic(self):
        a = generate_lte_trace(200, seed=5)
        b = generate_lte_trace(200, seed=5)
        assert np.allclose(a.bandwidth_mbps, b.bandwidth_mbps)

    def test_seed_changes_trace(self):
        a = generate_lte_trace(200, seed=5)
        b = generate_lte_trace(200, seed=6)
        assert not np.allclose(a.bandwidth_mbps, b.bandwidth_mbps)

    def test_varies_over_time(self):
        trace = generate_lte_trace(300)
        assert np.std(trace.bandwidth_mbps) > 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_lte_trace(5)
        with pytest.raises(ValueError):
            generate_lte_trace(100, mean_mbps=1.0, min_mbps=2.0, max_mbps=8.0)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        trace = generate_lte_trace(50)
        path = tmp_path / "net.csv"
        trace.to_csv(path)
        loaded = NetworkTrace.from_csv(path)
        assert np.allclose(loaded.bandwidth_mbps, trace.bandwidth_mbps, atol=1e-5)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1.0\n")
        with pytest.raises(ValueError):
            NetworkTrace.from_csv(path)
