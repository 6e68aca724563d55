"""Unit tests for the MPC + DP optimizer (Section IV-C)."""

import numpy as np
import pytest

from repro.core import EnergyQoEMpc, MpcConfig, MpcWindow
from repro.power import EnergyModel, PIXEL_3

from .mpc_reference import choose_reference, decisions_from_columns

RATES = (21.0, 24.0, 27.0, 30.0)


def make_segment(base_size=1.0, alpha=5.0, qoe_top=90.0):
    """(sizes, qoe) of 5 qualities x 4 frame rates with plausible
    structure."""
    sizes = np.empty((5, 4))
    qoe = np.empty((5, 4))
    for vi in range(5):
        size_v = base_size * (1.6 ** vi)
        qo = qoe_top - (4 - vi) * 12.0
        for fi, rate in enumerate(RATES):
            sizes[vi, fi] = size_v * (1 - 0.6 * (1 - rate / 30.0))
            factor = (1 - np.exp(-alpha * rate / 30.0)) / (1 - np.exp(-alpha))
            qoe[vi, fi] = qo * factor
    return sizes, qoe


def make_window(n=5, **kwargs):
    """``n`` identical lookahead segments stacked into one window."""
    sizes, qoe = make_segment(**kwargs)
    return MpcWindow(
        sizes_mbit=np.repeat(sizes[None], n, axis=0),
        qoe=np.repeat(qoe[None], n, axis=0),
        frame_rates=RATES,
    )


@pytest.fixture
def mpc():
    return EnergyQoEMpc(EnergyModel(PIXEL_3), MpcConfig())


class TestMpcConfig:
    def test_paper_defaults(self):
        cfg = MpcConfig()
        assert cfg.horizon == 5
        assert cfg.buffer_granularity_s == 0.5
        assert cfg.qoe_tolerance == 0.05

    def test_state_levels(self):
        cfg = MpcConfig()
        levels = cfg.state_levels()
        assert levels[0] == 0.0
        assert levels[-1] == 3.0
        assert len(levels) == 7  # 500 ms granularity over [0, 3]

    def test_snap(self):
        cfg = MpcConfig()
        assert cfg.snap(0.0) == 0
        assert cfg.snap(1.26) == 3
        assert cfg.snap(99.0) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            MpcConfig(horizon=0)
        with pytest.raises(ValueError):
            MpcConfig(qoe_tolerance=1.0)
        with pytest.raises(ValueError):
            MpcConfig(buffer_granularity_s=0.0)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_segment_seconds(self, value):
        with pytest.raises(ValueError, match="segment_seconds"):
            MpcConfig(segment_seconds=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_bandwidth_safety(self, value):
        # A negative safety factor used to plan with negative download
        # times (and so negative transmission energy).
        with pytest.raises(ValueError, match="bandwidth_safety"):
            MpcConfig(bandwidth_safety=value)


class TestMpcWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            MpcWindow(np.ones((2, 5, 4)), np.ones((2, 5, 3)), RATES)
        with pytest.raises(ValueError):
            MpcWindow(np.zeros((2, 5, 4)), np.ones((2, 5, 4)), RATES)
        with pytest.raises(ValueError):
            MpcWindow(np.ones((2, 5, 3)), np.ones((2, 5, 3)), RATES)


class TestChoice:
    def test_returns_valid_decision(self, mpc):
        decision = mpc.choose(make_window(), 4.0, 3.0)
        assert 1 <= decision.quality <= 5
        assert 1 <= decision.frame_rate_index <= 4
        assert decision.frame_rate in RATES
        assert decision.planned_energy_j > 0

    def test_fast_switching_reduces_frame_rate(self, mpc):
        """Large alpha makes frame reduction QoE-free, so the energy
        minimizer takes it."""
        decision = mpc.choose(make_window(alpha=50.0), 4.0, 3.0)
        assert decision.frame_rate < 30.0

    def test_static_gaze_keeps_frame_rate(self, mpc):
        decision = mpc.choose(make_window(alpha=0.2), 4.0, 3.0)
        assert decision.frame_rate == 30.0

    def test_qoe_floor_respected(self, mpc):
        """The chosen version satisfies constraint (8c) against the
        sustainable-best version."""
        sizes, qoe = make_segment(alpha=3.0)
        bandwidth = 4.0 * 0.9  # after the safety discount
        decision = mpc.choose(make_window(alpha=3.0), 4.0, 3.0)
        vm = 0
        for v in range(5, 0, -1):
            if sizes[v - 1, 3] / bandwidth <= 1.0:
                vm = v
                break
        floor = 0.95 * qoe[vm - 1, 3]
        chosen = qoe[decision.quality - 1, decision.frame_rate_index - 1]
        assert chosen >= floor - 1e-9

    def test_no_stall_constraint(self, mpc):
        """With a tiny buffer, only small downloads are feasible."""
        decision = mpc.choose(make_window(), 4.0, 0.5)
        size = make_segment()[0][
            decision.quality - 1, decision.frame_rate_index - 1
        ]
        assert size / (4.0 * 0.9) <= 0.5 + 1e-9 or decision.quality == 1

    def test_higher_bandwidth_higher_quality(self, mpc):
        low = mpc.choose(make_window(), 1.0, 3.0)
        high = mpc.choose(make_window(), 20.0, 3.0)
        assert high.quality >= low.quality

    def test_cold_start_relaxes_to_lowest(self, mpc):
        decision = mpc.choose(make_window(base_size=10.0), 1.0, 0.0)
        assert decision.quality == 1

    def test_energy_minimal_among_feasible(self, mpc):
        """With one segment and saturated QoE, the cheapest version wins."""
        sizes, qoe = make_segment(alpha=50.0, qoe_top=90.0)
        # Make all qualities equal-QoE so only energy matters.
        flat = MpcWindow(
            sizes_mbit=sizes[None],
            qoe=np.full_like(qoe, 90.0)[None],
            frame_rates=RATES,
        )
        mpc1 = EnergyQoEMpc(EnergyModel(PIXEL_3), MpcConfig(horizon=1))
        decision = mpc1.choose(flat, 10.0, 3.0)
        assert decision.quality == 1
        assert decision.frame_rate == 21.0

    def test_horizon_truncates(self, mpc):
        decision = mpc.choose(make_window(10), 4.0, 3.0)
        assert decision.planned_energy_j > 0

    def test_short_lookahead_ok(self, mpc):
        decision = mpc.choose(make_window(1), 4.0, 3.0)
        assert 1 <= decision.quality <= 5

    def test_validation(self, mpc):
        with pytest.raises(ValueError):
            mpc.choose_batch(np.ones((1, 0, 5, 4)), np.ones((1, 0, 5, 4)),
                             RATES, np.array([4.0]), np.array([3.0]))
        with pytest.raises(ValueError):
            mpc.choose(make_window(1), 0.0, 3.0)

    def test_complexity_is_bounded(self, mpc):
        """O(H V F) per state: a long horizon stays fast."""
        import time

        start = time.perf_counter()
        for _ in range(50):
            mpc.choose(make_window(), 4.0, 3.0)
        assert time.perf_counter() - start < 2.0


class TestChooseBatch:
    """The batched DP must be bit-identical to the scalar oracle."""

    @staticmethod
    def _windows(rng, batch, horizon):
        """Stacked windows with exact ties injected: duplicated lookahead
        segments, coarsely rounded values, and buffer levels sitting on
        state boundaries all force the tie-breaking paths."""
        sizes = np.empty((batch, horizon, 5, 4))
        qoe = np.empty((batch, horizon, 5, 4))
        for b in range(batch):
            for h in range(horizon):
                seg_sizes, seg_qoe = make_segment(
                    base_size=float(rng.choice([0.5, 1.0, 1.0, 2.0])),
                    alpha=float(rng.choice([2.0, 5.0, 5.0, 9.0])),
                    qoe_top=float(rng.choice([60.0, 90.0, 90.0])),
                )
                sizes[b, h] = np.round(seg_sizes, 1)
                qoe[b, h] = np.round(seg_qoe, 0)
            if horizon > 1 and rng.random() < 0.5:
                sizes[b, 1:] = sizes[b, 0]  # identical lookahead rows
                qoe[b, 1:] = qoe[b, 0]
        bandwidths = rng.choice([2.0, 4.0, 8.0, 20.0], size=batch)
        buffers = rng.choice([0.0, 0.5, 1.25, 2.0, 3.0], size=batch)
        return sizes, qoe, bandwidths.astype(float), buffers.astype(float)

    def test_matches_scalar_choose(self, mpc):
        rng = np.random.default_rng(20260808)
        for _ in range(12):
            batch = int(rng.integers(1, 9))
            horizon = int(rng.integers(1, 6))
            sizes, qoe, bw, buf = self._windows(rng, batch, horizon)
            decisions = decisions_from_columns(
                mpc.choose_batch(sizes, qoe, RATES, bw, buf), RATES
            )
            assert len(decisions) == batch
            for b, got in enumerate(decisions):
                window = MpcWindow(
                    sizes_mbit=sizes[b], qoe=qoe[b], frame_rates=RATES
                )
                want = choose_reference(
                    mpc, window, float(bw[b]), float(buf[b])
                )
                assert (got.quality, got.frame_rate_index) == (
                    want.quality, want.frame_rate_index
                ), f"row {b}: batch={got} scalar={want}"
                assert got.frame_rate == want.frame_rate
                assert got.planned_energy_j == want.planned_energy_j

    @pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("batch", [1, 2, 63, 64, 65, 130])
    def test_block_boundary_matches_reference(self, mpc, batch, horizon):
        """Every row of a batch, on either side of the solver's 64-row
        block boundary, equals the scalar oracle on tie-heavy windows."""
        rng = np.random.default_rng([batch, horizon])
        sizes, qoe, bw, buf = self._windows(rng, batch, horizon)
        decisions = decisions_from_columns(
            mpc.choose_batch(sizes, qoe, RATES, bw, buf), RATES
        )
        assert len(decisions) == batch
        for b, got in enumerate(decisions):
            window = MpcWindow(
                sizes_mbit=sizes[b], qoe=qoe[b], frame_rates=RATES
            )
            want = choose_reference(mpc, window, float(bw[b]), float(buf[b]))
            assert got == want, f"row {b} of {batch}"

    def test_validation(self, mpc):
        sizes = np.ones((2, 3, 5, 4))
        qoe = np.ones((2, 3, 5, 4))
        with pytest.raises(ValueError):
            mpc.choose_batch(sizes[0], qoe[0], RATES,
                             np.array([4.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            mpc.choose_batch(sizes, qoe, RATES,
                             np.array([4.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            mpc.choose_batch(sizes, qoe, RATES,
                             np.array([4.0]), np.array([1.0, 1.0]))

    # Input checks the solver carries as the only DP entry point; each
    # input below used to be solved (or fail misleadingly) instead.

    def test_rejects_empty_horizon(self, mpc):
        with pytest.raises(ValueError, match="lookahead segment"):
            mpc.choose_batch(np.ones((1, 0, 5, 4)), np.ones((1, 0, 5, 4)),
                             RATES, np.array([4.0]), np.array([1.0]))

    def test_rejects_frame_rate_axis_mismatch(self, mpc):
        with pytest.raises(ValueError, match="frame-rate axis"):
            mpc.choose_batch(np.ones((1, 3, 5, 4)), np.ones((1, 3, 5, 4)),
                             (30.0,), np.array([4.0]), np.array([1.0]))

    def test_rejects_nonpositive_sizes(self, mpc):
        with pytest.raises(ValueError, match="sizes must be positive"):
            mpc.choose_batch(np.zeros((1, 3, 5, 4)), np.ones((1, 3, 5, 4)),
                             RATES, np.array([4.0]), np.array([1.0]))

    def test_rejects_nan_buffer(self, mpc):
        with pytest.raises(ValueError, match="buffer"):
            mpc.choose_batch(np.ones((2, 3, 5, 4)), np.ones((2, 3, 5, 4)),
                             RATES, np.array([4.0, 4.0]),
                             np.array([1.0, np.nan]))

    def test_rejects_nan_bandwidth(self, mpc):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            mpc.choose_batch(np.ones((2, 3, 5, 4)), np.ones((2, 3, 5, 4)),
                             RATES, np.array([4.0, np.nan]),
                             np.array([1.0, 1.0]))

    def test_huge_buffer_snaps_to_top_state(self, mpc):
        # The state index is clipped before the integer cast, which
        # would otherwise overflow.
        sizes, qoe = make_segment()
        huge, top = decisions_from_columns(mpc.choose_batch(
            np.stack([sizes[None]] * 2), np.stack([qoe[None]] * 2), RATES,
            np.array([4.0, 4.0]), np.array([1e300, 3.0]),
        ), RATES)
        assert huge == top
