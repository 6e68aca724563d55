"""DP-parity regression: the dense MPC solver == scalar reference.

``EnergyQoEMpc.choose_batch`` (the production DP; ``choose`` is its
one-row form) must return decisions bit-identical to
``choose_reference`` (the original scalar dynamic program, kept in
``tests/mpc_reference.py``) — same (v, f), same planned energy to the
last ulp — across randomized lookahead windows, bandwidths, buffer
levels, and batch sizes.  Anything less means the vectorization changed
experiment results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.optimizer import EnergyQoEMpc, MpcConfig, MpcWindow
from repro.power import PIXEL_3
from repro.power.energy import EnergyModel
from repro.video.framerate import DEFAULT_LADDER

from .mpc_reference import choose_reference


def random_window(
    rng: np.random.Generator, rates: tuple[float, ...], n_segments: int
) -> MpcWindow:
    """A plausible lookahead window: sizes and QoE grow with quality."""
    v_count = int(rng.integers(2, 6))
    sizes = np.empty((n_segments, v_count, len(rates)))
    qoe = np.empty((n_segments, v_count, len(rates)))
    rate_factor = 0.7 + 0.3 * np.asarray(rates) / max(rates)
    for h in range(n_segments):
        base_sizes = np.sort(rng.lognormal(mean=1.0, sigma=0.8, size=v_count))
        sizes[h] = base_sizes[:, None] * rate_factor[None, :]
        base_qoe = np.sort(rng.uniform(1.0, 5.0, size=v_count))
        qoe_factor = np.sort(rng.uniform(0.6, 1.0, size=len(rates)))
        qoe[h] = base_qoe[:, None] * qoe_factor[None, :]
    return MpcWindow(sizes_mbit=sizes, qoe=qoe, frame_rates=rates)


def assert_same(got, want, context: str = "") -> None:
    assert (got.quality, got.frame_rate_index) == (
        want.quality,
        want.frame_rate_index,
    ), f"decision mismatch {context}: got={got} want={want}"
    assert got.frame_rate == want.frame_rate
    # Bit-identical, not approximately equal: the dense solver must
    # preserve the reference's floating-point operation order.
    assert got.planned_energy_j == want.planned_energy_j


def assert_same_decision(mpc, window, bandwidth, buffer_s):
    assert_same(
        mpc.choose(window, bandwidth, buffer_s),
        choose_reference(mpc, window, bandwidth, buffer_s),
        f"at bw={bandwidth}, buffer={buffer_s}",
    )


class TestDpParity:
    def test_randomized_windows(self):
        rng = np.random.default_rng(20220360)
        rates = DEFAULT_LADDER.rates()
        mpc = EnergyQoEMpc(EnergyModel(PIXEL_3, 1.0))
        for _ in range(200):
            window = random_window(rng, rates, int(rng.integers(1, 6)))
            bandwidth = float(10 ** rng.uniform(-1.0, 2.0))
            buffer_s = float(rng.uniform(0.0, 3.0))
            assert_same_decision(mpc, window, bandwidth, buffer_s)

    def test_starved_bandwidth_fallback_branch(self):
        # Bandwidth so low nothing is sustainable: the vm == 0 fallback
        # (lowest bitrate, own frame-rate ladder) must agree too.
        rng = np.random.default_rng(7)
        rates = DEFAULT_LADDER.rates()
        mpc = EnergyQoEMpc(EnergyModel(PIXEL_3, 1.0))
        for _ in range(50):
            window = random_window(rng, rates, 3)
            assert_same_decision(mpc, window, 0.05, float(rng.uniform(0.0, 3.0)))

    def test_single_rate_ladder(self):
        rng = np.random.default_rng(11)
        mpc = EnergyQoEMpc(EnergyModel(PIXEL_3, 1.0))
        for _ in range(50):
            window = random_window(rng, (30.0,), 4)
            assert_same_decision(
                mpc, window, float(10 ** rng.uniform(0.0, 1.5)), 1.5
            )

    def test_nonstandard_config(self):
        rng = np.random.default_rng(13)
        rates = DEFAULT_LADDER.rates()
        config = MpcConfig(
            horizon=3,
            buffer_granularity_s=0.25,
            buffer_threshold_s=4.0,
            qoe_tolerance=0.15,
        )
        mpc = EnergyQoEMpc(EnergyModel(PIXEL_3, 1.0), config)
        for _ in range(100):
            window = random_window(rng, rates, int(rng.integers(1, 5)))
            bandwidth = float(10 ** rng.uniform(-0.5, 2.0))
            assert_same_decision(
                mpc, window, bandwidth, float(rng.uniform(0.0, 4.0))
            )

    def test_repeated_calls_are_stable(self):
        # The per-rate energy cache must not perturb later decisions.
        rng = np.random.default_rng(17)
        rates = DEFAULT_LADDER.rates()
        mpc = EnergyQoEMpc(EnergyModel(PIXEL_3, 1.0))
        window = random_window(rng, rates, 5)
        first = mpc.choose(window, 25.0, 2.0)
        for _ in range(3):
            again = mpc.choose(window, 25.0, 2.0)
            assert (again.quality, again.frame_rate_index, again.planned_energy_j) == (
                first.quality,
                first.frame_rate_index,
                first.planned_energy_j,
            )

    def test_validation_matches_reference(self):
        mpc = EnergyQoEMpc(EnergyModel(PIXEL_3, 1.0))
        rates = DEFAULT_LADDER.rates()
        # An empty window is rejected by the window and by the solver.
        with pytest.raises(ValueError):
            MpcWindow(np.ones((0, 3, len(rates))), np.ones((0, 3, len(rates))),
                      rates)
        with pytest.raises(ValueError):
            mpc.choose_batch(np.ones((1, 0, 3, len(rates))),
                             np.ones((1, 0, 3, len(rates))), rates,
                             np.array([10.0]), np.array([1.0]))
        window = random_window(np.random.default_rng(1), rates, 2)
        with pytest.raises(ValueError):
            mpc.choose(window, 0.0, 1.0)
        with pytest.raises(ValueError):
            choose_reference(mpc, window, 0.0, 1.0)


class TestBatchedWindowParity:
    """The stacked MpcWindow path must equal the scalar oracle."""

    def test_randomized_windows_across_durations_and_horizons(self):
        # Property test over the axes that shape the DP: segment
        # duration (buffer dynamics), horizon 1..5, short tail windows
        # (video end), and the full bandwidth/buffer range.
        rng = np.random.default_rng(20260360)
        rates = DEFAULT_LADDER.rates()
        for _ in range(200):
            seg_s = float(rng.choice([0.5, 1.0, 2.0]))
            horizon = int(rng.integers(1, 6))
            config = MpcConfig(horizon=horizon, segment_seconds=seg_s)
            mpc = EnergyQoEMpc(EnergyModel(PIXEL_3, seg_s), config)
            # Window lengths both short of and beyond the horizon.
            n = int(rng.integers(1, horizon + 3))
            window = random_window(rng, rates, n)
            bandwidth = float(10 ** rng.uniform(-1.0, 2.0))
            buffer_s = float(rng.uniform(0.0, 3.0))
            assert_same_decision(mpc, window, bandwidth, buffer_s)

    def test_batch_rows_equal_single_row_choose(self):
        # A row's decision must not depend on the batch it rides in:
        # choose_batch over many rows equals choose on each row alone.
        rng = np.random.default_rng(42)
        rates = DEFAULT_LADDER.rates()
        mpc = EnergyQoEMpc(EnergyModel(PIXEL_3, 1.0))
        windows = []
        while len(windows) < 50:
            window = random_window(rng, rates, 4)
            if window.num_qualities == 4:
                windows.append(window)
        bandwidths = 10 ** rng.uniform(-0.5, 1.5, size=len(windows))
        buffers = rng.uniform(0.0, 3.0, size=len(windows))
        decisions = mpc.choose_batch(
            np.stack([w.sizes_mbit for w in windows]),
            np.stack([w.qoe for w in windows]),
            rates, bandwidths, buffers,
        )
        for b, window in enumerate(windows):
            assert_same(
                decisions[b],
                mpc.choose(window, float(bandwidths[b]), float(buffers[b])),
                f"row {b}",
            )

    def test_cold_start_nothing_stall_free(self):
        # Empty buffer and starved bandwidth: the vm == 0 relaxation
        # (lowest bitrate, own ladder) must agree in the batched path.
        rng = np.random.default_rng(99)
        rates = DEFAULT_LADDER.rates()
        for seg_s in (0.5, 1.0, 2.0):
            mpc = EnergyQoEMpc(
                EnergyModel(PIXEL_3, seg_s), MpcConfig(segment_seconds=seg_s)
            )
            for _ in range(25):
                window = random_window(rng, rates, int(rng.integers(1, 6)))
                assert_same_decision(mpc, window, 0.05, 0.0)

    def test_window_validation(self):
        rates = DEFAULT_LADDER.rates()
        with pytest.raises(ValueError):
            MpcWindow(
                sizes_mbit=np.ones((2, 3)), qoe=np.ones((2, 3)),
                frame_rates=rates,
            )
        with pytest.raises(ValueError):
            MpcWindow(
                sizes_mbit=np.ones((2, 3, 2)), qoe=np.ones((2, 3, 2)),
                frame_rates=rates,
            )
        with pytest.raises(ValueError):
            MpcWindow(
                sizes_mbit=np.zeros((2, 3, len(rates))),
                qoe=np.ones((2, 3, len(rates))),
                frame_rates=rates,
            )
