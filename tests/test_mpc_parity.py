"""DP-parity regression: the MPC solver == scalar reference.

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

from repro.core.optimizer import _BLOCK_ROWS, EnergyQoEMpc, MpcConfig, MpcWindow
from repro.power import PIXEL_3
from repro.power.energy import EnergyModel
from repro.video.framerate import DEFAULT_LADDER

from .mpc_reference import (
    choose_reference,
    decisions_from_columns,
    version_energy,
)


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
    # Bit-identical, not approximately equal: the batched solver must
    # preserve the reference's floating-point operation order.
    assert got.planned_energy_j == want.planned_energy_j


def assert_columns_match_reference(mpc, windows, bandwidths, buffers):
    """``choose_batch``'s three columns (0-based quality, 0-based rate
    index, planned energy) equal the scalar reference row by row."""
    quality, rate_idx, energy = mpc.choose_batch(
        np.stack([w.sizes_mbit for w in windows]),
        np.stack([w.qoe for w in windows]),
        windows[0].frame_rates,
        np.asarray(bandwidths, dtype=float),
        np.asarray(buffers, dtype=float),
    )
    assert quality.shape == rate_idx.shape == energy.shape == (len(windows),)
    for b, window in enumerate(windows):
        want = choose_reference(
            mpc, window, float(bandwidths[b]), float(buffers[b])
        )
        assert (int(quality[b]), int(rate_idx[b])) == (
            want.quality - 1, want.frame_rate_index - 1
        ), f"row {b} of {len(windows)}"
        # Bit-identical energy, not approximately equal.
        assert float(energy[b]) == want.planned_energy_j, f"row {b}"


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
        decisions = decisions_from_columns(mpc.choose_batch(
            np.stack([w.sizes_mbit for w in windows]),
            np.stack([w.qoe for w in windows]),
            rates, bandwidths, buffers,
        ), rates)
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


class TestLiveCandidateReduction:
    """Edge cases of the solver's per-step scatter reduction over the
    live (reached state, feasible version) candidates."""

    # Repeated one-rate windows with a segment length off the 0.5-s
    # buffer grid: after the cheapest version a state snaps high enough
    # to raise vm and exclude it, so the optimum mixes two versions.
    # Both orders cost float-identical e_i + e_j from different source
    # states, and only the scalar scan's insertion order picks the first
    # decision (ordering sources by state index instead picks quality 2).
    @pytest.mark.parametrize("seg_s, dl_units, qoe_levels, buffer_s", [
        (1.1, (0.79, 1.13, 1.35), (1.03, 1.06, 1.09), 0.9),
        (1.2, (0.36, 1.21, 1.3), (1.06, 1.09, 1.12), 0.9),
        (1.1, (0.24, 1.16, 1.31), (1.0, 1.03, 1.06), 1.0),
        (1.1, (0.33, 0.47, 1.35), (1.0, 1.03, 1.06), 0.5),
    ])
    def test_cross_state_tie_follows_insertion_order(
        self, seg_s, dl_units, qoe_levels, buffer_s
    ):
        sizes = np.asarray(dl_units) * 1.6
        window = MpcWindow(
            sizes_mbit=np.repeat(sizes[None, :, None], 2, axis=0),
            qoe=np.repeat((np.asarray(qoe_levels) * 0.9)[None, :, None], 2,
                          axis=0),
            frame_rates=(30.0,),
        )
        model = EnergyModel(PIXEL_3, 1.0)
        mpc = EnergyQoEMpc(model, MpcConfig(horizon=2, segment_seconds=seg_s))
        bandwidth = 2.0 / 0.9
        got = mpc.choose(window, bandwidth, buffer_s)
        assert_same(got, choose_reference(mpc, window, bandwidth, buffer_s))
        assert_columns_match_reference(mpc, [window], [bandwidth], [buffer_s])
        assert got.quality == 1
        energies = [
            version_energy(model, float(size), bandwidth * 0.9, 30.0)
            for size in sizes
        ]
        mixed = {
            energies[i] + energies[j]
            for i in range(len(sizes)) for j in range(len(sizes)) if i != j
        }
        assert got.planned_energy_j in mixed

    # _BLOCK_ROWS - 1, _BLOCK_ROWS + 1 and 2 * _BLOCK_ROWS + 1 rows.
    @pytest.mark.parametrize("offset", [-1, 1, _BLOCK_ROWS + 1])
    def test_rows_across_block_boundaries(self, offset):
        rng = np.random.default_rng(1000 + offset)
        rates = DEFAULT_LADDER.rates()
        mpc = EnergyQoEMpc(EnergyModel(PIXEL_3, 1.0))
        n_rows = _BLOCK_ROWS + offset
        windows = []
        while len(windows) < n_rows:
            window = random_window(rng, rates, 5)
            if window.num_qualities == 3:
                windows.append(window)
        bandwidths = 10 ** rng.uniform(-1.0, 2.0, size=n_rows)
        buffers = rng.uniform(0.0, 3.0, size=n_rows)
        decisions = decisions_from_columns(mpc.choose_batch(
            np.stack([w.sizes_mbit for w in windows]),
            np.stack([w.qoe for w in windows]),
            rates, bandwidths, buffers,
        ), rates)
        assert len(decisions) == n_rows
        for b, window in enumerate(windows):
            assert_same(
                decisions[b],
                mpc.choose(window, float(bandwidths[b]), float(buffers[b])),
                f"row {b} of {n_rows}",
            )
        assert_columns_match_reference(mpc, windows, bandwidths, buffers)

    @pytest.mark.parametrize("threshold_s", [0.5, 0.2])
    def test_one_and_two_state_configs(self, threshold_s):
        # threshold == granularity leaves states {0, 0.5}; a threshold
        # below half the granularity leaves the empty buffer alone.
        config = MpcConfig(buffer_granularity_s=0.5,
                           buffer_threshold_s=threshold_s)
        assert config.num_states == (2 if threshold_s == 0.5 else 1)
        rng = np.random.default_rng(31)
        rates = DEFAULT_LADDER.rates()
        mpc = EnergyQoEMpc(EnergyModel(PIXEL_3, 1.0), config)
        for _ in range(40):
            window = random_window(rng, rates, int(rng.integers(1, 6)))
            assert_same_decision(
                mpc, window, float(10 ** rng.uniform(-1.0, 2.0)),
                float(rng.uniform(0.0, 3.0)),
            )

    def test_overflowing_row_raises_and_others_still_solve(self):
        rng = np.random.default_rng(37)
        rates = DEFAULT_LADDER.rates()
        mpc = EnergyQoEMpc(EnergyModel(PIXEL_3, 1.0))
        windows = []
        while len(windows) < 3:
            window = random_window(rng, rates, 4)
            if window.num_qualities == 3:
                windows.append(window)
        # Path energies of ~1e254 J: at or past the 1e250 "no real plan"
        # bound, which a finite-only check would let through.
        huge = MpcWindow(np.full_like(windows[1].sizes_mbit, 1e255),
                         windows[1].qoe, rates)
        assert np.isfinite(
            choose_reference(mpc, huge, 10.0, 1.0).planned_energy_j
        )
        rows = [windows[0], huge, windows[2]]
        bandwidths = np.array([10.0, 10.0, 10.0])
        buffers = np.array([1.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="no feasible"):
            mpc.choose_batch(
                np.stack([w.sizes_mbit for w in rows]),
                np.stack([w.qoe for w in rows]),
                rates, bandwidths, buffers,
            )
        with pytest.raises(ValueError, match="no feasible"):
            mpc.choose(huge, 10.0, 1.0)
        good = [0, 2]
        decisions = decisions_from_columns(mpc.choose_batch(
            np.stack([rows[b].sizes_mbit for b in good]),
            np.stack([rows[b].qoe for b in good]),
            rates, bandwidths[good], buffers[good],
        ), rates)
        for decision, b in zip(decisions, good):
            assert_same(
                decision,
                choose_reference(mpc, rows[b], float(bandwidths[b]),
                                 float(buffers[b])),
                f"row {b}",
            )
