"""Unit tests for the offline-optimal solver."""

import numpy as np
import pytest

from repro.core import EnergyQoEMpc, MpcConfig, MpcWindow, solve_offline
from repro.power import EnergyModel, PIXEL_3
from repro.traces import NetworkTrace

RATES = (21.0, 24.0, 27.0, 30.0)


def make_window(n, base_size=1.0, alpha=5.0):
    """``n`` identical segments of 5 qualities x 4 frame rates."""
    sizes = np.empty((5, 4))
    qoe = np.empty((5, 4))
    for vi in range(5):
        size_v = base_size * (1.6 ** vi)
        qo = 90.0 - (4 - vi) * 12.0
        for fi, rate in enumerate(RATES):
            sizes[vi, fi] = size_v * (1 - 0.6 * (1 - rate / 30.0))
            factor = (1 - np.exp(-alpha * rate / 30.0)) / (1 - np.exp(-alpha))
            qoe[vi, fi] = qo * factor
    return MpcWindow(
        sizes_mbit=np.repeat(sizes[None], n, axis=0),
        qoe=np.repeat(qoe[None], n, axis=0),
        frame_rates=RATES,
    )


@pytest.fixture
def flat_network():
    return NetworkTrace("flat", np.full(60, 4.0))


@pytest.fixture
def energy_model():
    return EnergyModel(PIXEL_3)


class TestSolveOffline:
    def test_one_decision_per_segment(self, flat_network, energy_model):
        plan = solve_offline(make_window(10), flat_network, energy_model)
        assert plan.num_segments == 10
        for v, f in plan.decisions:
            assert 1 <= v <= 5
            assert 1 <= f <= 4

    def test_positive_cost(self, flat_network, energy_model):
        plan = solve_offline(make_window(5), flat_network, energy_model)
        assert plan.total_energy_j > 0
        assert plan.total_qoe > 0
        assert 0 <= plan.final_buffer_s <= 3.0

    def test_fast_switching_drops_frames(self, flat_network, energy_model):
        plan = solve_offline(
            make_window(8, alpha=50.0), flat_network, energy_model
        )
        assert plan.mean_frame_rate_index() < 4.0

    def test_static_gaze_keeps_frames(self, flat_network, energy_model):
        plan = solve_offline(
            make_window(8, alpha=0.1), flat_network, energy_model
        )
        assert plan.mean_frame_rate_index() == 4.0

    def test_richer_network_higher_quality(self, energy_model):
        slow = solve_offline(
            make_window(8), NetworkTrace("s", np.full(60, 1.5)),
            energy_model,
        )
        fast = solve_offline(
            make_window(8), NetworkTrace("f", np.full(60, 20.0)),
            energy_model,
        )
        assert fast.mean_quality() >= slow.mean_quality()

    def test_empty_rejected(self, flat_network, energy_model):
        with pytest.raises(ValueError):
            solve_offline(make_window(0), flat_network, energy_model)


class TestOracleBoundsMpc:
    def test_offline_no_worse_than_online(self, energy_model):
        """The oracle's energy lower-bounds the online MPC's plan on the
        same inputs when the bandwidth prediction happens to be exact."""
        network = NetworkTrace("flat", np.full(60, 4.0))
        window = make_window(6, alpha=5.0)

        offline = solve_offline(
            window, network, energy_model,
            MpcConfig(bandwidth_safety=1.0), initial_buffer_s=3.0,
        )

        # Replay the online MPC over the same segments with a rolling
        # window, accumulating the realized energy of its decisions.
        mpc = EnergyQoEMpc(energy_model, MpcConfig(bandwidth_safety=1.0))
        buffer = 3.0
        total = 0.0
        from repro.power import TilingScheme

        for k in range(window.num_segments):
            lookahead = MpcWindow(
                window.sizes_mbit[k:], window.qoe[k:], RATES
            )
            decision = mpc.choose(lookahead, 4.0, buffer)
            size = float(
                window.sizes_mbit[
                    k, decision.quality - 1, decision.frame_rate_index - 1
                ]
            )
            dl = size / 4.0
            total += (
                energy_model.transmission_energy_from_time_j(dl)
                + energy_model.decoding_energy_j(
                    TilingScheme.PTILE, decision.frame_rate
                )
                + energy_model.rendering_energy_j(decision.frame_rate)
            )
            buffer = min(max(buffer - dl, 0.0) + 1.0, 3.0)

        assert offline.total_energy_j <= total * 1.05
