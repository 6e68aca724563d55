"""Paper-fidelity checks: every constant the paper states, in one place.

A reproduction's most silent failure mode is a drifted constant.  This
module pins each number the paper fixes to the module that owns it, so
any accidental change fails loudly with a pointer to the paper section.
"""

import inspect

import pytest

from repro.core import MpcConfig
from repro.geometry import DEFAULT_FOV_DEG, DEFAULT_GRID, FTILE_BLOCK_GRID
from repro.power import GALAXY_S20, NEXUS_5X, PIXEL_3, PIXEL3_DECODER_MODEL
from repro.ptile import PtileConfig
from repro.qoe import QoEWeights, TABLE_II
from repro.streaming import SessionConfig
from repro.traces import build_dataset
from repro.video import DEFAULT_ENCODING_LADDER, DEFAULT_LADDER, VIDEO_CATALOG


class TestSectionII:
    """Background and motivation."""

    def test_4x8_grid(self):
        assert (DEFAULT_GRID.rows, DEFAULT_GRID.cols) == (4, 8)

    def test_fov_100_degrees(self):
        assert DEFAULT_FOV_DEG == 100.0

    def test_4k30_source(self):
        for meta in VIDEO_CATALOG:
            assert (meta.width_px, meta.height_px, meta.fps) == (3840, 2160, 30)

    def test_fig2b_endpoints(self):
        m = PIXEL3_DECODER_MODEL
        assert (m.time_1_s, m.power_1_mw) == (1.3, 241.0)
        assert (m.time_9_s, m.power_9_mw) == (0.5, 846.0)
        assert (m.ptile_time_s, m.ptile_power_mw) == (0.24, 287.0)


class TestSectionIII:
    """Video, power, and QoE models."""

    def test_table1_spot_values(self):
        # One value per device/row family; the full grid is covered in
        # test_power_models.py.
        assert NEXUS_5X.transmission_mw == 1709.12
        assert PIXEL_3.decoding["ctile"].base_mw == 574.89
        assert PIXEL_3.decoding["ptile"].slope_mw_per_fps == 5.96
        assert GALAXY_S20.rendering.base_mw == 108.21

    def test_table2_coefficients(self):
        assert (TABLE_II.c1, TABLE_II.c2, TABLE_II.c3, TABLE_II.c4) == (
            -0.2163, 0.0581, -0.1578, 0.7821,
        )

    def test_speed_tolerance_threshold(self):
        from repro.qoe import SPEED_TOLERANCE_THRESHOLD_DEG_S

        assert SPEED_TOLERANCE_THRESHOLD_DEG_S == 10.0


class TestSectionIV:
    """Problem formulation and algorithm."""

    def test_buffer_granularity_500ms(self):
        assert MpcConfig().buffer_granularity_s == 0.5

    def test_qoe_tolerance_5_percent(self):
        assert MpcConfig().qoe_tolerance == 0.05

    def test_sigma_is_tile_width_delta_quarter(self):
        cfg = PtileConfig()
        assert cfg.resolved_sigma(DEFAULT_GRID) == DEFAULT_GRID.tile_width
        assert cfg.resolved_delta(DEFAULT_GRID) == DEFAULT_GRID.tile_width / 4

    def test_min_five_users_per_ptile(self):
        assert PtileConfig().min_users == 5


class TestSectionV:
    """Experiment setup."""

    def test_crf_ladder_38_to_18_step_5(self):
        assert DEFAULT_ENCODING_LADDER.crfs == (38, 33, 28, 23, 18)

    def test_one_second_segments(self):
        assert SessionConfig().segment_seconds == 1.0
        assert MpcConfig().segment_seconds == 1.0

    def test_three_second_buffer(self):
        assert SessionConfig().buffer_threshold_s == 3.0
        assert MpcConfig().buffer_threshold_s == 3.0

    def test_qoe_weights_1_1(self):
        weights = QoEWeights()
        assert (weights.variation, weights.rebuffering) == (1.0, 1.0)

    def test_frame_rate_reductions_10_20_30(self):
        assert DEFAULT_LADDER.reductions == (0.3, 0.2, 0.1)
        assert DEFAULT_LADDER.rates() == (21.0, 24.0, 27.0, 30.0)

    def test_ftile_450_blocks_into_10(self):
        from repro.streaming.ftile import _N_FTILES

        assert FTILE_BLOCK_GRID.num_tiles == 450
        assert _N_FTILES == 10

    def test_48_users_40_train(self):
        defaults = inspect.signature(build_dataset).parameters
        assert (defaults["n_users"].default, defaults["n_train"].default) == (
            48, 40,
        )

    def test_table3_durations_and_titles(self):
        expected = {
            1: ("Basketball Match", 361),
            2: ("Showtime Boxing", 172),
            3: ("Festival Gala", 373),
            4: ("Idol Dancing", 278),
            5: ("Moving Rhinos", 292),
            6: ("Football Match", 164),
            7: ("Tahiti Surf", 205),
            8: ("Freestyle Skiing", 201),
        }
        for meta in VIDEO_CATALOG:
            title, duration = expected[meta.video_id]
            assert meta.title == title
            assert meta.duration_s == duration

    def test_trace2_statistics(self, network_traces):
        trace1, trace2 = network_traces
        assert trace2.mean_mbps == pytest.approx(3.9, abs=0.05)
        assert trace2.min_mbps == pytest.approx(2.3, abs=0.01)
        assert trace2.max_mbps == pytest.approx(8.4, abs=0.01)
        assert trace1.mean_mbps == pytest.approx(2 * trace2.mean_mbps)

    def test_mpc_horizon_default(self):
        assert MpcConfig().horizon == 5
        assert SessionConfig().horizon == 5
