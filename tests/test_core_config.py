"""The paper's streaming configuration (Section V-A), read from the
modules that own each default: ``SessionConfig``, ``MpcConfig``,
``PtileConfig``, the tile grid, the ladders and ``build_dataset``."""

import inspect

import pytest

from repro.core import MpcConfig
from repro.encoding import DEFAULT_ENCODING_LADDER
from repro.geometry import DEFAULT_GRID
from repro.ptile import PtileConfig
from repro.qoe import QoEWeights
from repro.streaming import SessionConfig
from repro.traces import build_dataset
from repro.video import DEFAULT_LADDER


class TestStreamingConfig:
    def test_paper_defaults(self):
        session = SessionConfig()
        assert session.segment_seconds == 1.0
        assert (DEFAULT_GRID.rows, DEFAULT_GRID.cols) == (4, 8)
        assert session.fov_deg == 100.0
        assert session.buffer_threshold_s == 3.0
        assert DEFAULT_ENCODING_LADDER.levels == (1, 2, 3, 4, 5)
        assert MpcConfig().qoe_tolerance == 0.05
        assert session.horizon == MpcConfig().horizon == 5
        defaults = inspect.signature(build_dataset).parameters
        assert (defaults["n_users"].default, defaults["n_train"].default) == (
            48, 40,
        )

    def test_make_grid(self):
        assert DEFAULT_GRID.num_tiles == 32

    def test_make_ptile_config(self):
        pcfg = PtileConfig()
        assert pcfg.resolved_sigma(DEFAULT_GRID) == 45.0
        assert pcfg.resolved_delta(DEFAULT_GRID) == pytest.approx(45.0 / 4)

    def test_make_mpc_config(self):
        mpc = MpcConfig()
        assert mpc.horizon == 5
        assert mpc.buffer_granularity_s == 0.5
        assert mpc.qoe_tolerance == 0.05
        assert mpc.buffer_threshold_s == SessionConfig().buffer_threshold_s
        assert mpc.segment_seconds == SessionConfig().segment_seconds

    def test_frame_rate_ladder(self):
        assert DEFAULT_LADDER.rates() == (21.0, 24.0, 27.0, 30.0)

    def test_qoe_weights(self):
        weights = QoEWeights()
        assert weights.variation == 1.0
        assert weights.rebuffering == 1.0
