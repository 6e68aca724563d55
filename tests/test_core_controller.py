"""Unit tests for the Ours controller."""

import pytest

from repro.core import OursScheme, PlanTables
from repro.geometry import Viewport
from repro.power import PIXEL_3, TilingScheme
from repro.streaming import PlanContext, run_session

from .mpc_reference import choose_reference


@pytest.fixture
def ours(device):
    return OursScheme(device=device)


@pytest.fixture
def ctx(manifest2, ptiles2, encoder):
    sp = next(sp for sp in ptiles2 if sp.num_ptiles > 0)
    ptile = sp.ptiles[0]
    yaw, pitch = ptile.cluster.centroid()
    idx = sp.segment_index
    horizon = min(idx + 5, manifest2.num_segments)
    return PlanContext(
        segment_index=idx,
        manifest=manifest2[idx],
        predicted_viewport=Viewport(yaw, pitch),
        buffer_s=3.0,
        bandwidth_mbps=6.0,
        grid=encoder.grid,
        segment_ptiles=sp,
        future_manifests=tuple(manifest2[i] for i in range(idx, horizon)),
        future_ptiles=tuple(ptiles2[i] for i in range(idx, horizon)),
        predicted_speed_deg_s=8.0,
    )


class TestPlan:
    def test_uses_ptile(self, ours, ctx):
        plan = ours.plan(ctx)
        assert plan.used_ptile
        assert plan.decode_scheme == TilingScheme.PTILE
        assert plan.scheme_name == "ours"

    def test_frame_rate_from_ladder(self, ours, ctx):
        plan = ours.plan(ctx)
        assert plan.frame_rate in ours.ladder.rates()

    def test_fast_switching_drops_frames(self, ours, ctx):
        from dataclasses import replace

        fast = ours.plan(replace(ctx, predicted_speed_deg_s=60.0))
        assert fast.frame_rate < 30.0

    def test_static_gaze_keeps_frames_on_motion_content(self, ours, ctx):
        from dataclasses import replace

        still = ours.plan(replace(ctx, predicted_speed_deg_s=0.0))
        assert still.frame_rate == 30.0

    def test_fallback_without_ptiles(self, ours, ctx):
        from dataclasses import replace

        plan = ours.plan(replace(ctx, segment_ptiles=None))
        assert not plan.used_ptile
        assert plan.decode_scheme == TilingScheme.CTILE
        assert plan.scheme_name == "ours"

    def test_fallback_with_unmatched_viewport(self, ours, ctx):
        from dataclasses import replace

        far_vp = Viewport((ctx.predicted_viewport.yaw + 180.0) % 360.0, 0.0)
        plan = ours.plan(replace(ctx, predicted_viewport=far_vp))
        assert not plan.used_ptile

    def test_lookahead_without_future_data(self, ours, ctx):
        from dataclasses import replace

        plan = ours.plan(replace(ctx, future_manifests=(), future_ptiles=()))
        assert plan.total_size_mbit > 0

    def test_size_consistent_with_version(self, ours, ctx):
        """Download size must match the chosen (v, f) version's size."""
        plan = ours.plan(ctx)
        sp = ctx.segment_ptiles
        ptile = sp.match(ctx.predicted_viewport)
        background = sum(
            ctx.manifest.region_size_mbit(b.key, b.area_fraction, 1)
            for b in sp.remainder_for(ptile)
        )
        expected = (
            ctx.manifest.region_size_mbit(
                ptile.region_key,
                ptile.area_fraction,
                int(plan.quality),
                frame_rate=plan.frame_rate,
                fps=30.0,
            )
            + background
        )
        assert plan.total_size_mbit == pytest.approx(expected)


class TestSegmentSecondsRegression:
    """The DP buffer dynamics must use the session's segment length."""

    def test_mpc_config_tracks_context_segment_seconds(self, ours):
        # Regression: the controller used to hand MpcConfig to the DP
        # unchanged, so 2 s sessions planned with 1 s buffer dynamics.
        assert ours._mpc(1.0).config.segment_seconds == 1.0
        assert ours._mpc(2.0).config.segment_seconds == 2.0
        assert ours._mpc(0.5).config.segment_seconds == 0.5

    def test_mpc_cache_keyed_by_segment_seconds(self, ours):
        one = ours._mpc(1.0)
        two = ours._mpc(2.0)
        assert one is not two
        assert ours._mpc(2.0) is two

    def test_plan_differs_with_two_second_segments(self, ours, ctx):
        from dataclasses import replace

        # A 2 s segment doubles both the per-segment download payload
        # and the playback drained per step; the plan must be computed
        # against those dynamics, not the 1 s defaults.  The decision
        # energy reported for the same (v, f) choice scales with the
        # segment's energy model, so the two plans cannot coincide.
        base = ours.plan(ctx)
        long_ctx = replace(ctx, segment_seconds=2.0)
        long_plan = ours.plan(long_ctx)
        mpc = ours._mpc(2.0)
        assert mpc.config.segment_seconds == 2.0
        assert long_plan.total_size_mbit > 0
        assert base.total_size_mbit > 0


class TestPlanTablesPath:
    def test_plan_matches_scalar_reference(self, ours, ctx):
        # The production plan must pick exactly what the scalar oracle
        # picks on the same stacked window.
        plan = ours.plan(ctx)
        sp = ctx.segment_ptiles
        ptile = sp.match(ctx.predicted_viewport)
        tables = ours._plan_tables(ctx)
        window = tables.window(ctx, ptile)
        mpc = ours._mpc(ctx.segment_seconds)
        want = choose_reference(
            mpc, window, ctx.bandwidth_mbps, ctx.buffer_s
        )
        assert plan.quality == want.quality
        assert plan.frame_rate == want.frame_rate

    def test_tables_cached_per_video(self, ours, ctx, manifest2):
        from dataclasses import replace

        full_ctx = replace(ctx, video_manifest=manifest2)
        first = ours._plan_tables(full_ctx)
        again = ours._plan_tables(full_ctx)
        assert first is again

    def test_window_path_without_video_manifest(self, ours, ctx):
        # The ctx fixture carries no video_manifest: the controller
        # must fall back to per-window tables and still produce a plan.
        assert ctx.video_manifest is None
        plan = ours.plan(ctx)
        assert plan.total_size_mbit > 0
        assert plan.used_ptile

    def test_row_lookup_rejects_unknown_segment(self, manifest2, ours, ctx):
        tables = ours._plan_tables(ctx)
        with pytest.raises(ValueError):
            tables.row(10_000)


class TestEndToEnd:
    def test_session_cheaper_than_ptile_baseline(
        self, small_dataset, manifest2, network_traces, device, ptiles2
    ):
        from repro.streaming import PtileScheme

        head = small_dataset.test_traces(2)[0]
        ours = run_session(
            OursScheme(device=device), manifest2, head, network_traces[1],
            device, ptiles=ptiles2,
        )
        baseline = run_session(
            PtileScheme(), manifest2, head, network_traces[1], device,
            ptiles=ptiles2,
        )
        assert ours.total_energy_j <= baseline.total_energy_j * 1.02

    def test_session_qoe_within_tolerance_of_ptile(
        self, small_dataset, manifest2, network_traces, device, ptiles2
    ):
        from repro.streaming import PtileScheme

        head = small_dataset.test_traces(2)[0]
        ours = run_session(
            OursScheme(device=device), manifest2, head, network_traces[1],
            device, ptiles=ptiles2,
        )
        baseline = run_session(
            PtileScheme(), manifest2, head, network_traces[1], device,
            ptiles=ptiles2,
        )
        # Paper: Ours trades a few percent of QoE for energy.
        assert ours.mean_qoe >= baseline.mean_qoe * 0.88

    def test_reduces_mean_frame_rate(
        self, small_dataset, manifest2, network_traces, device, ptiles2
    ):
        head = small_dataset.test_traces(2)[0]
        ours = run_session(
            OursScheme(device=device), manifest2, head, network_traces[1],
            device, ptiles=ptiles2,
        )
        assert ours.mean_frame_rate < 30.0
