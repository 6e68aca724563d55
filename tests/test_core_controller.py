"""Unit tests for the Ours controller."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OursScheme, PlanTables, RobustScheme
from repro.core.optimizer import MpcWindow
from repro.core.plan_tables import qo_table
from repro.geometry import Viewport
from repro.power import PIXEL_3, TilingScheme
from repro.prediction import AngularErrorModel
from repro.qoe import QualityModel
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

    def test_window_serves_offset_zero_with_the_given_ptile(
        self, ours, manifest8, ptiles8, encoder
    ):
        # Regression: window() used to re-match the predicted viewport at
        # offset 0 too, so a Ptile other than the match was ignored there.
        sp = next(sp for sp in ptiles8 if sp.num_ptiles > 1)
        matched, other = sp.ptiles[0], sp.ptiles[1]
        viewport = Viewport(*matched.cluster.centroid())
        assert sp.match(viewport) is matched
        idx = sp.segment_index
        end = min(idx + 5, manifest8.num_segments)
        ctx = PlanContext(
            segment_index=idx,
            manifest=manifest8[idx],
            predicted_viewport=viewport,
            buffer_s=1.0,
            bandwidth_mbps=6.0,
            grid=encoder.grid,
            segment_ptiles=sp,
            future_manifests=tuple(manifest8[i] for i in range(idx, end)),
            future_ptiles=tuple(ptiles8[i] for i in range(idx, end)),
            video_manifest=manifest8,
        )
        tables = ours._plan_tables(ctx)
        row = tables.row(idx)
        want = tables.sizes_for(other)[row]
        assert not np.array_equal(want, tables.sizes_for(matched)[row])
        window = tables.window(ctx, other)
        assert np.array_equal(window.sizes_mbit[0], want)

    def test_qo_table_equals_the_per_entry_loop(self, manifest2):
        model = QualityModel()
        levels = manifest2.encoder.ladder.levels
        want = np.array([
            [model.qo(m.si, m.ti, m.qoe_bitrate_mbps(v)) for v in levels]
            for m in manifest2
        ])
        got = qo_table(tuple(manifest2), levels, model)
        assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# plan_batch is the one MPC path: any batch == one plan() per context
# ----------------------------------------------------------------------

_ACTIVE = AngularErrorModel(base_sigma_deg=8.0, growth_deg_per_s=6.0)


@pytest.fixture(scope="module")
def batch_schemes():
    return {
        "ours": OursScheme(device=PIXEL_3),
        "robust-sigma0": RobustScheme(device=PIXEL_3),
        "robust": RobustScheme(device=PIXEL_3, error_model=_ACTIVE),
    }


@st.composite
def plan_contexts(draw, manifest, ptiles, grid):
    """One context: any segment (so windows of 1-5 near the video end),
    a viewport on a Ptile centroid or anywhere (unmatched: fallback),
    1 s or 2 s segments, and sometimes no future data at all."""
    n = manifest.num_segments
    k = draw(st.integers(0, n - 1))
    sp = ptiles[k]
    if sp.num_ptiles and draw(st.booleans()):
        ptile = sp.ptiles[draw(st.integers(0, sp.num_ptiles - 1))]
        viewport = Viewport(*ptile.cluster.centroid())
    else:
        viewport = Viewport(
            draw(st.floats(0.0, 359.0)), draw(st.floats(-80.0, 80.0))
        )
    if draw(st.booleans()):
        future_manifests, future_ptiles = (), ()
    else:
        end = min(k + draw(st.integers(1, 5)), n)
        future_manifests = tuple(manifest[i] for i in range(k, end))
        future_ptiles = tuple(ptiles[i] for i in range(k, end))
    return PlanContext(
        segment_index=k,
        manifest=manifest[k],
        predicted_viewport=viewport,
        buffer_s=draw(st.floats(0.0, 4.0)),
        bandwidth_mbps=draw(st.floats(0.5, 40.0)),
        grid=grid,
        segment_ptiles=sp,
        future_manifests=future_manifests,
        future_ptiles=future_ptiles,
        predicted_speed_deg_s=draw(st.floats(0.0, 60.0)),
        segment_seconds=draw(st.sampled_from((1.0, 2.0))),
        video_manifest=manifest,
        prediction_horizon_s=draw(st.floats(0.0, 2.0)),
    )


class TestPlanBatchParity:
    @pytest.mark.parametrize("name", ["ours", "robust-sigma0", "robust"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_plan_batch_equals_plan_per_context(
        self, batch_schemes, manifest2, ptiles2, encoder, name, data
    ):
        scheme = batch_schemes[name]
        ctxs = data.draw(st.lists(
            plan_contexts(manifest2, ptiles2, encoder.grid),
            min_size=1, max_size=8,
        ))
        assert scheme.plan_batch(ctxs) == [scheme.plan(c) for c in ctxs]

    def test_robust_plan_solves_the_expected_quality_window(
        self, batch_schemes, ctx, manifest2
    ):
        # Each QoE entry mixed toward its segment's lowest-quality entry
        # by the expected coverage, written out entry by entry.
        scheme = batch_schemes["robust"]
        ctx = replace(ctx, video_manifest=manifest2, prediction_horizon_s=1.0)
        ptile, coverage, sigma = scheme._select(ctx)
        assert sigma > 0.0
        base = scheme._plan_tables(ctx).window(ctx, ptile)
        qoe = np.empty_like(base.qoe)
        for (h, v, f), value in np.ndenumerate(base.qoe):
            c = min(max(float(coverage[h]), 0.0), 1.0)
            qoe[h, v, f] = c * value + (1.0 - c) * base.qoe[h, 0, f]
        window = MpcWindow(base.sizes_mbit, qoe, base.frame_rates)
        want = scheme._mpc(ctx.segment_seconds).choose(
            window, ctx.bandwidth_mbps, ctx.buffer_s
        )
        plan = scheme.plan(ctx)
        assert (plan.quality, plan.frame_rate) == (
            want.quality, want.frame_rate
        )
        assert plan.expected_coverage == float(coverage[0])
        assert plan.sigma_deg == sigma

    def test_fallback_rows_keep_their_place(self, batch_schemes, ctx):
        scheme = batch_schemes["ours"]
        far = replace(ctx, predicted_viewport=Viewport(
            (ctx.predicted_viewport.yaw + 180.0) % 360.0, 0.0
        ))
        plans = scheme.plan_batch([far, ctx, far])
        assert [p.used_ptile for p in plans] == [False, True, False]
        assert plans == [scheme.plan(c) for c in (far, ctx, far)]


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
