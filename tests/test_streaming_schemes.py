"""Unit tests for the streaming schemes' download planning."""

import math

import pytest

from repro.geometry import Rect, Viewport
from repro.power import PIXEL_3, TilingScheme
from repro.streaming import (
    CtileScheme,
    DownloadPlan,
    FtileScheme,
    NontileScheme,
    PlanContext,
    PtileScheme,
    run_session,
    split_wrapped_rect,
)


@pytest.fixture
def ctx(manifest2, ptiles2, ftiles2):
    """A planning context looking at the Ptile of segment 0."""
    sp = next(sp for sp in ptiles2 if sp.num_ptiles > 0)
    ptile = sp.ptiles[0]
    yaw, pitch = ptile.cluster.centroid()
    return PlanContext(
        video=manifest2,
        segment_index=sp.segment_index,
        predicted_viewport=Viewport(yaw, pitch),
        buffer_s=3.0,
        bandwidth_mbps=8.0,
        ptiles=ptiles2,
        ftiles=ftiles2,
    )


@pytest.fixture
def ctx_no_ptile(manifest2, ftiles2):
    return PlanContext(
        video=manifest2,
        segment_index=0,
        predicted_viewport=Viewport(100.0, 0.0),
        buffer_s=3.0,
        bandwidth_mbps=8.0,
        ftiles=ftiles2,
    )


class TestSplitWrappedRect:
    def test_plain_rect_unchanged(self):
        r = Rect(10, 0, 50, 45)
        assert split_wrapped_rect(r) == (r,)

    def test_wrapping_rect_split(self):
        r = Rect(300, 0, 400, 45)
        left, right = split_wrapped_rect(r)
        assert left.x1 == 360.0
        assert right.x0 == 0.0
        assert left.width + right.width == pytest.approx(100.0)


class TestCoverage:
    def test_full_coverage_flag(self):
        plan = DownloadPlan("n", 3, 30.0, 1.0, TilingScheme.NONTILE,
                            full_coverage=True)
        assert plan.coverage_of(Viewport(123.0, 45.0)) == 1.0

    def test_no_rects_no_coverage(self):
        plan = DownloadPlan("c", 3, 30.0, 1.0, TilingScheme.CTILE)
        assert plan.coverage_of(Viewport(0, 0)) == 0.0

    def test_partial_coverage(self):
        plan = DownloadPlan(
            "c", 3, 30.0, 1.0, TilingScheme.CTILE,
            hq_rects=(Rect(130, -50, 180, 50),),
        )
        assert plan.coverage_of(Viewport(180.0, 0.0)) == pytest.approx(0.5)


class TestCtileScheme:
    def test_plan_shape(self, ctx_no_ptile):
        plan = CtileScheme().plan(ctx_no_ptile)
        assert plan.decode_scheme == TilingScheme.CTILE
        assert plan.frame_rate == 30.0
        assert plan.total_size_mbit > 0
        assert 1 <= plan.quality <= 5
        assert plan.hq_rects  # FoV tile rectangles

    def test_covers_predicted_viewport_well(self, ctx_no_ptile):
        plan = CtileScheme().plan(ctx_no_ptile)
        assert plan.coverage_of(ctx_no_ptile.predicted_viewport) > 0.85

    def test_more_bandwidth_higher_quality(self, ctx_no_ptile):
        from dataclasses import replace

        low = CtileScheme().plan(replace(ctx_no_ptile, bandwidth_mbps=2.0))
        high = CtileScheme().plan(replace(ctx_no_ptile, bandwidth_mbps=30.0))
        assert high.quality >= low.quality


class TestFtileScheme:
    def test_plan_shape(self, ctx):
        plan = FtileScheme().plan(ctx)
        assert plan.decode_scheme == TilingScheme.FTILE
        assert plan.total_size_mbit > 0

    def test_requires_partition(self, ctx):
        from dataclasses import replace

        with pytest.raises(ValueError):
            FtileScheme().plan(replace(ctx, ftiles=None))


class TestNontileScheme:
    def test_full_coverage(self, ctx_no_ptile):
        plan = NontileScheme().plan(ctx_no_ptile)
        assert plan.full_coverage
        assert plan.decode_scheme == TilingScheme.NONTILE

    def test_fractional_ladder(self, ctx_no_ptile):
        plan = NontileScheme().plan(ctx_no_ptile)
        assert 1.0 <= plan.quality <= 5.0

    def test_default_ladder_is_the_quarter_step_sweep(self):
        assert NontileScheme().qualities(5) == tuple(
            1.0 + 0.25 * i for i in range(17)
        )

    @pytest.mark.parametrize("step", [0.0, -0.25, math.nan, math.inf, -math.inf])
    def test_bad_ladder_step_rejected_at_construction(self, step):
        # 0 used to raise ZeroDivisionError and -0.25 "need at least one
        # quality level", both in the middle of a session.
        with pytest.raises(ValueError, match="ladder_step"):
            NontileScheme(ladder_step=step)

    @pytest.mark.parametrize("step", [0.3, 0.45, 0.7, 1.5, 4.0, 10.0])
    def test_ladder_never_passes_the_top_rung(self, step):
        for levels in (2, 5, 7):
            rungs = NontileScheme(ladder_step=step).qualities(levels)
            assert rungs[0] == 1.0
            assert max(rungs) <= levels
            assert all(b - a == pytest.approx(step)
                       for a, b in zip(rungs, rungs[1:]))

    def test_uneven_step_session_completes(self, small_dataset, manifest2,
                                           network_traces):
        # 0.45 rounded to 9 steps, whose top rung 5.05 raised
        # "quality must be within [1, 5]" in the middle of a session.
        result = run_session(
            NontileScheme(ladder_step=0.45), manifest2,
            small_dataset.test_traces(2)[0], network_traces[1], PIXEL_3,
        )
        qualities = [r.quality for r in result.records]
        assert len(qualities) == manifest2.num_segments
        assert max(qualities) <= 4.6 + 1e-12


class TestPtileScheme:
    def test_uses_ptile_when_available(self, ctx):
        plan = PtileScheme().plan(ctx)
        assert plan.used_ptile
        assert plan.decode_scheme == TilingScheme.PTILE
        assert plan.frame_rate == 30.0

    def test_fallback_without_ptiles(self, ctx_no_ptile):
        plan = PtileScheme().plan(ctx_no_ptile)
        assert not plan.used_ptile
        assert plan.decode_scheme == TilingScheme.CTILE
        assert plan.scheme_name == "ptile"

    def test_fallback_when_viewport_uncovered(self, ctx):
        from dataclasses import replace

        far = replace(ctx, predicted_viewport=Viewport(
            (ctx.predicted_viewport.yaw + 180.0) % 360.0, 0.0
        ))
        plan = PtileScheme().plan(far)
        assert not plan.used_ptile

    def test_smaller_than_ctile_at_same_quality(self, ctx):
        """The headline mechanism: Ptile downloads fewer bits."""
        ptile_plan = PtileScheme().plan(ctx)
        ctile_plan = CtileScheme().plan(ctx)
        if ptile_plan.quality >= ctile_plan.quality:
            assert ptile_plan.total_size_mbit < ctile_plan.total_size_mbit * 1.05


class TestPlanContextDerivedFields:
    """A context names its video, segment and window; everything else is
    read off the video.  The derived values equal what the context
    builders of the session loop, the population engine and the
    decision service used to copy in: the segment's manifest, the grid
    and fps, the segment's Ptiles/Ftiles, and the window slices
    ``k .. min(k + horizon, length)`` of manifests and Ptiles."""

    @staticmethod
    def _copied(manifest, k, end, ptiles, ftiles):
        # The fields the builders copied, written out as they were.
        return {
            "manifest": manifest[k],
            "grid": manifest.encoder.grid,
            "fps": manifest.fps,
            "segment_ptiles": ptiles[k] if ptiles is not None else None,
            "ftile_partition": ftiles[k] if ftiles is not None else None,
            "window_manifests": tuple(manifest[i] for i in range(k, end)),
            "window_segment_ptiles": tuple(
                ptiles[i] if ptiles is not None else None
                for i in range(k, end)
            ),
        }

    @staticmethod
    def _session_contexts(manifest, dataset, network, ptiles, ftiles, config):
        seen = []

        class Spy(CtileScheme):
            def plan(self, ctx):
                seen.append(ctx)
                return super().plan(ctx)

        run_session(Spy(), manifest, dataset.test_traces(2)[0], network,
                    PIXEL_3, ptiles=ptiles, ftiles=ftiles, config=config)
        return seen

    @pytest.mark.parametrize(
        "case", ["video_end", "max_segments", "no_ptile_request", "ftile"]
    )
    def test_derived_fields_equal_the_copied_slices(
        self, case, manifest2, ptiles2, ftiles2, small_dataset,
        network_traces, device,
    ):
        from repro.core import OursScheme
        from repro.serving import PlanRequest, VideoPlanner
        from repro.streaming import SessionConfig

        n = manifest2.num_segments
        horizon = SessionConfig().horizon
        ptiles, ftiles, length = ptiles2, None, n
        if case == "no_ptile_request":
            ptiles = None
            planner = VideoPlanner(OursScheme(device=device), manifest2,
                                   ptiles2)
            ctxs = [
                planner.context(PlanRequest(
                    video_id=planner.video_id, segment_index=k,
                    buffer_s=1.0, bandwidth_mbps=5.0, yaw=10.0, pitch=0.0,
                    use_ptile=False,
                ))
                for k in range(n)
            ]
        else:
            config = SessionConfig()
            if case == "max_segments":
                config = SessionConfig(max_segments=3)
                length = 3
            if case == "ftile":
                ptiles, ftiles = None, ftiles2
            ctxs = self._session_contexts(
                manifest2, small_dataset, network_traces[1], ptiles, ftiles,
                config,
            )
        assert [c.segment_index for c in ctxs] == list(range(length))
        # The last contexts' windows are clipped at the stream's end.
        assert ctxs[-1].window == 1
        for k, ctx in enumerate(ctxs):
            end = min(k + horizon, length)
            assert ctx.video is manifest2
            assert ctx.window == end - k
            want = self._copied(manifest2, k, end, ptiles, ftiles)
            got = {name: getattr(ctx, name) for name in want}
            assert got == want, f"segment {k}"
