"""Fast unit tests for the ablation helpers (full sweeps run in
benchmarks/test_ablations.py)."""

import math

import pytest

from repro.experiments import (
    AblationPoint,
    make_setup,
    run_ablation,
    sweep_clustering_sigma,
    sweep_edge_cache,
    sweep_shared_cache,
)


@pytest.fixture(scope="module")
def tiny_setup():
    return make_setup(max_duration_s=15, n_users=16, n_train=12,
                      video_ids=(8,))


@pytest.fixture(scope="module")
def two_video_setup():
    return make_setup(max_duration_s=15, n_users=16, n_train=12,
                      video_ids=(2, 8))


class TestAblationPoint:
    def test_report_formats_extras(self):
        point = AblationPoint("x", 1.234, 56.7, 0.0, extra={"fps": 24.0})
        line = point.report()
        assert "1.234" in line
        assert "fps=24" in line

    def test_report_without_extras(self):
        line = AblationPoint("y", 1.0, 2.0, 3.0).report()
        assert "y" in line and "rebuffers" in line


class TestSigmaSweep:
    def test_areas_monotone_in_sigma(self, tiny_setup):
        points = sweep_clustering_sigma(tiny_setup, video_id=8)
        areas = [p.extra["mean_area"] for p in points]
        assert areas == sorted(areas)

    def test_streaming_metrics_nan(self, tiny_setup):
        points = sweep_clustering_sigma(
            tiny_setup, sigma_factors=(1.0,), video_id=8
        )
        assert math.isnan(points[0].energy_per_segment_j)

    def test_labels_carry_sigma(self, tiny_setup):
        points = sweep_clustering_sigma(
            tiny_setup, sigma_factors=(0.5, 2.0), video_id=8
        )
        assert points[0].label.startswith("sigma=22")
        assert points[1].label.startswith("sigma=90")

    def test_parallel_identical_to_serial(self, tiny_setup):
        serial = sweep_clustering_sigma(tiny_setup, video_id=8, workers=1)
        pooled = sweep_clustering_sigma(tiny_setup, video_id=8, workers=2)
        assert [p.label for p in serial] == [p.label for p in pooled]
        assert [p.extra["mean_area"] for p in serial] == [
            p.extra["mean_area"] for p in pooled
        ]
        assert [p.extra["mean_ptiles"] for p in serial] == [
            p.extra["mean_ptiles"] for p in pooled
        ]

    def test_sigma_points_share_artifact_store(self, tiny_setup, tmp_path):
        import dataclasses

        from repro.experiments import ArtifactStore

        # Each sigma point opens the store by root (so pooled workers
        # can share it); assert via the on-disk entries, one per sigma.
        cached = dataclasses.replace(
            tiny_setup, artifacts=ArtifactStore(tmp_path)
        )
        first = sweep_clustering_sigma(
            cached, sigma_factors=(0.5, 1.0), video_id=8
        )
        entries = sorted(p.name for p in tmp_path.rglob("*.pkl"))
        assert len(entries) == 2

        # Warm re-run: deserializes the same entries, writes nothing
        # new, and reproduces the points exactly.
        again = sweep_clustering_sigma(
            cached, sigma_factors=(0.5, 1.0), video_id=8
        )
        assert sorted(p.name for p in tmp_path.rglob("*.pkl")) == entries
        assert [p.extra["mean_area"] for p in again] == [
            p.extra["mean_area"] for p in first
        ]


class TestEdgeCacheSweep:
    def test_points_and_monotone_hits(self, tiny_setup):
        points = run_ablation(sweep_edge_cache(
            tiny_setup, capacities_mbit=(0.0, 2000.0), video_id=8, users=1
        ))
        assert len(points) == 2
        assert points[0].label == "no edge cache"
        assert points[0].extra["hit_ratio"] == 0.0
        assert points[1].extra["hit_ratio"] > 0.0
        for point in points:
            assert point.energy_per_segment_j > 0.0

    def test_hit_ratio_monotone_in_capacity(self, tiny_setup):
        points = run_ablation(sweep_edge_cache(
            tiny_setup, capacities_mbit=(500.0, 8000.0), video_id=8, users=1
        ))
        assert points[0].extra["hit_ratio"] <= points[1].extra["hit_ratio"]

    def test_deterministic(self, tiny_setup):
        kwargs = dict(capacities_mbit=(0.0, 2000.0), video_id=8, users=1)
        first = run_ablation(sweep_edge_cache(tiny_setup, **kwargs))
        again = run_ablation(sweep_edge_cache(tiny_setup, **kwargs))
        assert [
            (p.label, p.energy_per_segment_j, p.qoe, p.extra["stall"])
            for p in first
        ] == [
            (p.label, p.energy_per_segment_j, p.qoe, p.extra["stall"])
            for p in again
        ]


def _point_signature(points):
    return [
        (p.label, p.energy_per_segment_j, p.qoe, p.rebuffer_count, p.extra)
        for p in points
    ]


class TestSharedCacheSweep:
    def test_points_and_labels(self, two_video_setup):
        points = run_ablation(sweep_shared_cache(
            two_video_setup, capacities_mbit=(0.0, 500.0), users=1,
            tenant_viewers=6,
        ))
        assert len(points) == 2
        assert points[0].label == "no edge cache"
        assert points[0].extra["hit"] == 0.0
        assert points[0].extra["edge_frac"] == 0.0
        assert points[1].label == "shared=500Mb"
        assert points[1].extra["hit"] > 0.0
        assert points[1].extra["edge_frac"] > 0.0
        for point in points:
            assert point.energy_per_segment_j > 0.0

    def test_ptile_beats_ctile_on_default_catalog(self, two_video_setup):
        # The extension's deployment argument, now under contention:
        # with every tenant of the setup's catalog competing for the
        # same cache, Ptile's fewer, larger objects still serve a
        # larger byte fraction from the edge than Ctile's.
        points = run_ablation(sweep_shared_cache(
            two_video_setup, capacities_mbit=(500.0,), users=1,
            tenant_viewers=6,
        ))
        assert (
            points[0].extra["ptile_byte_hit"]
            > points[0].extra["ctile_byte_hit"]
        )

    def test_serial_parallel_and_cache_states_identical(
        self, two_video_setup, tmp_path
    ):
        from repro.experiments import ArtifactStore

        kwargs = dict(capacities_mbit=(0.0, 500.0), users=1,
                      tenant_viewers=6)
        def run(**options):
            return run_ablation(
                sweep_shared_cache(two_video_setup, **kwargs), **options
            )

        off = run()
        pooled = run(workers=2)
        cold = run(results=ArtifactStore(tmp_path))
        warm_store = ArtifactStore(tmp_path)
        warm = run(results=warm_store)
        assert warm_store.stats.misses.get("results") is None
        assert (
            _point_signature(off)
            == _point_signature(pooled)
            == _point_signature(cold)
            == _point_signature(warm)
        )

    def test_requires_tenant_videos(self, two_video_setup):
        with pytest.raises(ValueError):
            sweep_shared_cache(two_video_setup, video_ids=())


class TestLadderSweep:
    def test_points_and_labels(self, tiny_setup):
        from repro.experiments import sweep_ladder

        points = run_ablation(sweep_ladder(tiny_setup, users=1))
        assert [p.label for p in points] == ["v8:fixed", "v8:opt", "frontier"]
        fixed, opt, frontier = points
        assert "mbit" in fixed.extra
        assert "saved" in opt.extra
        # never_exceed_default_bits: the optimized ladder cannot stream
        # more bits than the fixed one.
        assert opt.extra["mbit"] <= fixed.extra["mbit"] + 1e-9
        assert frontier.extra["videos"] == 1.0
        assert 0.0 <= frontier.extra["improved"] <= 1.0

    def test_serial_pooled_and_cache_states_identical(
        self, two_video_setup, tmp_path
    ):
        from repro.experiments import ArtifactStore, sweep_ladder

        serial = run_ablation(sweep_ladder(two_video_setup, users=1))
        pooled = run_ablation(
            sweep_ladder(two_video_setup, users=1, workers=2), workers=2
        )
        store = ArtifactStore(tmp_path)
        cold = run_ablation(
            sweep_ladder(two_video_setup, users=1, ladder_store=store),
            results=store,
        )
        warm = run_ablation(
            sweep_ladder(two_video_setup, users=1, ladder_store=store),
            results=store,
        )
        assert store.stats.misses.get("ladder", 0) == 2  # cold only
        assert (
            _point_signature(serial)
            == _point_signature(pooled)
            == _point_signature(cold)
            == _point_signature(warm)
        )

    def test_explicit_targets_respected(self, tiny_setup):
        from repro.experiments import sweep_ladder

        # Unreachable targets: the search keeps the paper ladder, and
        # the two variants stream identical sessions.
        points = run_ablation(sweep_ladder(
            tiny_setup, users=1, quality_targets=(100.0,) * 5
        ))
        fixed, opt, _ = points
        assert fixed.energy_per_segment_j == opt.energy_per_segment_j
        assert fixed.qoe == opt.qoe

    def test_requires_videos_and_users(self, tiny_setup):
        from repro.experiments import sweep_ladder

        with pytest.raises(ValueError):
            sweep_ladder(tiny_setup, video_ids=())
        with pytest.raises(ValueError):
            sweep_ladder(tiny_setup, users=0)


class TestRenderedViewSupply:
    def test_ptile_supplies_rendered_view(self, ptiles2):
        """Cross-module: the gnomonic renderer's sampled directions fall
        inside the Ptile for a viewport centered on its cluster."""
        from repro.geometry import Viewport

        from .projection_reference import ViewRenderer

        sp = next(sp for sp in ptiles2 if sp.num_ptiles > 0)
        ptile = sp.ptiles[0]
        yaw, pitch = ptile.cluster.centroid()
        renderer = ViewRenderer(17, 17)
        fraction = renderer.coverage_fraction(
            Viewport(yaw, pitch, 80.0, 80.0), ptile.contains
        )
        assert fraction > 0.85
