"""Parity gate for the uncertainty-aware robust planner.

The load-bearing guarantee: with a degenerate error model (sigma = 0)
:class:`~repro.core.robust.RobustScheme` delegates to the
point-prediction ``ours`` code path, so its sessions are bit-identical
— same records, same floats — across videos, MPC horizons, edge
models, and worker counts.  Anything less means the robust layer
changed baseline experiment results just by existing.

The second half covers the robust x resilience cross (docs/MODELING.md
§14): ``sweep_robust`` is deterministic at any worker count, and the
per-segment uncertainty accounting lands in the schema-v4 records.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import OursScheme, RobustScheme
from repro.experiments import (
    RESULTS_SCHEMA_VERSION,
    SessionJob,
    ArtifactStore,
    SweepContext,
    make_setup,
    run_session_jobs,
    sweep_robust,
)
from repro.power.models import PIXEL_3
from repro.prediction import AngularErrorModel, PanoWeight
from repro.resilience import DownloadPolicy, generate_fault_plan
from repro.streaming import PopulationEngine, SessionConfig, run_session
from repro.streaming.cache import build_edge_hit_model

CFG = SessionConfig(max_segments=10)

ACTIVE_MODEL = AngularErrorModel(base_sigma_deg=8.0, growth_deg_per_s=6.0)


def _run(scheme, manifest, trace, network, device, ptiles, config):
    return run_session(
        scheme, manifest, trace, network, device, ptiles=ptiles,
        config=config,
    )


class TestSigmaZeroParity:
    """sigma = 0 robust == ours, record for record, bit for bit."""

    @pytest.mark.parametrize("video_id", [2, 8])
    def test_records_identical_across_videos(
        self, video_id, manifest2, manifest8, ptiles2, ptiles8,
        small_dataset, network_traces, device,
    ):
        manifest = {2: manifest2, 8: manifest8}[video_id]
        ptiles = {2: ptiles2, 8: ptiles8}[video_id]
        for user in range(2):
            trace = small_dataset.test_traces(video_id)[user]
            a = _run(OursScheme(device=device), manifest, trace,
                     network_traces[1], device, ptiles, CFG)
            b = _run(RobustScheme(device=device), manifest, trace,
                     network_traces[1], device, ptiles, CFG)
            assert a.records == b.records
            # The degenerate path still reports the point-prediction
            # defaults in the new accounting fields.
            assert all(r.expected_coverage == 1.0 for r in b.records)
            assert all(r.uncertainty_deg == 0.0 for r in b.records)

    @pytest.mark.parametrize("horizon", [3, 5])
    def test_records_identical_across_horizons(
        self, horizon, manifest8, ptiles8, small_dataset, network_traces,
        device,
    ):
        config = SessionConfig(max_segments=10, horizon=horizon)
        trace = small_dataset.test_traces(8)[0]
        a = _run(OursScheme(device=device), manifest8, trace,
                 network_traces[1], device, ptiles8, config)
        b = _run(RobustScheme(device=device), manifest8, trace,
                 network_traces[1], device, ptiles8, config)
        assert a.records == b.records

    def test_records_identical_with_edge_model(
        self, manifest8, ptiles8, small_dataset, network_traces, device,
    ):
        edge = build_edge_hit_model(
            manifest8, small_dataset.train_traces(8), ptiles8,
            capacity_mbit=500,
        )
        config = SessionConfig(max_segments=10, edge_model=edge)
        trace = small_dataset.test_traces(8)[0]
        a = _run(OursScheme(device=device), manifest8, trace,
                 network_traces[1], device, ptiles8, config)
        b = _run(RobustScheme(device=device), manifest8, trace,
                 network_traces[1], device, ptiles8, config)
        assert a.records == b.records

    def test_fitted_table_of_zeros_is_degenerate_too(
        self, manifest8, ptiles8, small_dataset, network_traces, device,
    ):
        # A fitted per-horizon table whose sigmas are all zero must take
        # the same delegation branch as the parametric zero model.
        model = AngularErrorModel(
            horizons_s=(0.25, 0.5, 1.0), sigmas_deg=(0.0, 0.0, 0.0)
        )
        assert model.is_degenerate
        trace = small_dataset.test_traces(8)[1]
        a = _run(OursScheme(device=device), manifest8, trace,
                 network_traces[1], device, ptiles8, CFG)
        b = _run(RobustScheme(device=device, error_model=model), manifest8,
                 trace, network_traces[1], device, ptiles8, CFG)
        assert a.records == b.records

    def test_population_engine_identical(
        self, manifest8, ptiles8, small_dataset, network_traces, device,
    ):
        traces = small_dataset.test_traces(8)
        users = [0, 1, 2]

        def run_pop(scheme):
            engine = PopulationEngine(
                scheme, manifest8, traces, network_traces[1], device,
                ptiles=ptiles8, config=CFG,
            )
            return engine.run(users)

        base = run_pop(OursScheme(device=device))
        robust = run_pop(RobustScheme(device=device))
        for f in dataclasses.fields(base):
            a, b = getattr(base, f.name), getattr(robust, f.name)
            if f.name == "scheme_name":
                assert (a, b) == ("ours", "robust")
            elif isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name


class TestActiveRobust:
    """sigma > 0: the robust path itself must be deterministic and keep
    population/scalar parity."""

    def test_population_matches_scalar_sessions(
        self, manifest8, ptiles8, small_dataset, network_traces, device,
    ):
        scheme = RobustScheme(device=device, error_model=ACTIVE_MODEL)
        traces = small_dataset.test_traces(8)
        engine = PopulationEngine(
            scheme, manifest8, traces, network_traces[1], device,
            ptiles=ptiles8, config=CFG,
        )
        res = engine.run([0, 1])
        for j in range(2):
            scalar = _run(scheme, manifest8, traces[j], network_traces[1],
                          device, ptiles8, CFG)
            assert res.total_energy_j[j] == pytest.approx(
                scalar.total_energy_j, rel=1e-9
            )
            assert res.mean_qoe[j] == pytest.approx(
                scalar.mean_qoe, rel=1e-9
            )
            assert res.total_stall_s[j] == pytest.approx(
                scalar.total_stall_s, rel=1e-9, abs=1e-12
            )
            assert res.mean_coverage[j] == pytest.approx(
                scalar.mean_coverage, rel=1e-9
            )

    def test_serial_equals_pooled_cold_equals_warm(
        self, manifest8, ptiles8, small_dataset, network_traces, device,
        tmp_path,
    ):
        context = SweepContext(
            schemes={
                "ours": OursScheme(device=device),
                "robust": RobustScheme(
                    device=device, error_model=ACTIVE_MODEL
                ),
            },
            device=device,
            networks={"trace2": network_traces[1]},
            manifests={8: manifest8},
            head_traces={8: tuple(small_dataset.test_traces(8))},
            ptiles={8: ptiles8},
            config=CFG,
        )
        jobs = [
            SessionJob(key=(name, u), scheme=name, video_id=8,
                       network="trace2", user_index=u)
            for name in ("ours", "robust")
            for u in range(2)
        ]
        serial = run_session_jobs(context, jobs, workers=1).results
        pooled = run_session_jobs(context, jobs, workers=2,
                                  chunk_size=1).results
        assert [s.records for s in serial] == [p.records for p in pooled]

        store = ArtifactStore(tmp_path)
        cold = run_session_jobs(context, jobs, workers=1,
                                results=store).results
        warm = run_session_jobs(context, jobs, workers=1,
                                results=store).results
        assert [c.records for c in cold] == [w.records for w in warm]
        assert [c.records for c in cold] == [s.records for s in serial]

    def test_robust_records_carry_uncertainty(
        self, manifest8, ptiles8, small_dataset, network_traces, device,
    ):
        scheme = RobustScheme(device=device, error_model=ACTIVE_MODEL)
        trace = small_dataset.test_traces(8)[0]
        result = _run(scheme, manifest8, trace, network_traces[1], device,
                      ptiles8, CFG)
        planned = [r for r in result.records if r.uncertainty_deg > 0.0]
        assert planned, "active robust session never planned under sigma>0"
        for r in planned:
            assert 0.0 <= r.expected_coverage <= 1.0
        assert result.mean_uncertainty_deg > 0.0
        assert 0.0 < result.mean_expected_coverage <= 1.0


@pytest.fixture(scope="module")
def robust_setup():
    return make_setup(max_duration_s=12, n_users=16, n_train=12,
                      video_ids=(8,))


class TestSweepRobust:
    """S4: robust x resilience — deterministic, schema-versioned."""

    def test_schema_version_covers_uncertainty_fields(self):
        assert RESULTS_SCHEMA_VERSION == 4

    def test_deterministic_across_worker_counts(self, robust_setup):
        kwargs = dict(profiles=("none", "outages"), users=2, fault_seed=7)
        serial = sweep_robust(robust_setup, workers=1, **kwargs)
        pooled = sweep_robust(robust_setup, workers=2, **kwargs)
        assert serial == pooled
        assert [p.label for p in serial] == [
            "none:ours", "none:robust", "outages:ours", "outages:robust",
        ]

    def test_fault_profiles_populate_uncertainty_extras(self, robust_setup):
        points = sweep_robust(
            robust_setup, profiles=("outages", "lossy"), users=1
        )
        by_label = {p.label: p for p in points}
        for profile in ("outages", "lossy"):
            ours = by_label[f"{profile}:ours"]
            robust = by_label[f"{profile}:robust"]
            assert ours.extra["sigma"] == 0.0
            assert ours.extra["expcov"] == 1.0
            assert robust.extra["sigma"] > 0.0
            assert 0.0 < robust.extra["expcov"] <= 1.0

    def test_perceptual_variant_runs_and_differs_in_label_only_shape(
        self, robust_setup
    ):
        points = sweep_robust(
            robust_setup, profiles=("none",), users=1, perceptual=True
        )
        assert {p.label for p in points} == {"none:ours", "none:robust"}

    def test_faulted_sessions_reproduce(
        self, manifest8, ptiles8, small_dataset, network_traces, device,
    ):
        # A fixed (profile, seed) pair under the robust scheme yields
        # byte-identical sessions, mirroring the resilience guarantee.
        plan = generate_fault_plan("outages", 10.0, seed=7)
        config = SessionConfig(
            max_segments=10, fault_plan=plan,
            download_policy=DownloadPolicy(),
        )
        scheme = RobustScheme(
            device=device, error_model=ACTIVE_MODEL,
            perceptual=PanoWeight(),
        )
        trace = small_dataset.test_traces(8)[0]
        a = _run(scheme, manifest8, trace, network_traces[1], device,
                 ptiles8, config)
        b = _run(scheme, manifest8, trace, network_traces[1], device,
                 ptiles8, config)
        assert a == b


class TestServingRejectsRobust:
    def test_video_planner_refuses_robust_scheme(self, manifest8, ptiles8,
                                                 device):
        from repro.serving.planner import VideoPlanner

        scheme = RobustScheme(device=device, error_model=ACTIVE_MODEL)
        with pytest.raises(ValueError, match="point-prediction"):
            VideoPlanner(scheme, manifest8, ptiles=ptiles8)
