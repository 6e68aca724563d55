"""Key soundness: a results-shard key moves with every simulation input.

The shard key of a ``(sweep context, video)`` group is composed from
keys computed where each component was built (``manifest_key``, the
``ptiles_key``/``ftiles_key`` the Ptiles and Ftiles were built or loaded
under, the raw head- and network-trace samples, a structural walk of
the small dataclasses), never from walking the built objects.  So the
contract is checked input by input:

* **Sensitivity** — Ptile parameters, one train-trace sample, one test
  head-trace sample, one network bin, a ladder rung, every
  ``SessionConfig`` field, scheme and MPC parameters and the device each
  change the key of the group they affect, and leave other groups alone
  where they do not reach them.
* **Stability** — the same inputs built twice (store off, cold, warm)
  key equally, and a video's key does not depend on which other videos
  the context holds.
* **One keying path** — a context holding Ptiles or Ftiles without
  their content key raises, and no sweep pass fingerprints a Ptile,
  Ftile or head trace object.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import OursScheme, RobustScheme
from repro.core.optimizer import MpcConfig
from repro.encoding import EncodingLadder
from repro.experiments import ArtifactStore, make_schemes, make_setup
from repro.experiments import artifacts, runner
from repro.experiments.artifacts import results_shard_key, sweep_context_digest
from repro.experiments.runner import SessionJob, SweepContext, run_session_jobs
from repro.experiments.setup import ExperimentSetup
from repro.power import GALAXY_S20, PIXEL_3
from repro.prediction import AngularErrorModel, PanoWeight
from repro.prediction.strategies import static_predictor_factory
from repro.ptile import PtileConfig
from repro.ptile.construction import Ptile, RemainderBlock, SegmentPtiles
from repro.resilience import DownloadPolicy, generate_fault_plan
from repro.streaming import EdgeHitModel
from repro.streaming.ftile import FtileCell, FtilePartition
from repro.streaming.session import SessionConfig
from repro.traces import HeadTrace
from repro.video import VideoManifest

VIDEOS = (2, 8)
USERS = 2
ALT_LADDER = EncodingLadder(crfs=(41.0, 33.0, 28.0, 23.0, 18.0))


def shard_key(context: SweepContext, video_id: int) -> str:
    """The shard key ``run_session_jobs`` files a group under."""
    return results_shard_key(
        sweep_context_digest(context.slice({video_id})), video_id
    )


def keys(context: SweepContext) -> dict[int, str]:
    return {vid: shard_key(context, vid) for vid in context.manifests}


def build_setup(**overrides) -> ExperimentSetup:
    return make_setup(max_duration_s=8, n_users=10, n_train=8,
                      video_ids=VIDEOS, **overrides)


def context_of(setup: ExperimentSetup, schemes=None, device=PIXEL_3,
               **kwargs) -> SweepContext:
    return setup.sweep_context(
        schemes or make_schemes(device), device, setup.traces(), VIDEOS,
        USERS, ftiles=True, **kwargs,
    )


@pytest.fixture(scope="module")
def setup():
    return build_setup()


@pytest.fixture(scope="module")
def context(setup):
    return context_of(setup)


@pytest.fixture(scope="module")
def base_keys(context):
    return keys(context)


def perturbed(trace: HeadTrace) -> HeadTrace:
    """The trace with its last pitch sample nudged."""
    pitch = trace.pitch.copy()
    pitch[-1] += 0.5 if pitch[-1] < 0 else -0.5
    return dataclasses.replace(trace, pitch=pitch)


def assert_moves_only(changed: dict, base: dict, videos) -> None:
    for vid in base:
        if vid in videos:
            assert changed[vid] != base[vid], f"video {vid} kept its key"
        else:
            assert changed[vid] == base[vid], f"video {vid} changed key"


class TestEachInputChangesTheKey:
    @pytest.mark.parametrize("change", [
        {"sigma": 30.0}, {"delta": 5.0}, {"min_users": 3},
    ], ids=lambda c: next(iter(c)))
    def test_ptile_config_field(self, setup, base_keys, change):
        other = dataclasses.replace(
            setup, ptile_config=PtileConfig(**change), _ptiles={}
        )
        assert_moves_only(keys(context_of(other)), base_keys, VIDEOS)

    def test_one_train_trace_sample(self, setup, base_keys):
        first = setup.dataset.train_traces(2)[0]
        traces = {
            vid: [perturbed(t) if t is first else t for t in ts]
            for vid, ts in setup.dataset.traces.items()
        }
        other = dataclasses.replace(
            setup, dataset=dataclasses.replace(setup.dataset, traces=traces),
            _manifests={}, _ptiles={}, _ftiles={},
        )
        assert_moves_only(keys(context_of(other)), base_keys, {2})

    def test_one_test_head_trace_sample(self, context, base_keys):
        heads = dict(context.head_traces)
        heads[8] = (heads[8][0], perturbed(heads[8][1]))
        changed = dataclasses.replace(context, head_traces=heads)
        assert_moves_only(keys(changed), base_keys, {8})

    def test_one_network_bin(self, context, base_keys):
        trace = context.networks["trace1"]
        bandwidth = trace.bandwidth_mbps.copy()
        bandwidth[17] += 1.0
        networks = {
            **context.networks,
            "trace1": dataclasses.replace(trace, bandwidth_mbps=bandwidth),
        }
        changed = dataclasses.replace(context, networks=networks)
        assert_moves_only(keys(changed), base_keys, VIDEOS)

    def test_ladder_rung(self, setup, base_keys):
        other = setup.with_ladders({8: ALT_LADDER})
        assert_moves_only(keys(context_of(other)), base_keys, {8})

    def test_every_session_config_field(self, context, base_keys):
        variants = {
            "segment_seconds": 2.0,
            "buffer_threshold_s": 4.0,
            "bandwidth_window": 3,
            "predictor_window_s": 1.0,
            "horizon": 3,
            "fov_deg": 90.0,
            "late_fetch_horizon_s": 1.0,
            "count_startup_stall": True,
            "max_segments": 3,
            "edge_model": EdgeHitModel(hit_ratios=(0.5,) * 8),
            "predictor_factory": static_predictor_factory,
            "fault_plan": generate_fault_plan("outages", 8.0, seed=1),
            "download_policy": DownloadPolicy(retry_budget=1),
        }
        names = {f.name for f in dataclasses.fields(SessionConfig)}
        assert set(variants) == names, "a SessionConfig field has no variant"
        seen = set()
        for name, value in variants.items():
            config = dataclasses.replace(context.config, **{name: value})
            shared = keys(dataclasses.replace(context, config=config))
            assert_moves_only(shared, base_keys, VIDEOS)
            per_video = keys(
                dataclasses.replace(context, video_configs={2: config})
            )
            assert_moves_only(per_video, base_keys, {2})
            seen.add(shared[2])
        assert len(seen) == len(variants)

    def test_fault_plan_seed(self, context):
        a, b = (
            dataclasses.replace(context, config=SessionConfig(
                fault_plan=generate_fault_plan("outages", 8.0, seed=seed)
            ))
            for seed in (1, 2)
        )
        assert shard_key(a, 2) != shard_key(b, 2)

    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(MpcConfig)
    ])
    def test_mpc_parameter(self, context, base_keys, name):
        value = getattr(MpcConfig(), name)
        config = MpcConfig(**{name: value + 1 if name == "horizon"
                              else value / 2})
        schemes = {
            **context.schemes,
            "ours": OursScheme(device=PIXEL_3, mpc_config=config),
        }
        changed = dataclasses.replace(context, schemes=schemes)
        assert_moves_only(keys(changed), base_keys, VIDEOS)

    @pytest.mark.parametrize("change", [
        {"error_model": AngularErrorModel(base_sigma_deg=9.0)},
        {"perceptual": PanoWeight()},
        {"min_expected_coverage": 0.7},
    ], ids=lambda c: next(iter(c)))
    def test_robust_parameter(self, context, change):
        base = {"robust": RobustScheme(device=PIXEL_3)}
        other = {"robust": RobustScheme(device=PIXEL_3, **change)}
        assert shard_key(
            dataclasses.replace(context, schemes=base), 2
        ) != shard_key(dataclasses.replace(context, schemes=other), 2)

    def test_device(self, setup, context, base_keys):
        assert_moves_only(
            keys(context_of(setup, device=GALAXY_S20)), base_keys, VIDEOS
        )
        # The context's device alone, with the schemes unchanged.
        changed = dataclasses.replace(context, device=GALAXY_S20)
        assert_moves_only(keys(changed), base_keys, VIDEOS)


class TestKeyProperties:
    def test_same_inputs_built_twice_key_equally(self, base_keys, tmp_path):
        assert keys(context_of(build_setup())) == base_keys
        cold = build_setup(artifacts=ArtifactStore(tmp_path))
        assert keys(context_of(cold)) == base_keys
        warm = build_setup(artifacts=ArtifactStore(tmp_path))
        assert keys(context_of(warm)) == base_keys
        assert warm.artifacts.stats.misses == {}

    def test_slice_keeps_a_videos_key(self, context, base_keys):
        for vid in VIDEOS:
            alone = context.slice({vid})
            assert set(alone.manifests) == {vid}
            assert shard_key(alone, vid) == base_keys[vid]

    def test_runner_files_each_group_under_its_key(self, context, base_keys,
                                                   tmp_path):
        jobs = [
            SessionJob(key=(vid, u), scheme="ctile", video_id=vid,
                       network="trace2", user_index=u)
            for vid in VIDEOS
            for u in range(USERS)
        ]
        run_session_jobs(context, jobs, workers=1,
                         results=ArtifactStore(tmp_path))
        shards = {p.stem for p in (tmp_path / "results-shards").glob("*.shard")}
        assert shards == set(base_keys.values())

    @pytest.mark.parametrize("kind", ["ptiles", "ftiles"])
    def test_missing_content_key_raises(self, context, kind):
        keyless = dataclasses.replace(context, **{f"{kind}_keys": {2: "x"}})
        with pytest.raises(ValueError, match=r"\[8\]"):
            sweep_context_digest(keyless)

    def test_replacing_any_field_changes_the_key(self, setup, context):
        video8 = setup.dataset.video(8)
        alt = dataclasses.replace(setup.encoder, ladder=ALT_LADDER)
        other_key = "0" * 64
        variants = {
            "schemes": {"ctile": context.schemes["ctile"]},
            "device": GALAXY_S20,
            "networks": {"trace2": context.networks["trace2"]},
            "manifests": {
                **context.manifests, 8: VideoManifest(video8, alt)
            },
            "head_traces": {
                **context.head_traces, 8: context.head_traces[8][:1]
            },
            "ptiles": {2: context.ptiles[2]},
            "ftiles": {2: context.ftiles[2]},
            "config": SessionConfig(horizon=3),
            "video_configs": {8: SessionConfig(max_segments=3)},
            "ptiles_keys": {**context.ptiles_keys, 8: other_key},
            "ftiles_keys": {**context.ftiles_keys, 8: other_key},
        }
        names = {f.name for f in dataclasses.fields(SweepContext)}
        assert set(variants) == names, "a SweepContext field has no variant"
        base = sweep_context_digest(context)
        digests = {base}
        for name, value in variants.items():
            changed = dataclasses.replace(context, **{name: value})
            digests.add(sweep_context_digest(changed))
            assert shard_key(changed, 8) != shard_key(context, 8), name
        assert len(digests) == len(variants) + 1


class TestOneKeyingPath:
    def test_no_content_object_is_fingerprinted(self, context, tmp_path,
                                                monkeypatch):
        forbidden = (Ptile, RemainderBlock, SegmentPtiles, FtileCell,
                     FtilePartition, HeadTrace, VideoManifest)
        walk = artifacts.structural_fingerprint
        walked = []

        def guarded(obj):
            if isinstance(obj, forbidden):
                walked.append(type(obj).__name__)
            return walk(obj)

        monkeypatch.setattr(artifacts, "structural_fingerprint", guarded)
        monkeypatch.setattr(runner, "structural_fingerprint", guarded)
        fresh = dataclasses.replace(context)  # a fresh shared-digest memo
        jobs = [
            SessionJob(key=u, scheme=name, video_id=2, network="trace2",
                       user_index=u)
            for name in ("ptile", "ftile")
            for u in range(USERS)
        ]
        for _ in range(2):  # cold, then warm
            run_session_jobs(fresh, jobs, workers=1,
                             results=ArtifactStore(tmp_path))
        assert walked == []

    def test_shared_digest_is_walked_once_per_context(self, context,
                                                      monkeypatch):
        fresh = dataclasses.replace(context)
        calls = []
        walk = runner.structural_fingerprint
        monkeypatch.setattr(runner, "structural_fingerprint",
                            lambda obj: calls.append(1) or walk(obj))
        first = [sweep_context_digest(fresh.slice({vid})) for vid in VIDEOS]
        again = [sweep_context_digest(fresh.slice({vid})) for vid in VIDEOS]
        assert first == again
        assert len(calls) == 1
        assert len(set(first)) == len(first)
