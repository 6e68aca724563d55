"""Standard experiment setup (paper Section V-A).

Builds the evaluation inputs every figure shares — the video catalog
with manifests, head-movement dataset with its train/test split, the two
network traces, per-video Ptiles and Ftile partitions — and provides the
session matrix runner that Figs. 9-11 slice.

Scale control: the paper's full evaluation streams every test user over
every full-length video; for quick runs ``max_duration_s`` truncates
videos and ``users_per_video`` limits the test users.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..encoding.ladder import EncodingLadder

from ..core.controller import OursScheme
from ..geometry.tiling import DEFAULT_GRID, TileGrid
from ..power.models import DevicePowerModel, PIXEL_3
from ..ptile.construction import PtileConfig, SegmentPtiles, build_video_ptiles
from ..streaming.ftile import FtilePartition, build_video_ftiles
from ..streaming.metrics import SessionResult
from ..streaming.schemes import (
    CtileScheme,
    FtileScheme,
    NontileScheme,
    PtileScheme,
    StreamingScheme,
)
from ..streaming.session import SessionConfig
from ..traces.dataset import EvaluationDataset, build_dataset
from ..traces.network import NetworkTrace, paper_traces
from ..video.content import Video
from ..video.encoder import EncoderModel
from ..video.segments import VideoManifest
from .artifacts import ArtifactStore, ftiles_key, manifest_key, ptiles_key
from .runner import SessionJob, SweepContext, parallel_map, run_session_jobs

__all__ = ["ExperimentSetup", "make_setup", "SCHEME_ORDER", "make_schemes",
           "build_sweep", "run_comparison"]

SCHEME_ORDER = ("ctile", "ftile", "nontile", "ptile", "ours")
"""The schemes of Section V-A, in the paper's presentation order."""


@dataclass
class ExperimentSetup:
    """Shared inputs for all evaluation experiments.

    When ``artifacts`` is set, manifests, Ptiles, and Ftile partitions
    are loaded from / persisted to the disk-backed
    :class:`~repro.experiments.artifacts.ArtifactStore` instead of being
    rebuilt; :meth:`prepare` additionally fans cold Ptile/Ftile
    construction out across a process pool.  Results are byte-identical
    with the store on or off — the store only skips recomputation.
    """

    dataset: EvaluationDataset
    encoder: EncoderModel
    trace1: NetworkTrace
    trace2: NetworkTrace
    grid: TileGrid = DEFAULT_GRID
    ptile_config: PtileConfig = field(default_factory=PtileConfig)
    session_config: SessionConfig = field(default_factory=SessionConfig)
    artifacts: ArtifactStore | None = None
    ladders: dict[int, EncodingLadder] = field(default_factory=dict)
    _manifests: dict[int, VideoManifest] = field(default_factory=dict, repr=False)
    _ptiles: dict[int, list[SegmentPtiles]] = field(default_factory=dict, repr=False)
    _ftiles: dict[int, list[FtilePartition]] = field(default_factory=dict, repr=False)

    @property
    def videos(self) -> tuple[Video, ...]:
        return self.dataset.videos

    def encoder_for(self, video_id: int) -> EncoderModel:
        """The encoder pricing one video: the shared model, with the
        video's own ladder swapped in when ``ladders`` overrides it."""
        ladder = self.ladders.get(video_id)
        if ladder is None or ladder == self.encoder.ladder:
            return self.encoder
        return dataclasses.replace(self.encoder, ladder=ladder)

    def with_ladders(
        self, ladders: dict[int, EncodingLadder]
    ) -> "ExperimentSetup":
        """A sibling setup whose videos encode under per-video ladders.

        Manifests are rebuilt lazily under the new ladders (their
        artifact keys differ via the encoder fingerprint); Ptile and
        Ftile construction depends only on head traces and geometry, so
        the prepared caches are shared with the parent.
        """
        return dataclasses.replace(
            self, ladders=dict(ladders), _manifests={}
        )

    def manifest(self, video_id: int) -> VideoManifest:
        if video_id not in self._manifests:
            video = self.dataset.video(video_id)
            encoder = self.encoder_for(video_id)
            built = None
            key = None
            if self.artifacts is not None:
                key = manifest_key(video, encoder)
                built = self.artifacts.get("manifest", key)
            if built is None:
                built = VideoManifest(video, encoder)
                if self.artifacts is not None:
                    self.artifacts.put("manifest", key, built)
            self._manifests[video_id] = built
        return self._manifests[video_id]

    def ptiles(self, video_id: int) -> list[SegmentPtiles]:
        if video_id not in self._ptiles:
            self.prepare((video_id,), manifests=False, ftiles=False)
        return self._ptiles[video_id]

    def ftiles(self, video_id: int) -> list[FtilePartition]:
        if video_id not in self._ftiles:
            self.prepare((video_id,), manifests=False, ptiles=False)
        return self._ftiles[video_id]

    def prepare(
        self,
        video_ids: tuple[int, ...] | None = None,
        *,
        workers: int | None = 1,
        manifests: bool = True,
        ptiles: bool = True,
        ftiles: bool = True,
    ) -> None:
        """Build (or load from the artifact store) the content-prep
        artifacts for a set of videos.

        Warm artifacts deserialize from disk and skip construction
        entirely; cold Ptile/Ftile construction (Algorithm 1 clustering
        + cluster split + coverage, the expensive phase) fans out across
        videos on a process pool when ``workers`` allows.  Construction
        is a pure per-video function, so results are identical at any
        worker count.
        """
        if video_ids is None:
            video_ids = tuple(v.meta.video_id for v in self.videos)
        if manifests:
            for vid in video_ids:
                self.manifest(vid)

        todo: list[tuple[int, bool, bool]] = []
        for vid in video_ids:
            need_pt = ptiles and vid not in self._ptiles
            need_ft = ftiles and vid not in self._ftiles
            if self.artifacts is not None:
                video = self.dataset.video(vid)
                train = self.dataset.train_traces(vid)
                if need_pt:
                    got = self.artifacts.get(
                        "ptiles",
                        ptiles_key(video, train, self.grid, self.ptile_config),
                    )
                    if got is not None:
                        self._ptiles[vid] = got
                        need_pt = False
                if need_ft:
                    got = self.artifacts.get(
                        "ftiles", ftiles_key(video, train)
                    )
                    if got is not None:
                        self._ftiles[vid] = got
                        need_ft = False
            if need_pt or need_ft:
                todo.append((vid, need_pt, need_ft))
        if not todo:
            return

        items = [
            (
                self.dataset.video(vid),
                self.dataset.train_traces(vid),
                self.grid,
                self.ptile_config,
                need_pt,
                need_ft,
            )
            for vid, need_pt, need_ft in todo
        ]
        if len(items) > 1 and workers != 1:
            results = parallel_map(
                _prepare_video_task, items, workers=workers
            ).results
        else:
            results = [_prepare_video_task(item) for item in items]
        for (vid, need_pt, need_ft), (built_pt, built_ft) in zip(todo, results):
            if need_pt:
                self._ptiles[vid] = built_pt
                if self.artifacts is not None:
                    video = self.dataset.video(vid)
                    train = self.dataset.train_traces(vid)
                    self.artifacts.put(
                        "ptiles",
                        ptiles_key(video, train, self.grid, self.ptile_config),
                        built_pt,
                    )
            if need_ft:
                self._ftiles[vid] = built_ft
                if self.artifacts is not None:
                    video = self.dataset.video(vid)
                    train = self.dataset.train_traces(vid)
                    self.artifacts.put(
                        "ftiles", ftiles_key(video, train), built_ft
                    )

    def traces(self) -> dict[str, NetworkTrace]:
        return {"trace1": self.trace1, "trace2": self.trace2}


def _prepare_video_task(
    item: tuple,
) -> tuple[list[SegmentPtiles] | None, list[FtilePartition] | None]:
    """Build one video's missing content-prep artifacts (any process)."""
    video, train_traces, grid, config, need_ptiles, need_ftiles = item
    built_ptiles = (
        build_video_ptiles(video, train_traces, grid, config)
        if need_ptiles
        else None
    )
    built_ftiles = (
        build_video_ftiles(video, train_traces) if need_ftiles else None
    )
    return built_ptiles, built_ftiles


def make_setup(
    max_duration_s: int | None = None,
    n_users: int = 48,
    n_train: int = 40,
    seed: int = 2017,
    video_ids: tuple[int, ...] | None = None,
    artifacts: ArtifactStore | None = None,
) -> ExperimentSetup:
    """Build the standard experiment setup.

    ``artifacts`` enables the disk-backed content-prep cache (see
    :mod:`repro.experiments.artifacts`); the default keeps it off so
    library callers opt in explicitly (the CLI opts in for them).
    """
    dataset = build_dataset(
        n_users=n_users,
        n_train=n_train,
        seed=seed,
        video_ids=video_ids,
        max_duration_s=max_duration_s,
    )
    trace1, trace2 = paper_traces()
    return ExperimentSetup(
        dataset=dataset,
        encoder=EncoderModel(),
        trace1=trace1,
        trace2=trace2,
        artifacts=artifacts,
    )


def make_schemes(device: DevicePowerModel = PIXEL_3) -> dict[str, StreamingScheme]:
    """The five compared schemes, keyed by name."""
    return {
        "ctile": CtileScheme(),
        "ftile": FtileScheme(),
        "nontile": NontileScheme(),
        "ptile": PtileScheme(),
        "ours": OursScheme(device=device),
    }


def build_sweep(
    setup: ExperimentSetup,
    device: DevicePowerModel = PIXEL_3,
    users_per_video: int | None = None,
    video_ids: tuple[int, ...] | None = None,
    scheme_names: tuple[str, ...] = SCHEME_ORDER,
    workers: int | None = 1,
) -> tuple[SweepContext, list[SessionJob]]:
    """Build the Section V-C session matrix as (context, jobs).

    Jobs are ordered video -> trace -> scheme -> user, matching the
    historical serial loop so that results keep the same dict ordering.
    ``video_ids=None`` sweeps the whole catalog; an explicit (possibly
    empty) tuple sweeps exactly those videos.  ``workers`` fans cold
    content preparation across videos (warm artifact-store runs skip
    construction regardless).
    """
    schemes = make_schemes(device)
    unknown = set(scheme_names) - set(schemes)
    if unknown:
        raise KeyError(f"unknown schemes {sorted(unknown)}")
    known_videos = {v.meta.video_id for v in setup.videos}
    if video_ids is None:
        wanted = tuple(v.meta.video_id for v in setup.videos)
    else:
        wanted = tuple(video_ids)
        unknown_videos = [v for v in wanted if v not in known_videos]
        if unknown_videos:
            raise KeyError(f"unknown video ids {sorted(set(unknown_videos))}")
    setup.prepare(wanted, workers=workers)

    manifests: dict[int, VideoManifest] = {}
    ptiles: dict[int, list[SegmentPtiles]] = {}
    ftiles: dict[int, list[FtilePartition]] = {}
    heads: dict[int, tuple] = {}
    for vid in wanted:
        manifests[vid] = setup.manifest(vid)
        ptiles[vid] = setup.ptiles(vid)
        ftiles[vid] = setup.ftiles(vid)
        test_traces = setup.dataset.test_traces(vid)
        if users_per_video is not None:
            test_traces = test_traces[:users_per_video]
        heads[vid] = tuple(test_traces)

    context = SweepContext(
        schemes=schemes,
        device=device,
        networks=setup.traces(),
        manifests=manifests,
        head_traces=heads,
        ptiles=ptiles,
        ftiles=ftiles,
        config=setup.session_config,
    )
    jobs = [
        SessionJob(
            key=(trace_name, name, vid),
            scheme=name,
            video_id=vid,
            network=trace_name,
            user_index=user,
        )
        for vid in wanted
        for trace_name in context.networks
        for name in scheme_names
        for user in range(len(heads[vid]))
    ]
    return context, jobs


def run_comparison(
    setup: ExperimentSetup,
    device: DevicePowerModel = PIXEL_3,
    users_per_video: int | None = None,
    video_ids: tuple[int, ...] | None = None,
    scheme_names: tuple[str, ...] = SCHEME_ORDER,
    workers: int | None = 1,
    chunk_size: int | None = None,
    results_store: ArtifactStore | None = None,
) -> dict[tuple[str, str, int], list[SessionResult]]:
    """Run the full session matrix of Section V-C.

    Returns ``{(trace_name, scheme_name, video_id): [SessionResult]}``
    with one result per test user.  This single matrix backs Fig. 9
    (energy, Pixel 3), Fig. 10 (other devices) and Fig. 11 (QoE).

    ``workers`` fans the sessions over a process pool (0 = auto-detect,
    1 = serial), and likewise fans out cold content preparation across
    videos; results are identical for any worker count, and identical
    with the artifact store on or off.  ``results_store`` additionally
    serves previously computed sessions from the results cache (see
    :func:`~repro.experiments.runner.run_session_jobs`), read from and
    written to columnar per-(context, video) shards — one file open per
    video group, not one per session — with identical results.
    """
    context, jobs = build_sweep(
        setup, device, users_per_video, video_ids, scheme_names,
        workers=workers,
    )
    run = run_session_jobs(
        context, jobs, workers=workers, chunk_size=chunk_size,
        results=results_store,
    )
    results: dict[tuple[str, str, int], list[SessionResult]] = {}
    for job, result in zip(jobs, run.results):
        results.setdefault(job.key, []).append(result)
    return results
