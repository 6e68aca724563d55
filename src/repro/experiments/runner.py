"""Parallel execution of session sweeps.

The paper's headline results come from large session matrices — schemes
x videos x users x network traces x devices — and every session is
independent of every other.  This module fans those sessions out over a
:class:`concurrent.futures.ProcessPoolExecutor` while keeping the
results **deterministic**: results are returned in job-submission order
regardless of worker scheduling, and each session is a pure function of
its inputs, so a parallel sweep is byte-identical to a serial one.

Design:

* A :class:`SweepContext` holds the shared heavyweight inputs (schemes,
  manifests, Ptiles, traces) and is shipped **once per worker** through
  the pool initializer instead of once per job.
* A :class:`SessionJob` is a tiny picklable reference into the context
  (scheme name, video id, trace name, user index) plus an optional
  per-job :class:`SessionConfig` override.
* :func:`run_session_groups` runs several ``(context, jobs)`` groups as
  one sweep over one pool, whose workers keep their memos warm across
  groups; :func:`run_session_jobs` is its one-group form.
* Jobs are grouped into contiguous **chunks** to amortize inter-process
  dispatch; ``chunk_size=None`` picks ``ceil(len(jobs) / (workers * 4))``
  so each worker gets ~4 waves of work for load balancing.
* ``workers=1`` (the default everywhere) runs serially in-process with
  no pool at all; ``workers=0``/``None`` auto-detects ``os.cpu_count()``.
  If the pool cannot be created (e.g. a sandbox without process
  spawning), the runner degrades to the serial path instead of failing.
* Every job is timed and failures are captured as structured
  :class:`JobFailure` records (message + traceback) instead of killing
  the whole sweep; ``strict=True`` raises after the sweep completes.

:func:`parallel_map` offers the same machinery for non-session work
(e.g. per-video catalog statistics in Fig. 2).
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

from .. import fold_sum
from ..power.models import DevicePowerModel
from ..ptile.construction import SegmentPtiles
from .artifacts import (
    ArtifactStore,
    content_digest,
    results_shard_key,
    session_job_digest,
    structural_fingerprint,
    sweep_context_digest,
)
from ..streaming.ftile import FtilePartition
from ..streaming.metrics import SessionResult
from ..streaming.schemes import StreamingScheme
from ..streaming.session import SessionConfig, SessionKernel
from ..traces.head_movement import HeadTrace
from ..traces.network import NetworkTrace
from ..video.segments import VideoManifest

__all__ = [
    "SessionJob",
    "SweepContext",
    "JobTiming",
    "JobFailure",
    "SweepRun",
    "resolve_workers",
    "resolve_chunk_size",
    "run_session_groups",
    "run_session_jobs",
    "parallel_map",
]


@dataclass(frozen=True)
class SessionJob:
    """One streaming session, referencing shared inputs by key.

    ``key`` is an arbitrary caller-side label (e.g. ``(trace, scheme,
    video_id)``) carried through to the report; it does not need to be
    unique.
    """

    key: Hashable
    scheme: str
    video_id: int
    network: str
    user_index: int
    use_ptiles: bool = True
    use_ftiles: bool = True
    config: SessionConfig | None = None  # overrides the context default


@dataclass(frozen=True)
class SweepContext:
    """Shared sweep inputs, shipped once to each worker process.

    A value: derive a changed one with ``dataclasses.replace``, never by
    mutating its dicts, since its keys describe it as it was built.
    """

    schemes: dict[str, StreamingScheme]
    device: DevicePowerModel
    networks: dict[str, NetworkTrace]
    manifests: dict[int, VideoManifest]
    head_traces: dict[int, tuple[HeadTrace, ...]]
    ptiles: dict[int, list[SegmentPtiles]] = field(default_factory=dict)
    ftiles: dict[int, list[FtilePartition]] = field(default_factory=dict)
    config: SessionConfig = field(default_factory=SessionConfig)
    # Per-video SessionConfig overrides (e.g. a contention-aware
    # EdgeHitModel per tenant of a shared edge cache).  Resolution order
    # per job: job.config, then video_configs[video_id], then config.
    video_configs: dict[int, SessionConfig] = field(default_factory=dict)
    # The ptiles_key/ftiles_key each video's Ptiles/Ftiles were built or
    # loaded under (ExperimentSetup.sweep_context pairs them); results
    # are keyed by these, never by walking the built objects.
    ptiles_keys: dict[int, str] = field(default_factory=dict)
    ftiles_keys: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # One-slot memo of shared_digest(), handed on by slice().
        object.__setattr__(self, "_shared_digest", [])

    def shared_digest(self) -> str:
        """Digest of the fields every video shares (schemes, device,
        networks, session config), walked once per context and its
        slices, which share those objects."""
        if not self._shared_digest:
            self._shared_digest.append(content_digest(structural_fingerprint(
                (self.schemes, self.device, self.networks, self.config)
            )))
        return self._shared_digest[0]

    def slice(self, video_ids) -> "SweepContext":
        """A context restricted to the given videos.

        The per-video dicts (manifests, Ptiles, Ftiles, head traces)
        dominate the pickled payload shipped to each worker; slicing to
        the videos a job batch actually references keeps the per-worker
        transfer proportional to the sweep, not the catalog.  Returns
        ``self`` unchanged when nothing would be dropped.
        """
        wanted = set(video_ids)
        per_video = {name: getattr(self, name) for name in _PER_VIDEO_FIELDS}
        if all(values.keys() <= wanted for values in per_video.values()):
            return self
        sliced = dataclasses.replace(self, **{
            name: {k: v for k, v in values.items() if k in wanted}
            for name, values in per_video.items()
        })
        object.__setattr__(sliced, "_shared_digest", self._shared_digest)
        return sliced

    def run_job(self, job: SessionJob) -> SessionResult:
        """Execute one job against this context (pure; any process)."""
        return self.run_jobs([job])[0]

    def config_for(self, job: SessionJob) -> SessionConfig:
        """The job's config, else its video's, else the context's."""
        return (job.config or self.video_configs.get(job.video_id)
                or self.config)

    def run_jobs(self, jobs: Sequence[SessionJob]) -> list[SessionResult]:
        """Execute jobs of one video and one :meth:`config_for` as one
        batch of kernel rows; each result is the one :meth:`run_job`
        gives."""
        video_id = jobs[0].video_id
        try:
            manifest = self.manifests[video_id]
        except KeyError:
            raise KeyError(f"unknown video {video_id!r}") from None
        heads = self.head_traces[video_id]
        rows = []
        for job in jobs:
            try:
                scheme = self.schemes[job.scheme]
            except KeyError:
                raise KeyError(f"unknown scheme {job.scheme!r}") from None
            try:
                network = self.networks[job.network]
            except KeyError:
                raise KeyError(f"unknown network {job.network!r}") from None
            if not (0 <= job.user_index < len(heads)):
                raise IndexError(
                    f"user index {job.user_index} outside 0..{len(heads) - 1}"
                    f" for video {video_id}"
                )
            rows.append((
                scheme, heads[job.user_index], network,
                self.ptiles.get(video_id) if job.use_ptiles else None,
                self.ftiles.get(video_id) if job.use_ftiles else None,
            ))
        kernel = SessionKernel(manifest, self.device,
                               config=self.config_for(jobs[0]))
        return kernel.sessions(rows)


_PER_VIDEO_FIELDS = (  # the SweepContext fields keyed by video id
    "manifests", "head_traces", "ptiles", "ftiles", "video_configs",
    "ptiles_keys", "ftiles_keys",
)


@dataclass(frozen=True)
class JobTiming:
    """Wall-clock timing of one executed job."""

    key: Hashable
    worker: str  # "serial" or "pid:<n>"
    elapsed_s: float


@dataclass(frozen=True)
class JobFailure:
    """A job that raised, with enough context to reproduce it."""

    key: Hashable
    job_index: int
    error: str
    traceback: str


@dataclass
class SweepRun:
    """Outcome of a sweep: results in job order plus execution telemetry."""

    results: list[Any]  # job order; None where the job failed
    timings: list[JobTiming]
    failures: list[JobFailure]
    workers: int
    chunk_size: int
    wall_s: float
    cache_hits: int = 0  # jobs served from the results store

    @property
    def num_jobs(self) -> int:
        return len(self.results)

    @property
    def sessions_per_second(self) -> float:
        if self.wall_s <= 0:
            return float("inf")
        return self.num_jobs / self.wall_s

    def raise_on_failure(self) -> None:
        if not self.failures:
            return
        lines = [f"{len(self.failures)}/{self.num_jobs} sweep jobs failed:"]
        for failure in self.failures[:5]:
            lines.append(f"  job {failure.job_index} {failure.key!r}: "
                         f"{failure.error}")
        if len(self.failures) > 5:
            lines.append(f"  ... and {len(self.failures) - 5} more")
        lines.append(self.failures[0].traceback)
        raise RuntimeError("\n".join(lines))

    def report(self) -> list[str]:
        """Human-readable execution summary."""
        lines = [
            f"sweep: {self.num_jobs} jobs, {self.workers} worker(s),"
            f" chunks of {self.chunk_size}, {self.wall_s:.2f}s wall"
            f" ({self.sessions_per_second:.2f} jobs/s)",
        ]
        if self.cache_hits:
            lines.append(
                f"  {self.cache_hits}/{self.num_jobs} job(s) served from"
                " the results cache"
            )
        if self.timings:
            total = fold_sum(t.elapsed_s for t in self.timings)
            slowest = max(self.timings, key=lambda t: t.elapsed_s)
            lines.append(
                f"  cpu-time {total:.2f}s; slowest job {slowest.key!r}"
                f" at {slowest.elapsed_s:.2f}s"
            )
        for failure in self.failures:
            lines.append(f"  FAILED job {failure.job_index} {failure.key!r}:"
                         f" {failure.error}")
        return lines


def resolve_workers(workers: int | None) -> int:
    """``None``/``0`` -> auto-detect CPU count; otherwise validate."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(
            f"invalid worker count {workers}: pass a positive number of "
            "worker processes, or 0/None to auto-detect the CPU count"
        )
    return workers


def resolve_chunk_size(
    chunk_size: int | None, num_jobs: int, workers: int
) -> int:
    """Default: ~4 waves of chunks per worker, at least one job each."""
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValueError("chunk size must be >= 1")
        return chunk_size
    if num_jobs <= 0 or workers <= 1:
        return max(num_jobs, 1)
    return max(1, math.ceil(num_jobs / (workers * 4)))


def _chunked(indices: range, chunk_size: int) -> list[list[int]]:
    return [
        list(indices[i : i + chunk_size])
        for i in range(0, len(indices), chunk_size)
    ]


# ----------------------------------------------------------------------
# Worker-process plumbing.  The payload — (function, items), where the
# function is a mapped function or a _GroupRunner holding every group's
# sweep context — is shipped once per worker via the pool initializer
# and stashed in a module global; chunk tasks then reference items by
# index only, so per-task pickling stays tiny no matter how heavy the
# shared inputs are.
# ----------------------------------------------------------------------

_WORKER_PAYLOAD: tuple[Callable, tuple[Any, ...]] | None = None


def _init_worker(payload: tuple[Callable, tuple[Any, ...]]) -> None:
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload


def _run_indexed(
    execute: Callable[[Any], Any],
    items: Sequence[Any],
    indices: list[int],
) -> list[tuple[int, Any, tuple[str, str] | None, float]]:
    """Run a chunk; never raises — failures become structured entries.

    An ``execute`` with a ``batches`` method runs each batch it forms
    from the chunk in one ``run_batch`` call (each job's time is its
    share of the batch); a batch that raises re-runs its jobs one at a
    time, so every failure stays attributed to its own job.
    """
    out = []
    for batch in getattr(execute, "batches", lambda _, i: [[x] for x in i])(
        items, indices
    ):
        if len(batch) > 1:
            start = time.perf_counter()
            try:
                results = execute.run_batch([items[i] for i in batch])
            except Exception:  # noqa: BLE001 - re-run one at a time below
                pass
            else:
                share = (time.perf_counter() - start) / len(batch)
                out.extend((i, r, None, share) for i, r in zip(batch, results))
                continue
        for i in batch:
            start = time.perf_counter()
            try:
                result = execute(items[i])
                error = None
            except Exception as exc:  # noqa: BLE001 - reported to the caller
                result = None
                error = (f"{type(exc).__name__}: {exc}", traceback.format_exc())
            out.append((i, result, error, time.perf_counter() - start))
    return out


def _worker_chunk(indices: list[int]):
    payload = _WORKER_PAYLOAD
    assert payload is not None, "worker used before initialization"
    execute, items = payload
    return _run_indexed(execute, items, indices)


def _execute_sweep(
    execute: Callable[[Any], Any],
    items: Sequence[Any],
    keys: Sequence[Hashable],
    workers: int | None,
    chunk_size: int | None,
) -> SweepRun:
    """Shared serial/parallel driver behind the public entry points."""
    items = tuple(items)
    n = len(items)
    resolved = resolve_workers(workers)
    resolved = min(resolved, max(n, 1))
    chunk = resolve_chunk_size(chunk_size, n, resolved)
    start = time.perf_counter()

    raw: list[tuple[int, Any, tuple[str, str] | None, float] | None]
    raw = [None] * n
    used_workers = resolved
    if resolved > 1 and n > 1:
        try:
            with ProcessPoolExecutor(
                max_workers=resolved,
                initializer=_init_worker,
                initargs=((execute, items),),
            ) as pool:
                futures = [
                    pool.submit(_worker_chunk, indices)
                    for indices in _chunked(range(n), chunk)
                ]
                for future in futures:
                    for entry in future.result():
                        raw[entry[0]] = entry
        except (OSError, PermissionError):
            # Pool creation can fail in restricted environments (no
            # /dev/shm, no process spawning); degrade to serial.
            used_workers = 1
            raw = [None] * n
    else:
        used_workers = 1

    if used_workers == 1:
        for indices in _chunked(range(n), chunk):
            for entry in _run_indexed(execute, items, indices):
                raw[entry[0]] = entry

    worker_label = "serial" if used_workers == 1 else "pool"
    results: list[Any] = [None] * n
    timings: list[JobTiming] = []
    failures: list[JobFailure] = []
    for i, entry in enumerate(raw):
        assert entry is not None, f"job {i} produced no outcome"
        _, result, error, elapsed = entry
        results[i] = result
        timings.append(JobTiming(keys[i], worker_label, elapsed))
        if error is not None:
            failures.append(JobFailure(keys[i], i, error[0], error[1]))
    return SweepRun(
        results=results,
        timings=timings,
        failures=failures,
        workers=used_workers,
        chunk_size=chunk,
        wall_s=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class _GroupRunner:
    """Runs ``(group index, job)`` items against their group's context;
    picklable, so one pool ships every group's context at once.  A
    chunk's jobs of one group, video and config run as one batch."""

    contexts: tuple[SweepContext, ...]

    def __call__(self, item: tuple[int, SessionJob]) -> SessionResult:
        group, job = item
        return self.contexts[group].run_job(job)

    def batches(self, items, indices: list[int]) -> list[list[int]]:
        batches: dict[tuple, list[int]] = {}
        for i in indices:
            group, job = items[i]
            config = self.contexts[group].config_for(job)
            batches.setdefault((group, job.video_id, id(config)), []).append(i)
        return list(batches.values())

    def run_batch(self, items) -> list[SessionResult]:
        return self.contexts[items[0][0]].run_jobs([job for _, job in items])


def run_session_groups(
    groups: Sequence[tuple[SweepContext, Sequence[SessionJob]]],
    *,
    workers: int | None = 1,
    chunk_size: int | None = None,
    strict: bool = True,
    results: ArtifactStore | None = None,
) -> SweepRun:
    """Run several ``(context, jobs)`` groups of session jobs as one
    sweep, serially or across one process pool.

    ``SweepRun.results`` holds one :class:`SessionResult` per job, in
    group order and then job order, independent of scheduling — a
    parallel sweep returns byte-identical results to a serial one.
    Failures carry the job's flat index in that order.  With ``strict``
    (default) any failure raises after the sweep; otherwise failed
    slots are ``None`` and described in ``SweepRun.failures``.

    Each group's context is sliced to the videos its jobs reference, and
    one pool (``workers`` > 1) receives every group's slice once.

    Each job is keyed by its group's shard key (the digest of that
    group's context sliced to the job's video) and its own job digest,
    so a key names the same session in any group; each distinct key
    runs once and fills every slot that shares it.  With a ``results``
    store, each shard is read once, with every distinct key it serves;
    hits skip execution, and each shard takes one merge of its fresh
    results.  A warm re-run is thus pure deserialization while staying
    byte-identical to an uncached one.
    """
    start = time.perf_counter()
    # Ship only the videos each group's jobs reference; each worker's
    # payload is then the groups' slices of their contexts.
    groups = [
        (context.slice({job.video_id for job in jobs}), tuple(jobs))
        for context, jobs in groups
    ]
    flat = [(g, job) for g, (_, jobs) in enumerate(groups) for job in jobs]
    merged: list[Any] = [None] * len(flat)
    shard_keys = [
        {
            video_id: results_shard_key(
                sweep_context_digest(context.slice({video_id})), video_id
            )
            for video_id in dict.fromkeys(job.video_id for job in jobs)
        }
        for context, jobs in groups
    ]
    rows: dict[str, dict[str, list[int]]] = {}  # shard -> digest -> slots
    for i, (g, job) in enumerate(flat):
        rows.setdefault(shard_keys[g][job.video_id], {}).setdefault(
            session_job_digest(job), []
        ).append(i)
    # Distinct executions, each with the flat slots it fills and the
    # (shard key, job digest) it is merged under.
    pending: list[tuple[list[int], tuple[str, str]]] = []
    for shard_key, slots_of in rows.items():
        digests = list(slots_of)
        hits = (
            [None] * len(digests) if results is None
            else results.get_results_batch(shard_key, digests)
        )
        for digest, hit in zip(digests, hits):
            if hit is None:
                pending.append((slots_of[digest], (shard_key, digest)))
            else:
                for i in slots_of[digest]:
                    merged[i] = hit
    pending.sort(key=lambda entry: entry[0][0])  # run in job order
    run = _execute_sweep(
        _GroupRunner(tuple(context for context, _ in groups)),
        [flat[slots[0]] for slots, _ in pending],
        [flat[slots[0]][1].key for slots, _ in pending],
        workers,
        chunk_size,
    )
    failed = {failure.job_index: failure for failure in run.failures}
    failures: list[JobFailure] = []
    fresh: dict[str, dict[str, Any]] = {}  # shard key -> {job digest: result}
    for position, (slots, row) in enumerate(pending):
        failure = failed.get(position)
        for i in slots:
            merged[i] = run.results[position]
            if failure is not None:
                failures.append(JobFailure(
                    flat[i][1].key, i, failure.error, failure.traceback
                ))
        if failure is None and results is not None:
            fresh.setdefault(row[0], {})[row[1]] = run.results[position]
    for shard_key, entries in fresh.items():
        results.merge_shard(shard_key, entries)
    failures.sort(key=lambda failure: failure.job_index)

    sweep = SweepRun(
        results=merged,
        timings=run.timings,
        failures=failures,
        workers=run.workers,
        chunk_size=run.chunk_size,
        wall_s=time.perf_counter() - start,
        cache_hits=len(flat) - sum(len(slots) for slots, _ in pending),
    )
    if strict:
        sweep.raise_on_failure()
    return sweep


def run_session_jobs(
    context: SweepContext,
    jobs: Sequence[SessionJob],
    *,
    workers: int | None = 1,
    chunk_size: int | None = None,
    strict: bool = True,
    results: ArtifactStore | None = None,
) -> SweepRun:
    """Run one context's session jobs: the one-group form of
    :func:`run_session_groups`, with results in job order."""
    return run_session_groups(
        [(context, jobs)], workers=workers, chunk_size=chunk_size,
        strict=strict, results=results,
    )


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    workers: int | None = 1,
    chunk_size: int | None = None,
    strict: bool = True,
) -> SweepRun:
    """Order-preserving parallel map with the sweep machinery.

    ``fn`` must be picklable (a module-level function) for ``workers >
    1``; with ``workers=1`` any callable works.
    """
    items = tuple(items)
    run = _execute_sweep(
        fn,
        items,
        list(range(len(items))),
        workers,
        chunk_size,
    )
    if strict:
        run.raise_on_failure()
    return run
