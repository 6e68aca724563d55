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

import math
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

from ..power.models import DevicePowerModel
from ..ptile.construction import SegmentPtiles
from .artifacts import (
    ArtifactStore,
    results_shard_key,
    session_job_digest,
    sweep_context_digest,
)
from ..streaming.ftile import FtilePartition
from ..streaming.metrics import SessionResult
from ..streaming.schemes import StreamingScheme
from ..streaming.session import SessionConfig, run_session
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
    """Shared sweep inputs, shipped once to each worker process."""

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

    def slice(self, video_ids) -> "SweepContext":
        """A context restricted to the given videos.

        The per-video dicts (manifests, Ptiles, Ftiles, head traces)
        dominate the pickled payload shipped to each worker; slicing to
        the videos a job batch actually references keeps the per-worker
        transfer proportional to the sweep, not the catalog.  Returns
        ``self`` unchanged when nothing would be dropped.
        """
        wanted = set(video_ids)
        keys = (
            set(self.manifests) | set(self.head_traces)
            | set(self.ptiles) | set(self.ftiles) | set(self.video_configs)
        )
        if keys <= wanted:
            return self
        return SweepContext(
            schemes=self.schemes,
            device=self.device,
            networks=self.networks,
            manifests={k: v for k, v in self.manifests.items() if k in wanted},
            head_traces={
                k: v for k, v in self.head_traces.items() if k in wanted
            },
            ptiles={k: v for k, v in self.ptiles.items() if k in wanted},
            ftiles={k: v for k, v in self.ftiles.items() if k in wanted},
            config=self.config,
            video_configs={
                k: v for k, v in self.video_configs.items() if k in wanted
            },
        )

    def run_job(self, job: SessionJob) -> SessionResult:
        """Execute one job against this context (pure; any process)."""
        try:
            scheme = self.schemes[job.scheme]
        except KeyError:
            raise KeyError(f"unknown scheme {job.scheme!r}") from None
        try:
            network = self.networks[job.network]
        except KeyError:
            raise KeyError(f"unknown network {job.network!r}") from None
        try:
            manifest = self.manifests[job.video_id]
        except KeyError:
            raise KeyError(f"unknown video {job.video_id!r}") from None
        heads = self.head_traces[job.video_id]
        if not (0 <= job.user_index < len(heads)):
            raise IndexError(
                f"user index {job.user_index} outside 0..{len(heads) - 1}"
                f" for video {job.video_id}"
            )
        config = (
            job.config
            or self.video_configs.get(job.video_id)
            or self.config
        )
        return run_session(
            scheme,
            manifest,
            heads[job.user_index],
            network,
            self.device,
            ptiles=self.ptiles.get(job.video_id) if job.use_ptiles else None,
            ftiles=self.ftiles.get(job.video_id) if job.use_ftiles else None,
            config=config,
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
            total = sum(t.elapsed_s for t in self.timings)
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
# Worker-process plumbing.  The payload — (executable, items) where the
# executable is a SweepContext or a mapped function — is shipped once
# per worker via the pool initializer and stashed in a module global;
# chunk tasks then reference jobs by index only, so per-task pickling
# stays tiny no matter how heavy the shared inputs are.
# ----------------------------------------------------------------------

_WORKER_PAYLOAD: tuple[Any, tuple[Any, ...]] | None = None


def _init_worker(payload: tuple[Any, tuple[Any, ...]]) -> None:
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload


def _payload_execute(payload: tuple[Any, tuple[Any, ...]]) -> Callable:
    executable, _ = payload
    if isinstance(executable, SweepContext):
        return executable.run_job
    return executable


def _run_indexed(
    execute: Callable[[Any], Any],
    items: Sequence[Any],
    indices: list[int],
) -> list[tuple[int, Any, tuple[str, str] | None, float]]:
    """Run a chunk; never raises — failures become structured entries."""
    out = []
    for i in indices:
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
    _, items = payload
    return _run_indexed(_payload_execute(payload), items, indices)


def _execute_sweep(
    executable: Any,
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
                initargs=((executable, items),),
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


def run_session_jobs(
    context: SweepContext,
    jobs: Sequence[SessionJob],
    *,
    workers: int | None = 1,
    chunk_size: int | None = None,
    strict: bool = True,
    results: ArtifactStore | None = None,
) -> SweepRun:
    """Run session jobs, serially or across processes.

    ``SweepRun.results`` holds one :class:`SessionResult` per job, in
    job order, independent of scheduling — a parallel sweep returns
    byte-identical results to a serial one.  With ``strict`` (default)
    any failure raises after the sweep; otherwise failed slots are
    ``None`` and described in ``SweepRun.failures``.

    With a ``results`` store, jobs are grouped by video and each
    (sweep-context digest, video) group is looked up in its columnar
    shard with a single read, one row per job digest.  Hits skip
    execution entirely and fresh results append-merge back into their
    group's shard, so a warm re-run of an identical sweep is pure
    deserialization while staying byte-identical to an uncached one.
    Only the cache misses hit the pool, and cached/computed results
    merge back in job order.
    """
    jobs = tuple(jobs)
    # Ship only the videos these jobs reference; each worker's payload
    # is then the jobs' slice of the context, not the whole catalog.
    context = context.slice({job.video_id for job in jobs})
    if results is None or not jobs:
        run = _execute_sweep(
            context,
            context.run_job,
            jobs,
            [job.key for job in jobs],
            workers,
            chunk_size,
        )
        if strict:
            run.raise_on_failure()
        return run

    start = time.perf_counter()
    context_digest = sweep_context_digest(context)
    job_digests = [session_job_digest(job) for job in jobs]
    groups: dict[int, list[int]] = {}
    for i, job in enumerate(jobs):
        groups.setdefault(job.video_id, []).append(i)
    shard_keys = {
        video_id: results_shard_key(context_digest, video_id)
        for video_id in groups
    }
    merged: list[Any] = [None] * len(jobs)
    for video_id, indices in groups.items():
        batch = results.get_results_batch(
            shard_keys[video_id], [job_digests[i] for i in indices]
        )
        for i, result in zip(indices, batch):
            merged[i] = result
    pending = [i for i, hit in enumerate(merged) if hit is None]

    timings: list[JobTiming] = []
    failures: list[JobFailure] = []
    fresh: dict[int, dict[str, Any]] = {}  # video -> {job digest: result}
    if pending:
        sub = _execute_sweep(
            context,
            context.run_job,
            [jobs[i] for i in pending],
            [jobs[i].key for i in pending],
            workers,
            chunk_size,
        )
        failed_positions = {failure.job_index for failure in sub.failures}
        for position, i in enumerate(pending):
            merged[i] = sub.results[position]
            if position not in failed_positions and sub.results[position] is not None:
                fresh.setdefault(jobs[i].video_id, {})[job_digests[i]] = (
                    sub.results[position]
                )
        timings = sub.timings
        # Failure indices refer to the original job list, not the
        # pending subset the pool actually ran.
        failures = [
            JobFailure(
                failure.key,
                pending[failure.job_index],
                failure.error,
                failure.traceback,
            )
            for failure in sub.failures
        ]
        used_workers, chunk = sub.workers, sub.chunk_size
    else:
        used_workers = 1
        chunk = resolve_chunk_size(chunk_size, 0, 1)
    for video_id, entries in fresh.items():
        results.merge_shard(shard_keys[video_id], entries)

    run = SweepRun(
        results=merged,
        timings=timings,
        failures=failures,
        workers=used_workers,
        chunk_size=chunk,
        wall_s=time.perf_counter() - start,
        cache_hits=len(jobs) - len(pending),
    )
    if strict:
        run.raise_on_failure()
    return run


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
        fn,
        items,
        list(range(len(items))),
        workers,
        chunk_size,
    )
    if strict:
        run.raise_on_failure()
    return run
