"""The asyncio decision service: batching dispatcher plus runners.

:class:`DecisionService` owns one :class:`VideoPlanner` per served
video and answers ``plan`` requests through a single batching
dispatcher: requests land on an internal queue, and the dispatcher
collects up to ``max_batch`` of them — waiting at most
``batch_wait_us`` after the first arrival — before serving the whole
batch with one vectorized choose pass per (video, window-shape) group.
The batching window trades a bounded latency floor for amortized table
lookups and DP scans; ``batch_wait_us=0`` still coalesces whatever has
already queued (pure opportunistic batching, no added latency).

Decisions are bit-identical at any batch size (see
:mod:`repro.serving.planner`), so batching is purely a throughput
knob.  Per-request decision latency (enqueue to decision) is recorded
in :class:`ServiceStats`, which reports p50/p99 and counts violations
of the configured latency SLO.

:class:`ServiceRunner` hosts a service on a dedicated event-loop
thread and exposes thread-safe synchronous ``plan``/``plan_many`` —
the in-process client API used by sessions, the population engine,
and tests.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from dataclasses import dataclass, field

from ..core.controller import OursScheme
from ..power.models import PIXEL_3, DevicePowerModel
from ..streaming.schemes import DownloadPlan
from .planner import VideoPlanner
from .requests import PlanRequest, PlanRequestError

__all__ = [
    "ServiceConfig",
    "ServiceStats",
    "DecisionService",
    "ServiceRunner",
    "build_planners",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Batching-window and SLO parameters."""

    max_batch: int = 64
    batch_wait_us: float = 200.0
    slo_ms: float | None = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.batch_wait_us < 0:
            raise ValueError("batch_wait_us must be non-negative")
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError("slo_ms must be positive")


@dataclass
class ServiceStats:
    """Decision-latency and batching counters for one service."""

    requests: int = 0
    errors: int = 0
    batches: int = 0
    max_batch_seen: int = 0
    slo_violations: int = 0
    # Bounded reservoir of recent enqueue-to-decision latencies.
    latencies_s: deque = field(default_factory=lambda: deque(maxlen=8192))

    def record_batch(
        self, size: int, errors: int, latencies_s: list[float],
        slo_s: float | None,
    ) -> None:
        self.requests += size
        self.errors += errors
        self.batches += 1
        self.max_batch_seen = max(self.max_batch_seen, size)
        self.latencies_s.extend(latencies_s)
        if slo_s is not None:
            self.slo_violations += sum(1 for t in latencies_s if t > slo_s)

    def latency_percentile_ms(self, quantile: float) -> float:
        """Nearest-rank percentile of the recorded latencies, in ms."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        rank = min(len(ordered) - 1, int(round(quantile * (len(ordered) - 1))))
        return ordered[rank] * 1e3

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "batches": self.batches,
            "max_batch_seen": self.max_batch_seen,
            "mean_batch_size": self.requests / self.batches
            if self.batches
            else 0.0,
            "p50_ms": self.latency_percentile_ms(0.50),
            "p99_ms": self.latency_percentile_ms(0.99),
            "slo_violations": self.slo_violations,
        }


class DecisionService:
    """Batching plan server over a set of per-video planners.

    Use from inside a running event loop::

        service = DecisionService(planners)
        await service.start()
        plan = await service.plan(request)
        await service.close()

    or synchronously through :class:`ServiceRunner`.
    """

    def __init__(
        self,
        planners,
        config: ServiceConfig = ServiceConfig(),
    ):
        if isinstance(planners, dict):
            self.planners = dict(planners)
        else:
            self.planners = {p.video_id: p for p in planners}
        if not self.planners:
            raise ValueError("need at least one video planner")
        self.config = config
        self.stats = ServiceStats()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None

    async def start(self) -> None:
        if self._dispatcher is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._dispatcher = self._loop.create_task(self._dispatch())

    async def close(self) -> None:
        """Stop the dispatcher after the queue drains."""
        if self._dispatcher is None:
            return
        await self._queue.put(None)
        await self._dispatcher
        self._dispatcher = None
        self._queue = None

    async def plan(self, request: PlanRequest) -> DownloadPlan:
        """Resolve one plan request (raises :class:`PlanRequestError`)."""
        if self._dispatcher is None:
            raise RuntimeError("service not started; call start() first")
        future = self._loop.create_future()
        await self._queue.put((request, future, self._loop.time()))
        return await future

    # ------------------------------------------------------------------

    async def _dispatch(self) -> None:
        queue = self._queue
        max_batch = self.config.max_batch
        wait_s = self.config.batch_wait_us * 1e-6
        while True:
            item = await queue.get()
            if item is None:
                return
            batch = [item]
            stop = False
            while len(batch) < max_batch:
                try:
                    extra = queue.get_nowait()
                except asyncio.QueueEmpty:
                    # Batching window: measured from the first request's
                    # enqueue time, so a batch never adds more than
                    # batch_wait_us to that request's latency.
                    remaining = wait_s - (self._loop.time() - batch[0][2])
                    if remaining <= 0:
                        break
                    try:
                        extra = await asyncio.wait_for(
                            queue.get(), remaining
                        )
                    except asyncio.TimeoutError:
                        break
                if extra is None:
                    stop = True
                    break
                batch.append(extra)
            self._serve_batch(batch)
            if stop:
                return

    def _serve_batch(self, batch: list) -> None:
        by_video: dict[int, list] = {}
        errors = 0
        for entry in batch:
            request, future, _ = entry
            try:
                request.validate()
                planner = self.planners.get(request.video_id)
                if planner is None:
                    raise PlanRequestError(
                        "unknown_video",
                        f"video {request.video_id} is not served "
                        f"(available: {sorted(self.planners)})",
                    )
            except PlanRequestError as err:
                future.set_exception(err)
                errors += 1
                continue
            by_video.setdefault(request.video_id, []).append(entry)
        for video_id, entries in by_video.items():
            planner = self.planners[video_id]
            outcomes = planner.plan_batch([e[0] for e in entries])
            for (_, future, _), outcome in zip(entries, outcomes):
                if isinstance(outcome, PlanRequestError):
                    future.set_exception(outcome)
                    errors += 1
                else:
                    future.set_result(outcome)
        now = self._loop.time()
        self.stats.record_batch(
            len(batch),
            errors,
            [now - t0 for _, _, t0 in batch],
            None if self.config.slo_ms is None
            else self.config.slo_ms * 1e-3,
        )


class ServiceRunner:
    """Hosts a :class:`DecisionService` on a background event-loop
    thread and exposes thread-safe synchronous planning.

    ``plan_many`` submits every request before waiting on any result,
    which is what lets the dispatcher's batching window coalesce them.
    Usable as a context manager.
    """

    def __init__(self, service: DecisionService):
        self.service = service
        self._servers: list[asyncio.AbstractServer] = []
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-decision-service", daemon=True
        )
        self._thread.start()
        self._started.wait()
        asyncio.run_coroutine_threadsafe(
            service.start(), self._loop
        ).result()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.call_soon(self._started.set)
        self._loop.run_forever()

    def plan(self, request: PlanRequest) -> DownloadPlan:
        """Resolve one request (raises PlanRequestError on bad input)."""
        return asyncio.run_coroutine_threadsafe(
            self.service.plan(request), self._loop
        ).result()

    def plan_many(self, requests) -> list[DownloadPlan]:
        """Resolve many requests concurrently, results in order."""
        requests = list(requests)
        if not requests:
            return []

        # One cross-thread submission for the whole set: the gather
        # enqueues every request inside the loop before any completes,
        # so the dispatcher's batching window sees them together.
        async def submit_all():
            return await asyncio.gather(
                *(self.service.plan(r) for r in requests),
                return_exceptions=True,
            )

        results = asyncio.run_coroutine_threadsafe(
            submit_all(), self._loop
        ).result()
        for outcome in results:
            if isinstance(outcome, BaseException):
                raise outcome
        return results

    def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Attach the TCP front-end on this runner's loop; returns the
        bound port (pass ``port=0`` for an ephemeral one)."""
        from .server import serve_tcp

        server = asyncio.run_coroutine_threadsafe(
            serve_tcp(self.service, host, port), self._loop
        ).result()
        self._servers.append(server)
        return server.sockets[0].getsockname()[1]

    def close(self) -> None:
        if self._loop.is_closed():
            return
        servers, self._servers = self._servers, []

        # Everything runs on the loop: asyncio.Server is not thread-safe,
        # and closing it from this thread races the loop's own
        # connection teardown.
        async def shutdown() -> None:
            for server in servers:
                server.close()
                # EOF to open connections, as run_server does.
                for writer in list(server.repro_connections):
                    writer.close()
                await server.wait_closed()
            await self.service.close()

        asyncio.run_coroutine_threadsafe(shutdown(), self._loop).result()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()

    def __enter__(self) -> "ServiceRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def build_planners(
    setup,
    video_ids=None,
    *,
    device: DevicePowerModel = PIXEL_3,
    scheme: OursScheme | None = None,
    workers: int | None = 1,
) -> dict[int, VideoPlanner]:
    """Build the per-video planners from an experiment setup.

    Manifests and Ptiles come through the setup's artifact store when
    it has one — the same content-prep artifacts every experiment
    shares — so starting a service against a warm cache deserializes
    instead of rebuilding.  One shared scheme instance backs every
    planner, mirroring how a session sweep shares its controller.
    """
    if scheme is None:
        scheme = OursScheme(device=device)
    if video_ids is None:
        video_ids = tuple(v.meta.video_id for v in setup.videos)
    video_ids = tuple(video_ids)
    if not video_ids:
        raise ValueError("need at least one video id")
    setup.prepare(video_ids, workers=workers, ftiles=False)
    return {
        vid: VideoPlanner(scheme, setup.manifest(vid), setup.ptiles(vid))
        for vid in video_ids
    }
