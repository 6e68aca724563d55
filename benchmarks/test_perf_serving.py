"""Decision-service throughput benchmark (decisions/second).

Quantifies request batching against sequential single-request
handling: the same MPC-heavy request stream is answered twice through
the same service machinery — once with batching disabled
(``max_batch=1``: every request pays its own dispatch, table lookup,
and scalar DP scan) and once through the batching dispatcher at
``max_batch=64`` (co-arriving requests share one vectorized
stacked-window choose pass).  Both paths produce identical
:class:`DownloadPlan` lists — the speedup is purely the batching.

Requests use train-trace viewports so most of them hit the Ptile/MPC
path (the expensive one the service exists to batch).  The two sides
alternate over ``_ROUNDS`` rounds and each keeps its fastest round
(min-of-rounds), so one slow spell of the host cannot decide the ratio.
``extra_info`` carries the speedup, the absolute batched throughput,
and the last batched round's p50/p99 enqueue-to-decision latency for
``check_baseline.py``.
"""

from __future__ import annotations

import time

from repro.core.controller import OursScheme
from repro.power import PIXEL_3
from repro.serving import (
    DecisionService,
    PlanRequest,
    ServiceConfig,
    ServiceRunner,
    VideoPlanner,
)

from conftest import shared_setup

_VIDEO_ID = 8
_MAX_BATCH = 64
_BATCH_WAIT_US = 200.0
_ROUNDS = 5


def _serving_inputs():
    setup = shared_setup()
    manifest = setup.manifest(_VIDEO_ID)
    planner = VideoPlanner(
        OursScheme(device=PIXEL_3), manifest, setup.ptiles(_VIDEO_ID)
    )
    seg_s = setup.session_config.segment_seconds
    fov = setup.session_config.fov_deg
    num_segments = manifest.num_segments
    requests = []
    for u, trace in enumerate(setup.dataset.train_traces(_VIDEO_ID)):
        for k in range(0, num_segments, 2):
            vp = trace.viewport_at((k + 0.5) * seg_s, fov)
            requests.append(PlanRequest(
                video_id=_VIDEO_ID,
                segment_index=k,
                buffer_s=0.5 * ((u + k) % 7),
                bandwidth_mbps=6.0 + 2.0 * ((u + k) % 8),
                yaw=vp.yaw,
                pitch=vp.pitch,
                fov_h=vp.fov_h,
                fov_v=vp.fov_v,
                speed_deg_s=5.0 * (k % 4),
                window=min(5, num_segments - k),
            ))
    return planner, requests


def _serve_all(planner, requests, max_batch):
    service = DecisionService(
        [planner],
        ServiceConfig(max_batch=max_batch, batch_wait_us=_BATCH_WAIT_US),
    )
    with ServiceRunner(service) as runner:
        plans = runner.plan_many(requests)
    return plans, service.stats.snapshot()


def test_serving_batched_vs_sequential(benchmark):
    planner, requests = _serving_inputs()

    # Warm the shared plan tables so both paths measure steady state.
    planner.plan_one(requests[0])

    sequential: list = []
    sequential_s = float("inf")

    def sequential_round():
        # The rounds alternate, so a slow spell of the host hits both
        # sides; each side keeps its fastest round.
        nonlocal sequential_s
        t0 = time.perf_counter()
        plans, snap = _serve_all(planner, requests, max_batch=1)
        sequential_s = min(sequential_s, time.perf_counter() - t0)
        assert snap["max_batch_seen"] == 1
        sequential[:] = plans
        return (), {}

    services: list = []

    def solve():
        service = DecisionService(
            [planner],
            ServiceConfig(max_batch=_MAX_BATCH, batch_wait_us=_BATCH_WAIT_US),
        )
        services.append(service)
        with ServiceRunner(service) as runner:
            return runner.plan_many(requests)

    batched = benchmark.pedantic(solve, setup=sequential_round,
                                 rounds=_ROUNDS)
    batched_s = benchmark.stats["min"]

    # Bit-identical decisions on the benchmarked inputs.
    assert batched == sequential

    snap = services[-1].stats.snapshot()
    assert snap["requests"] == len(requests)
    assert snap["max_batch_seen"] > 1

    benchmark.extra_info["num_requests"] = len(requests)
    benchmark.extra_info["rounds"] = _ROUNDS
    benchmark.extra_info["mean_batch_size"] = snap["mean_batch_size"]
    benchmark.extra_info["sequential_decisions_per_second"] = (
        len(requests) / sequential_s
    )
    benchmark.extra_info["serving_decisions_per_second"] = (
        len(requests) / batched_s
    )
    benchmark.extra_info["serving_batched_speedup"] = (
        sequential_s / batched_s
    )
    benchmark.extra_info["serving_p50_ms"] = snap["p50_ms"]
    benchmark.extra_info["serving_p99_ms"] = snap["p99_ms"]
