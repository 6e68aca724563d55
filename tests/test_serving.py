"""Tests for the online batched ABR decision service.

The service's contract is bit-identical decisions to in-process
``OursScheme.plan`` at any batch size, so most tests here drive both
paths on the same requests and compare :class:`DownloadPlan` objects
for exact equality — including through the batching dispatcher, N
concurrent client threads, and the JSON-over-TCP wire protocol.
"""

from __future__ import annotations

import math
import pickle
import threading

import numpy as np
import pytest

from repro.core.controller import OursScheme
from repro.serving import (
    DecisionService,
    PlanRequest,
    PlanRequestError,
    RemoteClient,
    ServiceClient,
    ServiceConfig,
    ServiceRunner,
    VideoPlanner,
)
from repro.serving.protocol import (
    decode_request_line,
    decode_response_line,
    encode_request_line,
    encode_response_line,
)
from repro.streaming import PopulationEngine, SessionConfig, run_session

CFG = SessionConfig(max_segments=10)


@pytest.fixture(scope="module")
def scheme(device):
    return OursScheme(device=device)


@pytest.fixture(scope="module")
def planner2(scheme, manifest2, ptiles2):
    return VideoPlanner(scheme, manifest2, ptiles2)


@pytest.fixture(scope="module")
def planner8(scheme, manifest8, ptiles8):
    return VideoPlanner(scheme, manifest8, ptiles8)


def _requests(video_id, num_segments, count=24):
    """A deterministic spread of plausible plan requests."""
    out = []
    for i in range(count):
        k = (7 * i) % num_segments
        out.append(PlanRequest(
            video_id=video_id,
            segment_index=k,
            buffer_s=0.25 * (i % 13),
            bandwidth_mbps=4.0 + 3.0 * (i % 7),
            yaw=(37.0 * i) % 360.0,
            pitch=-40.0 + 5.0 * (i % 17),
            speed_deg_s=4.0 * (i % 5),
            window=min(5, num_segments - k),
        ))
    return out


class TestRequestValidation:
    GOOD = dict(video_id=2, segment_index=0, buffer_s=1.0,
                bandwidth_mbps=10.0, yaw=10.0, pitch=5.0)

    def _expect(self, code, **overrides):
        with pytest.raises(PlanRequestError) as err:
            PlanRequest(**{**self.GOOD, **overrides}).validate()
        assert err.value.code == code
        assert isinstance(err.value, ValueError)

    def test_valid_passes(self):
        PlanRequest(**self.GOOD).validate()

    def test_bad_video_id(self):
        self._expect("bad_request", video_id="two")
        self._expect("bad_request", video_id=True)

    def test_bad_segment(self):
        self._expect("bad_segment", segment_index=-3)
        self._expect("bad_segment", segment_index=1.5)

    def test_bad_buffer(self):
        self._expect("bad_buffer", buffer_s=float("nan"))
        self._expect("bad_buffer", buffer_s=float("inf"))
        self._expect("bad_buffer", buffer_s=-0.5)

    def test_bad_bandwidth(self):
        self._expect("bad_bandwidth", bandwidth_mbps=0.0)
        self._expect("bad_bandwidth", bandwidth_mbps=-2.0)
        self._expect("bad_bandwidth", bandwidth_mbps=float("nan"))

    def test_bad_viewport(self):
        self._expect("bad_viewport", yaw=float("nan"))
        self._expect("bad_viewport", fov_h=0.0)
        self._expect("bad_viewport", fov_v=200.0)

    def test_bad_speed_window_fps(self):
        self._expect("bad_speed", speed_deg_s=float("-inf"))
        self._expect("bad_window", window=0)
        self._expect("bad_segment_seconds", segment_seconds=0.0)
        self._expect("bad_fps", fps=-30.0)


class TestPlannerParity:
    """Acceptance criterion: service decisions == OursScheme.plan at
    batch sizes 1, 8, and max."""

    def test_plan_batch_matches_plan_one(self, planner2, manifest2):
        requests = _requests(2, manifest2.num_segments)
        expected = [planner2.plan_one(r) for r in requests]
        assert planner2.plan_batch(requests) == expected

    def test_plan_batch_mixed_shapes_and_errors(self, planner8, manifest8):
        # Windows of 1-5, two segment durations, Ctile-only requests and
        # an invalid one in one batch: one scheme.plan_batch call, each
        # entry equal to its own plan_one.
        n = manifest8.num_segments
        requests = []
        for i, r in enumerate(_requests(8, n, count=30)):
            k = n - 1 - (i % 5)
            requests.append(PlanRequest(
                video_id=8, segment_index=k, buffer_s=r.buffer_s,
                bandwidth_mbps=r.bandwidth_mbps, yaw=r.yaw, pitch=r.pitch,
                speed_deg_s=r.speed_deg_s, window=1 + (i % (n - k)),
                segment_seconds=(1.0, 2.0)[i % 2], use_ptile=i % 7 != 3,
            ))
        requests[4] = PlanRequest(video_id=8, segment_index=n, buffer_s=1.0,
                                  bandwidth_mbps=5.0, yaw=0.0, pitch=0.0)
        got = planner8.plan_batch(requests)
        assert isinstance(got[4], PlanRequestError)
        for i, request in enumerate(requests):
            if i != 4:
                assert got[i] == planner8.plan_one(request)
        assert {r.window for r in requests} >= {1, 2, 3, 4, 5}
        assert any(p.used_ptile for p in got if not isinstance(
            p, PlanRequestError))

    @pytest.mark.parametrize("max_batch", [1, 8, None])
    def test_service_parity_at_batch_size(self, planner2, manifest2,
                                          max_batch):
        requests = _requests(2, manifest2.num_segments)
        expected = [planner2.plan_one(r) for r in requests]
        config = ServiceConfig(
            max_batch=max_batch or len(requests), batch_wait_us=200.0
        )
        with ServiceRunner(DecisionService([planner2], config)) as runner:
            got = runner.plan_many(requests)
        assert got == expected

    def test_zero_wait_still_correct(self, planner2, manifest2):
        requests = _requests(2, manifest2.num_segments, count=8)
        expected = [planner2.plan_one(r) for r in requests]
        config = ServiceConfig(max_batch=8, batch_wait_us=0.0)
        with ServiceRunner(DecisionService([planner2], config)) as runner:
            assert runner.plan_many(requests) == expected

    def test_batching_actually_happens(self, planner2, manifest2):
        requests = _requests(2, manifest2.num_segments)
        service = DecisionService(
            [planner2], ServiceConfig(max_batch=64, batch_wait_us=500.0)
        )
        with ServiceRunner(service) as runner:
            runner.plan_many(requests)
        assert service.stats.requests == len(requests)
        assert service.stats.max_batch_seen > 1
        snap = service.stats.snapshot()
        assert snap["p99_ms"] >= snap["p50_ms"] >= 0.0


class TestServiceErrors:
    @pytest.fixture()
    def runner(self, planner2):
        service = DecisionService(
            [planner2], ServiceConfig(max_batch=8, batch_wait_us=0.0)
        )
        with ServiceRunner(service) as r:
            yield r

    def _code(self, runner, request):
        with pytest.raises(PlanRequestError) as err:
            runner.plan(request)
        return err.value.code

    def test_error_codes_surface(self, runner, manifest2):
        good = _requests(2, manifest2.num_segments, count=1)[0]
        bad = [
            ("unknown_video", PlanRequest(**{
                **good.__dict__, "video_id": 999})),
            ("bad_buffer", PlanRequest(**{
                **good.__dict__, "buffer_s": float("nan")})),
            ("bad_segment", PlanRequest(**{
                **good.__dict__, "segment_index": -1})),
            ("bad_segment", PlanRequest(**{
                **good.__dict__, "segment_index": manifest2.num_segments})),
            ("bad_window", PlanRequest(**{
                **good.__dict__, "segment_index": manifest2.num_segments - 1,
                "window": 2})),
            ("bad_fps", PlanRequest(**{**good.__dict__, "fps": 7.0})),
        ]
        for code, request in bad:
            assert self._code(runner, request) == code
        # the worker survived all of it
        expect = runner.service.planners[2].plan_one(good)
        assert runner.plan(good) == expect
        assert runner.service.stats.errors == len(bad)

    def test_errors_dont_poison_batchmates(self, runner, planner2,
                                           manifest2):
        requests = _requests(2, manifest2.num_segments, count=6)
        expected = [planner2.plan_one(r) for r in requests]
        mixed = list(requests)
        mixed.insert(3, PlanRequest(**{
            **requests[0].__dict__, "buffer_s": float("inf")}))
        results = []
        errors = []

        def one(req, slot):
            try:
                results[slot] = runner.plan(req)
            except PlanRequestError as err:
                results[slot] = err
                errors.append(err)

        results = [None] * len(mixed)
        threads = [
            threading.Thread(target=one, args=(req, i))
            for i, req in enumerate(mixed)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        del results[3]
        assert results == expected
        assert len(errors) == 1 and errors[0].code == "bad_buffer"


class TestConcurrencyIdentity:
    def test_threads_match_serial_single_video(self, planner2, manifest2):
        requests = _requests(2, manifest2.num_segments, count=40)
        expected = [planner2.plan_one(r) for r in requests]
        service = DecisionService(
            [planner2], ServiceConfig(max_batch=16, batch_wait_us=100.0)
        )
        chunks = [requests[i::4] for i in range(4)]
        want = [[expected[j] for j in range(i, len(requests), 4)]
                for i in range(4)]
        with ServiceRunner(service) as runner:
            got = [None] * 4

            def work(i):
                got[i] = runner.plan_many(chunks[i])

            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert got == want

    def test_threads_match_serial_multi_video(self, planner2, planner8,
                                              manifest2, manifest8):
        reqs2 = _requests(2, manifest2.num_segments, count=20)
        reqs8 = _requests(8, manifest8.num_segments, count=20)
        want2 = [planner2.plan_one(r) for r in reqs2]
        want8 = [planner8.plan_one(r) for r in reqs8]
        service = DecisionService(
            [planner2, planner8],
            ServiceConfig(max_batch=32, batch_wait_us=200.0),
        )
        with ServiceRunner(service) as runner:
            got = {}

            def work(key, reqs):
                got[key] = runner.plan_many(reqs)

            threads = [
                threading.Thread(target=work, args=(2, reqs2)),
                threading.Thread(target=work, args=(8, reqs8)),
                threading.Thread(target=work, args=("2b", reqs2)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert got[2] == want2
        assert got["2b"] == want2
        assert got[8] == want8


class TestMemoSafety:
    def test_mpc_memo_single_instance_under_races(self, device):
        scheme = OursScheme(device=device)
        seen = []
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            seen.append(scheme._mpc(1.0))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(m) for m in seen}) == 1

    def test_alpha_memo_under_races(self, planner2, monkeypatch):
        # Eight threads share one memo small enough to be cleared while
        # others read it: every factor vector must still be exact.
        import sys

        from repro.core import plan_tables
        from repro.qoe.framerate import frame_rate_factor

        monkeypatch.setattr(plan_tables, "_ALPHA_MEMO_LIMIT", 4)
        tables = pickle.loads(pickle.dumps(planner2.tables))
        alphas = [0.05 * (i + 1) for i in range(40)]
        want = {a: [frame_rate_factor(r, tables.fps, a) for r in tables.rates]
                for a in alphas}
        bad = []
        barrier = threading.Barrier(8)

        def work(seed):
            barrier.wait()
            for i in range(400):
                alpha = alphas[(seed * 7 + i) % len(alphas)]
                if tables.frame_rate_factors(alpha).tolist() != want[alpha]:
                    bad.append(alpha)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(n,))
                       for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []
        assert len(tables._alpha_factors) <= 4 + 8

    def test_sizes_for_single_instance_under_races(self, planner2,
                                                   ptiles2):
        tables = planner2.tables
        ptile = ptiles2[0].ptiles[0]
        tables._sizes.clear()
        seen = []
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            seen.append(tables.sizes_for(ptile))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(s) for s in seen}) == 1

    def test_scheme_pickles_without_locks(self, scheme, planner2,
                                          manifest2):
        clone = pickle.loads(pickle.dumps(scheme))
        requests = _requests(2, manifest2.num_segments, count=4)
        fresh = VideoPlanner(clone, manifest2, planner2.ptiles)
        assert [fresh.plan_one(r) for r in requests] == [
            planner2.plan_one(r) for r in requests
        ]

    def test_plan_tables_pickle_drops_cache(self, planner2, ptiles2):
        tables = planner2.tables
        tables.sizes_for(ptiles2[0].ptiles[0])
        clone = pickle.loads(pickle.dumps(tables))
        assert clone._sizes == {}
        got = clone.sizes_for(ptiles2[0].ptiles[0])
        np.testing.assert_array_equal(
            got, tables.sizes_for(ptiles2[0].ptiles[0])
        )

    def test_plan_tables_pickle_drops_alpha_memo(self, planner2, manifest2):
        planner2.plan_batch(_requests(2, manifest2.num_segments, count=8))
        assert planner2.tables._alpha_factors
        clone = pickle.loads(pickle.dumps(planner2.tables))
        assert clone._alpha_factors == {}


class TestProtocol:
    def test_request_round_trip(self):
        request = PlanRequest(video_id=2, segment_index=3, buffer_s=1.25,
                              bandwidth_mbps=math.pi, yaw=123.456,
                              pitch=-7.89, speed_deg_s=11.0, window=5)
        rid, back = decode_request_line(encode_request_line(17, request))
        assert rid == 17
        assert back == request

    def test_response_round_trip_exact(self, planner2, manifest2):
        plan = planner2.plan_one(
            _requests(2, manifest2.num_segments, count=1)[0]
        )
        rid, back = decode_response_line(encode_response_line(3, plan))
        assert rid == 3
        assert back == plan

    def test_error_round_trip(self):
        err = PlanRequestError("bad_buffer", "buffer_s must be finite")
        line = encode_response_line(9, err)
        with pytest.raises(PlanRequestError) as caught:
            decode_response_line(line)
        assert caught.value.code == "bad_buffer"
        assert caught.value.request_id == 9

    def test_malformed_request_lines(self):
        for line in (b"not json\n", b"[1, 2]\n", b'{"id": 1}\n',
                     b'{"id": 1, "request": {"video_id": 2}}\n',
                     b'{"id": 1, "request": {"video_id": 2, "bogus": 1}}\n'):
            with pytest.raises(PlanRequestError) as err:
                decode_request_line(line)
            assert err.value.code == "bad_request"


class TestTcp:
    def test_remote_parity_and_errors(self, planner2, manifest2):
        requests = _requests(2, manifest2.num_segments, count=16)
        expected = [planner2.plan_one(r) for r in requests]
        service = DecisionService(
            [planner2], ServiceConfig(max_batch=16, batch_wait_us=200.0)
        )
        with ServiceRunner(service) as runner:
            port = runner.serve_tcp(port=0)
            with RemoteClient(port=port) as client:
                assert client.plan_many(requests) == expected
                with pytest.raises(PlanRequestError) as err:
                    client.plan(PlanRequest(**{
                        **requests[0].__dict__, "video_id": 41}))
                assert err.value.code == "unknown_video"
                # connection survives the error
                assert client.plan(requests[0]) == expected[0]

    @staticmethod
    def _three_clients(planner, requests):
        """Open a TCP service, serve 3 concurrent clients, close it."""
        service = DecisionService(
            [planner], ServiceConfig(max_batch=36, batch_wait_us=300.0)
        )
        with ServiceRunner(service) as runner:
            port = runner.serve_tcp(port=0)
            got = [None] * 3

            def work(i):
                with RemoteClient(port=port) as client:
                    got[i] = client.plan_many(requests)

            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        return got

    def test_concurrent_remote_clients(self, planner2, manifest2):
        requests = _requests(2, manifest2.num_segments, count=12)
        expected = [planner2.plan_one(r) for r in requests]
        assert self._three_clients(planner2, requests) == [expected] * 3

    def test_repeated_open_serve_close(self, planner2, manifest2):
        # Shutdown used to close the asyncio server from the caller's
        # thread, racing the loop's connection teardown, and a single
        # cycle failed intermittently.  No sleeps or retries: every
        # cycle must pass.
        requests = _requests(2, manifest2.num_segments, count=4)
        expected = [planner2.plan_one(r) for r in requests]
        for _ in range(25):
            assert self._three_clients(planner2, requests) == [expected] * 3


class TestStreamingSeams:
    def test_run_session_via_service(self, scheme, planner2, manifest2,
                                     ptiles2, small_dataset,
                                     network_traces, device):
        trace = small_dataset.test_traces(2)[0]
        baseline = run_session(scheme, manifest2, trace, network_traces[1],
                               device, ptiles=ptiles2, config=CFG)
        service = DecisionService(
            [planner2], ServiceConfig(max_batch=8, batch_wait_us=100.0)
        )
        with ServiceRunner(service) as runner:
            served = run_session(ServiceClient(runner), manifest2, trace,
                                 network_traces[1], device, ptiles=ptiles2,
                                 config=CFG)
        assert served.records == baseline.records

    def test_population_engine_via_service(self, scheme, planner2,
                                           manifest2, ptiles2,
                                           small_dataset, network_traces,
                                           device):
        traces = small_dataset.test_traces(2)[:4]
        baseline = PopulationEngine(
            scheme, manifest2, traces, network_traces[1], device,
            ptiles=ptiles2, config=CFG,
        ).run()
        service = DecisionService(
            [planner2], ServiceConfig(max_batch=16, batch_wait_us=100.0)
        )
        with ServiceRunner(service) as runner:
            served = PopulationEngine(
                scheme, manifest2, traces, network_traces[1], device,
                ptiles=ptiles2, config=CFG,
                decision_client=ServiceClient(runner),
            ).run()
        for name in ("transmission_j", "decoding_j", "rendering_j",
                     "qoe_sum", "quality_sum", "frame_rate_sum",
                     "total_size_mbit", "total_stall_s"):
            np.testing.assert_array_equal(
                getattr(served, name), getattr(baseline, name),
                err_msg=name,
            )
        assert service.stats.requests > 0
        assert service.stats.errors == 0

    def test_decision_client_rejected_for_other_schemes(
            self, manifest2, small_dataset, network_traces, device):
        from repro.streaming import CtileScheme

        with pytest.raises(ValueError, match="decision_client"):
            PopulationEngine(
                CtileScheme(), manifest2, small_dataset.test_traces(2),
                network_traces[1], device, config=CFG,
                decision_client=object(),
            )


class TestExperimentSetupService:
    """A service built from an experiment setup (``build_planners``, the
    path ``repro-360 serve`` takes) on the exploratory video 8: decisions
    from train-trace viewports are identical offline, in process and over
    TCP, and a session against the service reproduces the offline one."""

    def test_build_planners_identity(self, device):
        from repro.experiments import make_setup
        from repro.serving import build_planners

        setup = make_setup(max_duration_s=30, n_users=16, n_train=12,
                           seed=7, video_ids=(8,))
        planner = build_planners(setup, (8,), device=device)[8]
        seg_s = setup.session_config.segment_seconds
        fov = setup.session_config.fov_deg
        n = planner.num_segments
        requests = []
        for u, trace in enumerate(setup.dataset.train_traces(8)):
            for k in range(0, n, 2):
                vp = trace.viewport_at((k + 0.5) * seg_s, fov)
                requests.append(PlanRequest(
                    video_id=8, segment_index=k,
                    buffer_s=0.5 * ((u + k) % 7),
                    bandwidth_mbps=6.0 + 2.0 * ((u + k) % 8),
                    yaw=vp.yaw, pitch=vp.pitch, fov_h=vp.fov_h, fov_v=vp.fov_v,
                    speed_deg_s=5.0 * (k % 4), window=min(5, n - k)))
        offline = [planner.plan_one(r) for r in requests]

        service = DecisionService({8: planner}, ServiceConfig(max_batch=64))
        with ServiceRunner(service) as runner:
            port = runner.serve_tcp(port=0)
            assert runner.plan_many(requests) == offline
            with RemoteClient("127.0.0.1", port) as remote:
                assert remote.plan_many(requests) == offline
        assert service.stats.snapshot()["max_batch_seen"] > 1

        trace = setup.dataset.test_traces(8)[0]
        config = SessionConfig(max_segments=12)
        want = run_session(OursScheme(device=device), setup.manifest(8),
                           trace, setup.trace2, device,
                           ptiles=setup.ptiles(8), config=config)
        service = DecisionService({8: planner}, ServiceConfig(max_batch=64))
        with ServiceRunner(service) as runner:
            got = run_session(ServiceClient(runner), setup.manifest(8),
                              trace, setup.trace2, device,
                              ptiles=setup.ptiles(8), config=config)
        assert got.records == want.records
