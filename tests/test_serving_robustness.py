"""The decision service under hostile input: every request line gets
exactly one reply — a plan or a structured error code — and neither
the dispatcher nor the connection dies."""

from __future__ import annotations

import asyncio
import json
import math
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.controller import OursScheme
from repro.geometry import Viewport
from repro.serving import (
    DecisionService,
    PlanRequest,
    PlanRequestError,
    ServiceConfig,
    ServiceRunner,
    VideoPlanner,
)

TIMEOUT_S = 30.0


@pytest.fixture(scope="module")
def planner2(device, manifest2, ptiles2):
    return VideoPlanner(OursScheme(device=device), manifest2, ptiles2)


def _mpc_request(planner, segment_index=1, **overrides) -> PlanRequest:
    """A request whose viewport matches a Ptile, so it reaches the DP."""
    segment = planner.ptiles[segment_index]
    for ptile in segment.ptiles:
        yaw, pitch = ptile.cluster.centroid()
        if segment.match(Viewport(yaw, pitch, 100.0, 100.0)) is not None:
            break
    else:  # pragma: no cover - fixture data always has a match
        pytest.skip("no matchable Ptile")
    fields = dict(video_id=planner.video_id, segment_index=segment_index,
                  buffer_s=1.0, bandwidth_mbps=7.5, yaw=yaw, pitch=pitch)
    fields.update(overrides)
    return PlanRequest(**fields)


class _Connection:
    """A raw newline-JSON connection with a read timeout."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=TIMEOUT_S)
        self.reader = self.sock.makefile("rb")

    def send(self, *lines: bytes) -> None:
        self.sock.sendall(b"".join(lines))

    def reply(self) -> dict:
        line = self.reader.readline()
        assert line, "connection closed without a reply"
        return json.loads(line)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _line(request_id, fields) -> bytes:
    return json.dumps({"id": request_id, "request": fields}).encode() + b"\n"


class TestDispatcherSurvives:
    def test_unplannable_request_fails_alone(self, planner2):
        # segment_seconds=1e300 passes validate() but leaves the DP no
        # feasible version sequence; the dispatcher task used to die on
        # it and every later request then waited forever.
        bad = _mpc_request(planner2, segment_seconds=1e300)
        with pytest.raises(ValueError, match="no feasible"):
            planner2.plan_one(bad)
        good = [_mpc_request(planner2, segment_index=k, buffer_s=0.5 * k)
                for k in (1, 2, 3)]
        expected = [planner2.plan_one(r) for r in good]
        service = DecisionService(
            [planner2], ServiceConfig(max_batch=8, batch_wait_us=5000.0)
        )
        with ServiceRunner(service) as runner:
            async def submit(requests):
                return await asyncio.gather(
                    *(service.plan(r) for r in requests),
                    return_exceptions=True,
                )

            got = asyncio.run_coroutine_threadsafe(
                submit([good[0], bad, *good[1:]]), runner._loop
            ).result(timeout=TIMEOUT_S)
            assert isinstance(got[1], PlanRequestError)
            assert got[1].code == "internal"
            assert "no feasible" in got[1].message
            assert [got[0], *got[2:]] == expected
            # The dispatcher is still serving.
            later = asyncio.run_coroutine_threadsafe(
                submit(good[:1]), runner._loop
            ).result(timeout=TIMEOUT_S)
            assert later == expected[:1]
            assert not service._dispatcher.done()
        assert service.stats.errors == 1

    def test_caller_that_gave_up_does_not_kill_dispatcher(self, planner2):
        # A caller's timeout cancels its future while the request waits
        # in the batching window; resolving it used to raise inside the
        # dispatcher task.
        good = _mpc_request(planner2)
        service = DecisionService(
            [planner2], ServiceConfig(max_batch=8, batch_wait_us=200_000.0)
        )
        with ServiceRunner(service) as runner:
            async def give_up():
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(service.plan(good), 0.01)

            asyncio.run_coroutine_threadsafe(
                give_up(), runner._loop
            ).result(timeout=TIMEOUT_S)
            later = asyncio.run_coroutine_threadsafe(
                service.plan(good), runner._loop
            ).result(timeout=TIMEOUT_S)
            assert later == planner2.plan_one(good)
            assert not service._dispatcher.done()


class TestOversizedLine:
    def test_error_reply_then_connection_keeps_serving(self, planner2):
        good = _mpc_request(planner2)
        expected = planner2.plan_one(good)
        service = DecisionService([planner2])
        with ServiceRunner(service) as runner:
            conn = _Connection(runner.serve_tcp(port=0))
            try:
                # 70 KB is past asyncio's 64 KiB readline limit.
                conn.send(b"x" * 70_000 + b"\n",
                          _line(7, good.__dict__))
                first = conn.reply()
                assert first["id"] is None
                assert first["error"]["code"] == "bad_request"
                second = conn.reply()
                assert second["id"] == 7
                assert "plan" in second
                assert second["plan"]["quality"] == expected.quality
                assert second["plan"]["total_size_mbit"] == (
                    expected.total_size_mbit
                )
            finally:
                conn.close()


# ----------------------------------------------------------------------
# Fuzz: truncated JSON, unknown and wrong-typed fields, NaN or negative
# buffers, and extreme finite values.

_EXTREME = st.sampled_from([
    1e300, -1e300, 5e-324, -5e-324, 1e-300, 0.0, -0.0, -1.0,
    math.nan, math.inf, -math.inf, 10**30, -(10**30), 0, -1,
])
_WRONG_TYPE = st.one_of(
    st.text(max_size=4), st.booleans(), st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_FIELDS = ("video_id", "segment_index", "buffer_s", "bandwidth_mbps",
           "yaw", "pitch", "fov_h", "fov_v", "speed_deg_s", "window",
           "segment_seconds", "fps", "use_ptile")


@st.composite
def _request_lines(draw, base_fields):
    """One request line; returns ``(line, id or None)``."""
    request_id = draw(st.integers(0, 10**6))
    fields = dict(draw(st.sampled_from(base_fields)))
    for name in draw(st.lists(st.sampled_from(_FIELDS), max_size=4,
                              unique=True)):
        fields[name] = draw(st.one_of(_EXTREME, _WRONG_TYPE))
    if draw(st.booleans()):
        fields["fov_h"] = fields["fov_v"] = draw(
            st.sampled_from([1e-300, 5e-324, 360.0, 1e300]))
    if draw(st.integers(0, 9)) == 0:
        fields[draw(st.text(min_size=1, max_size=5))] = 1
    if draw(st.integers(0, 9)) == 0:
        fields.pop(draw(st.sampled_from(_FIELDS[:6])))
    line = _line(request_id, fields)
    if draw(st.integers(0, 5)) == 0:
        # A proper prefix of a JSON object never parses.
        cut = draw(st.integers(0, len(line) - 2))
        return line[:cut] + b"\n", None
    return line, request_id


@pytest.fixture(scope="module")
def fuzz_target(planner2):
    service = DecisionService(
        [planner2], ServiceConfig(max_batch=16, batch_wait_us=500.0)
    )
    base = [
        _mpc_request(planner2, segment_index=k).__dict__
        for k in range(0, planner2.num_segments - 5, 5)
    ]
    base.append(_mpc_request(planner2, yaw=0.0, pitch=-80.0).__dict__)
    with ServiceRunner(service) as runner:
        conn = _Connection(runner.serve_tcp(port=0))
        yield service, conn, base
        conn.close()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_every_request_gets_one_reply(fuzz_target, data):
    service, conn, base = fuzz_target
    sent = data.draw(st.lists(_request_lines(base), min_size=1, max_size=12))
    conn.send(*(line for line, _ in sent))
    replies = [conn.reply() for _ in sent]
    for reply in replies:
        assert ("plan" in reply) != ("error" in reply), reply
        if "error" in reply:
            assert isinstance(reply["error"]["code"], str)
    ids = sorted(i for _, i in sent if i is not None)
    assert sorted(r["id"] for r in replies if r["id"] is not None) == ids
    # The service still answers a valid request afterwards.
    conn.send(_line(-1, base[0]))
    probe = conn.reply()
    assert probe["id"] == -1 and "plan" in probe, probe
    assert not service._dispatcher.done()
