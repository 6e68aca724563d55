"""Clients for the decision service.

:class:`ServiceClient` implements the session download seam
(:class:`~repro.streaming.schemes.StreamingScheme`): hand it to
``run_session`` and every plan decision is sourced from the service
instead of the in-process controller, bit-identical to local planning.
It works over any transport exposing ``plan(PlanRequest) ->
DownloadPlan``: a :class:`~repro.serving.service.ServiceRunner` for
in-process use, or a :class:`RemoteClient` for the TCP protocol.

Invalid requests surface as :class:`PlanRequestError`, a
:class:`ValueError` subclass, on the calling thread — the service
worker itself never dies on bad input.
"""

from __future__ import annotations

import socket
import threading
from itertools import count

from ..streaming.schemes import DownloadPlan, PlanContext
from .protocol import decode_response_line, encode_request_line
from .requests import PlanRequest, request_from_context

__all__ = ["ServiceClient", "RemoteClient"]


class ServiceClient:
    """The session seam: a scheme backed by the service."""

    def __init__(self, transport, name: str = "ours"):
        self.transport = transport
        self.name = name

    def plan(self, ctx: PlanContext) -> DownloadPlan:
        """StreamingScheme entry point used by ``run_session``."""
        return self.transport.plan(request_from_context(ctx))


class RemoteClient:
    """Synchronous TCP client speaking the line protocol.

    ``plan_many`` pipelines: all requests are written before any
    response is read, so the server's batching window can coalesce
    them even over a single connection.  Thread-safe; usable as a
    context manager.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7360,
                 timeout: float | None = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()
        self._ids = count(1)

    def plan(self, request: PlanRequest) -> DownloadPlan:
        return self.plan_many([request])[0]

    def plan_many(self, requests) -> list[DownloadPlan]:
        requests = list(requests)
        with self._lock:
            wanted = []
            for request in requests:
                request_id = next(self._ids)
                wanted.append(request_id)
                self._file.write(encode_request_line(request_id, request))
            self._file.flush()
            by_id: dict[object, object] = {}
            pending = set(wanted)
            while pending:
                line = self._file.readline()
                if not line:
                    raise ConnectionError("decision service closed the connection")
                try:
                    request_id, plan = decode_response_line(line)
                except ValueError as err:
                    request_id = getattr(err, "request_id", None)
                    if request_id not in pending:
                        raise
                    by_id[request_id] = err
                    pending.discard(request_id)
                    continue
                by_id[request_id] = plan
                pending.discard(request_id)
        results = []
        for request_id in wanted:
            outcome = by_id[request_id]
            if isinstance(outcome, Exception):
                raise outcome
            results.append(outcome)
        return results

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
