"""TCP front-end for the decision service.

Each connection carries pipelined newline-delimited JSON requests (see
:mod:`repro.serving.protocol`).  Every incoming line is answered by
its own task, so a client that writes several requests before reading
any response lets the dispatcher's batching window coalesce them —
the wire front-end and the in-process API share the same queue.

Request failures never take the worker down: malformed lines, unknown
videos, and invalid parameters come back as structured error
responses; anything unexpected is answered with an ``internal`` error
and the connection stays up.
"""

from __future__ import annotations

import asyncio
import signal

from .requests import PlanRequestError
from .protocol import decode_request_line, encode_response_line
from .service import DecisionService

__all__ = ["serve_tcp", "run_server"]

# asyncio's default stream limit: the longest request line served.
_LINE_LIMIT = 2**16


async def serve_tcp(
    service: DecisionService, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Start the TCP front-end (the service must be started already)."""

    async def answer(line: bytes | None, writer, write_lock) -> None:
        request_id = None
        try:
            if line is None:
                raise PlanRequestError(
                    "bad_request",
                    f"line longer than the {_LINE_LIMIT}-byte limit",
                )
            request_id, request = decode_request_line(line)
            outcome = await service.plan(request)
        except PlanRequestError as err:
            request_id = getattr(err, "request_id", request_id)
            outcome = err
        except Exception as err:  # noqa: BLE001 — keep the worker alive
            outcome = PlanRequestError("internal", f"{type(err).__name__}: {err}")
        payload = encode_response_line(request_id, outcome)
        async with write_lock:
            writer.write(payload)
            await writer.drain()

    connections: set = set()

    async def handle(reader, writer) -> None:
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        loop = asyncio.get_running_loop()
        connections.add(writer)
        try:
            while True:
                line = await _read_line(reader)
                if line == b"":
                    break
                task = loop.create_task(answer(line, writer, write_lock))
                pending.add(task)
                task.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        finally:
            connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    server = await asyncio.start_server(handle, host, port, limit=_LINE_LIMIT)
    # Closing these writers sends EOF to every open connection, letting
    # their handler tasks finish instead of being cancelled at shutdown.
    server.repro_connections = connections
    return server


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next line (``b""`` at EOF), or None for a line longer than
    the stream limit, whose bytes are read and dropped."""
    overrun = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as err:
            line = err.partial
        except asyncio.LimitOverrunError as err:
            # Drop what is buffered up to the newline, or all of it
            # when the newline has not arrived yet, and read on.
            overrun = True
            await reader.readexactly(err.consumed)
            continue
        return None if overrun else line


def run_server(
    service: DecisionService,
    host: str = "127.0.0.1",
    port: int = 7360,
    *,
    on_ready=None,
) -> None:
    """Run the service plus TCP front-end until interrupted.

    ``on_ready(port)`` is called once the socket is listening (the CLI
    prints the address; tests pass port 0 and read the bound port).
    SIGINT/SIGTERM shut the service down gracefully: stop accepting,
    send EOF to open connections, drain the dispatcher, return.
    """

    async def main() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        handled: list[int] = []
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, stop.set)
                handled.append(signum)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal handlers

        await service.start()
        server = await serve_tcp(service, host, port)
        if on_ready is not None:
            bound = server.sockets[0].getsockname()[1]
            on_ready(bound)
        try:
            async with server:
                if handled:
                    await stop.wait()
                else:
                    await server.serve_forever()
        finally:
            for writer in list(server.repro_connections):
                writer.close()
            await service.close()
            for signum in handled:
                loop.remove_signal_handler(signum)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
