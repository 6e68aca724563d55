"""The CLI as a separate process: import footprint and ``serve`` lifecycle."""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": str(SRC) + (os.pathsep + path if path else ""),
    }


def test_cli_and_service_import_without_scipy():
    # scipy takes about a second to import; only the Table II fit and
    # the Wilcoxon test use it, and they import it themselves.
    code = (
        "import sys, repro.cli, repro.serving; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]", out.stdout


def test_serve_answers_and_exits_cleanly_on_sigterm():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--videos", "8", "--duration", "20", "--no-artifact-cache"],
        stdout=subprocess.PIPE, text=True, env=_env(),
    )
    # A hung start-up closes stdout (readline then returns "") instead
    # of blocking the suite.
    watchdog = threading.Timer(300.0, proc.kill)
    watchdog.start()
    try:
        port = None
        while port is None:
            line = proc.stdout.readline()
            assert line, "serve exited before listening"
            match = re.search(r"on 127\.0\.0\.1:(\d+)", line)
            if match:
                port = int(match.group(1))
        with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
            sock.sendall((json.dumps({
                "id": 1,
                "request": {"video_id": 8, "segment_index": 0,
                            "buffer_s": 1.0, "bandwidth_mbps": 8.0,
                            "yaw": 0.0, "pitch": 0.0},
            }) + "\n").encode())
            reply = json.loads(sock.makefile().readline())
        assert reply["id"] == 1 and "plan" in reply, reply
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        assert "served 1 request(s)" in proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
