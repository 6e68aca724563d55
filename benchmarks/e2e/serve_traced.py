#!/usr/bin/env python3
"""Run the decision service with the layer tracer installed.

    PYTHONPATH=src python benchmarks/e2e/serve_traced.py --out trace.json \
        -- serve --port 0 --videos 2,8 --no-artifact-cache

Installs the wrappers of :mod:`tracer`, then calls ``repro.cli.main``
with the arguments after ``--``.  When the service shuts down (SIGTERM
or SIGINT), the wrappers are removed and the layer totals are written
to ``--out`` as JSON (``wall_s``, ``layers``, ``top_paths``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tracer import Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="trace JSON to write")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="-- followed by repro-360 arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args
    if cli_args[:1] == ["--"]:
        cli_args = cli_args[1:]

    from repro import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        Path(args.out).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
