"""Smoke test of the end-to-end benchmark (well under a minute).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py -q

Runs the whole suite at ``--scale smoke`` (one untraced and one traced
run per workload) and checks the report against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import compare
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke",
         "--runs", "1", "--trace", "--out", str(out)],
        cwd=ROOT, check=True, timeout=300,
    )
    return json.loads(out.read_text())


def test_every_metric_present_finite_with_unit(report, spec):
    assert [w["name"] for w in spec["workloads"]] == list(report["workloads"])
    for workload, entry in report["workloads"].items():
        for group, record in (("end_to_end", entry["runs"][0]),
                              ("per_layer", entry["traced"])):
            metrics = record["result"]["metrics"]
            assert set(metrics) == {m["name"] for m in spec[group]}, workload
            for metric in spec[group]:
                got = metrics[metric["name"]]
                assert NAME_RE.match(metric["name"])
                assert got["unit"] == metric["unit"], metric["name"]
                assert math.isfinite(got["value"]), (workload, metric["name"])


def test_no_failed_operations(report):
    for entry in report["workloads"].values():
        assert entry["failed_frac"] == 0
        for record in entry["runs"] + [entry["traced"]]:
            result = record["result"]
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1


def test_traced_self_time_within_wall(report):
    for workload, entry in report["workloads"].items():
        trace = entry["traced"]["detail"]["trace"]
        total = sum(layer["self_s"] for layer in trace["layers"].values())
        assert 0 < total <= trace["wall_s"], workload


def test_compare_against_itself_is_never_worse(report, spec):
    lines = compare(report, report, spec)
    assert lines and not any(line.endswith("-> worse") for line in lines)


def _current(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracing_restores_every_attribute():
    tracer = Tracer()
    originals = tracer.targets()
    tracer.install()
    try:
        assert all(_current(o, a) is not orig for o, a, orig in originals)
    finally:
        tracer.uninstall()
    assert all(_current(o, a) is orig for o, a, orig in originals)


def test_fails_without_program_sources(tmp_path):
    """A directory with only the benchmark files must not produce a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig9",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
