#!/usr/bin/env python
"""Compare a pytest-benchmark JSON report against the checked-in baseline.

Usage::

    PYTHONPATH=src:benchmarks python -m pytest \
        benchmarks/test_perf_sweep.py benchmarks/test_perf_artifacts.py \
        -q --benchmark-json=bench.json
    python benchmarks/check_baseline.py bench.json
    python benchmarks/check_baseline.py --update bench.json  # refresh baseline

Two kinds of metric, with deliberately different strictness:

* **Ratio metrics** (``floor``) — speedups of one code path over another
  measured in the same process on the same machine.  These are
  scale-invariant, so they get a hard floor: if batched MPC solving
  stops being >= 3x faster per row than one window per call, or a warm
  artifact store stops being >= 3x faster than cold construction, the
  optimization has regressed no matter how slow the CI box is.

* **Throughput metrics** (``min_fraction``) — absolute rates such as
  sessions per second.  CI hardware varies wildly, so these only fail
  when they drop below a generous fraction of the recorded baseline,
  catching order-of-magnitude regressions without flaking on slow
  runners.

* **Overhead metrics** (``ceiling``) — same-machine cost ratios that
  must stay *small*, such as a benign fault plan's session wall-time
  overhead over a faults-off session.  Scale-invariant like the
  floors, so they get a hard ceiling.

* **Recorded metrics** (``record``) — tracked for trend visibility but
  never failed, such as the decision service's p50/p99 flood latency:
  those scale with both hardware and the benchmark's request count, so
  a threshold would only flake.  ``--update`` refreshes them like any
  other baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BASELINE_PATH = Path(__file__).with_name("baseline.json")


def _extra(report: dict, name: str, key: str) -> float:
    for bench in report["benchmarks"]:
        if bench["name"] == name:
            return float(bench["extra_info"][key])
    raise KeyError(f"benchmark {name!r} missing from report")


def extract_metrics(report: dict) -> dict[str, float]:
    """Derive the baseline-tracked metrics from a benchmark report."""
    return {
        "mpc_batch_speedup": _extra(
            report, "test_mpc_choose_batch", "mpc_batch_speedup"
        ),
        "warm_prep_speedup": _extra(
            report, "test_content_prep_cold_vs_warm", "warm_speedup"
        ),
        "viewport_tiles_speedup": _extra(
            report, "test_viewport_tiles_vs_reference", "viewport_tiles_speedup"
        ),
        "warm_results_speedup": _extra(
            report, "test_results_cache_cold_vs_warm", "warm_speedup"
        ),
        "shard_read_speedup": _extra(
            report, "test_shard_read_vs_per_pickle", "shard_read_speedup"
        ),
        "context_digest_pickle_ratio": _extra(
            report, "test_context_digest_cost", "digest_pickle_ratio"
        ),
        "results_decode_ratio": _extra(
            report, "test_results_decode_cost", "decode_records_ratio"
        ),
        "planner_plans_per_second": _extra(
            report, "test_planner_throughput", "plans_per_second"
        ),
        "sweep_serial_sessions_per_second": _extra(
            report, "test_sweep_serial_throughput", "sessions_per_second"
        ),
        "sweep_pool_sessions_per_second": _extra(
            report, "test_sweep_pool_throughput", "sessions_per_second"
        ),
        "shared_prediction_speedup": _extra(
            report, "test_shared_prediction_speedup",
            "shared_prediction_speedup"
        ),
        "shared_prediction_fit_ratio": _extra(
            report, "test_shared_prediction_counts",
            "shared_prediction_fit_ratio"
        ),
        "size_formula_evaluation_ratio": _extra(
            report, "test_size_table_counts", "formula_evaluation_ratio"
        ),
        "size_noise_draw_ratio": _extra(
            report, "test_size_table_counts", "noise_draw_ratio"
        ),
        "shared_cache_requests_per_second": _extra(
            report, "test_shared_cache_training_throughput",
            "requests_per_second"
        ),
        "resilience_overhead_ratio": _extra(
            report, "test_resilience_layer_overhead", "overhead_ratio"
        ),
        "robust_overhead_ratio": _extra(
            report, "test_robust_layer_overhead", "overhead_ratio"
        ),
        "robust_active_overhead_ratio": _extra(
            report, "test_robust_layer_overhead", "active_overhead_ratio"
        ),
        "population_engine_speedup": _extra(
            report, "test_population_engine_speedup", "population_speedup"
        ),
        "population_sessions_per_second": _extra(
            report, "test_population_engine_speedup",
            "population_sessions_per_second"
        ),
        "population_ours_sessions_per_second": _extra(
            report, "test_population_ours_throughput",
            "population_sessions_per_second"
        ),
        "serving_batched_speedup": _extra(
            report, "test_serving_batched_vs_sequential",
            "serving_batched_speedup"
        ),
        "serving_decisions_per_second": _extra(
            report, "test_serving_batched_vs_sequential",
            "serving_decisions_per_second"
        ),
        "serving_p50_ms": _extra(
            report, "test_serving_batched_vs_sequential", "serving_p50_ms"
        ),
        "serving_p99_ms": _extra(
            report, "test_serving_batched_vs_sequential", "serving_p99_ms"
        ),
        "warm_ladder_speedup": _extra(
            report, "test_ladder_search_cold_vs_warm", "warm_ladder_speedup"
        ),
        "ladder_search_s": _extra(
            report, "test_ladder_search_cold_vs_warm", "ladder_search_s"
        ),
    }


def check(metrics: dict[str, float], baseline: dict) -> list[str]:
    """Return a list of failure messages (empty means pass)."""
    failures: list[str] = []
    for name, spec in baseline["metrics"].items():
        if name not in metrics:
            failures.append(f"{name}: metric missing from report")
            continue
        value = metrics[name]
        if "floor" in spec:
            threshold = float(spec["floor"])
            if value < threshold:
                failures.append(
                    f"{name}: {value:.3f} below hard floor {threshold:.3f}"
                    f" (baseline {spec['baseline']:.3f})"
                )
        elif "min_fraction" in spec:
            threshold = float(spec["min_fraction"]) * float(spec["baseline"])
            if value < threshold:
                failures.append(
                    f"{name}: {value:.3f} below {spec['min_fraction']:.0%}"
                    f" of baseline {spec['baseline']:.3f}"
                    f" (threshold {threshold:.3f})"
                )
        elif "ceiling" in spec:
            threshold = float(spec["ceiling"])
            if value > threshold:
                failures.append(
                    f"{name}: {value:.3f} above hard ceiling {threshold:.3f}"
                    f" (baseline {spec['baseline']:.3f})"
                )
        elif spec.get("record"):
            pass  # tracked for visibility only, never gated
        else:
            failures.append(
                f"{name}: baseline entry has no "
                "floor/min_fraction/ceiling/record"
            )
    return failures


def update_baseline(metrics: dict[str, float], baseline: dict) -> None:
    for name, spec in baseline["metrics"].items():
        if name in metrics:
            spec["baseline"] = round(metrics[name], 3)
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="pytest-benchmark --benchmark-json output")
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite baseline.json with this report's numbers instead of checking",
    )
    args = parser.parse_args(argv)

    report = json.loads(Path(args.report).read_text())
    baseline = json.loads(BASELINE_PATH.read_text())
    metrics = extract_metrics(report)

    if args.update:
        update_baseline(metrics, baseline)
        print(f"baseline.json updated: {metrics}")
        return 0

    for name, value in sorted(metrics.items()):
        print(f"  {name}: {value:.3f} (baseline {baseline['metrics'][name]['baseline']:.3f})")
    failures = check(metrics, baseline)
    if failures:
        print("\nBenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("Benchmark regression gate passed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
