#!/usr/bin/env python3
"""Compare two suite reports of ``run.py`` metric by metric.

    python benchmarks/e2e/compare.py PARENT.json CHANGE.json

For every (end-to-end metric, workload) pair named in ``BENCHMARK.json``
it prints both medians with their quartiles, the ratio change/parent
with its base, and a verdict:

* ``improved``   — every change run beats every parent run, and the
  medians differ by more than the parent's own quartile spread;
* ``unresolved`` — otherwise, when either side's quartile spread
  (q3 - q1, as a share of its median) exceeds the metric's bound;
* ``worse``      — the change's median is worse than the parent's by
  more than the bound;
* ``unchanged``  — anything else.

``failed_frac`` (failed over attempted operations) is compared per
workload too: any increase is ``worse``.  The exit status is 1 when any
pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    p_med, c_med = parent["median"], change["median"]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (c_med - p_med) / p_med
    p_spread = (parent["q3"] - parent["q1"]) / p_med
    c_spread = (change["q3"] - change["q1"]) / c_med
    if better == "lower":
        all_better = max(change["values"]) < min(parent["values"])
    else:
        all_better = min(change["values"]) > max(parent["values"])
    if all_better and -worse_by > p_spread:
        return "improved"
    if max(p_spread, c_spread) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "unchanged"


def compare(parent: dict, change: dict, benchmark: dict) -> list[str]:
    """One line per (metric, workload) pair, then the failed_frac rows."""
    lines = []
    workloads = [w for w in parent["workloads"] if w in change["workloads"]]
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        for workload in workloads:
            p = parent["workloads"][workload]["summary"].get(name)
            c = change["workloads"][workload]["summary"].get(name)
            if p is None or c is None:
                lines.append(f"{name:18s} {workload:17s} missing")
                continue
            unit = metric["unit"]
            lines.append(
                f"{name:18s} {workload:17s} "
                f"parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] "
                f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
                f"{unit}; change/parent {c['median'] / p['median']:.3f} "
                f"(base: parent median {p['median']:.4g} {unit}, "
                f"{metric['better']} is better, bound {metric['bound']:.0%}) "
                f"-> {verdict(p, c, metric['better'], metric['bound'])}"
            )
    for workload in workloads:
        p = parent["workloads"][workload]["failed_frac"]
        c = change["workloads"][workload]["failed_frac"]
        state = "worse" if c > p else ("improved" if c < p else "unchanged")
        lines.append(
            f"{'failed_frac':18s} {workload:17s} parent {p:.6f} "
            f"change {c:.6f} -> {state}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", type=Path, help="suite report of the parent")
    parser.add_argument("change", type=Path, help="suite report of the change")
    parser.add_argument("--benchmark", type=Path, default=DEFAULT_BENCHMARK,
                        help="BENCHMARK.json with the metrics and bounds")
    args = parser.parse_args(argv)
    lines = compare(
        json.loads(args.parent.read_text()),
        json.loads(args.change.read_text()),
        json.loads(args.benchmark.read_text()),
    )
    print("\n".join(lines))
    return 1 if any(line.endswith("-> worse") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
