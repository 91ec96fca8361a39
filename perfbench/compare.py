#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are result files written by run.py, or directories of
them (typically one run per seed). For every workload and metric the
script prints each side's median and quartile spread and the change of
the median as a share of BASE's. End-to-end metrics are judged against
the bound in BENCHMARK.json: "worse" when CHANGE's median is worse than
BASE's by more than the bound, "unresolved" when BASE's own quartile
spread is wider than the bound. Per-layer metrics have no bound and
are only listed. Exit code 1 when any end-to-end metric is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(arg):
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups = defaultdict(lambda: defaultdict(list))
    for f in files:
        rec = json.loads(f.read_text(encoding="utf-8"))
        if "metrics" not in rec or "workload" not in rec:
            continue
        for name, m in rec["metrics"].items():
            groups[(rec["workload"], rec["trace"])][name].append(m["value"])
    return groups


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
    else:
        spread = 0.0
    return med, spread


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(argv[0]), load(argv[1])
    worse = 0
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print("%s (%s)" % (workload, "per-layer" if trace else "end-to-end"))
        print("  %-30s %12s %7s %12s %7s %8s" % ("metric", "base", "iqr",
                                                 "change", "iqr", "delta"))
        for name in sorted(set(base[key]) & set(change[key])):
            bmed, bspread = summary(base[key][name])
            cmed, cspread = summary(change[key][name])
            delta = (cmed - bmed) / bmed if bmed else 0.0
            verdict = ""
            rule = rules.get(name, {})
            if "bound" in rule:
                sign = 1 if rule["better"] == "lower" else -1
                if bspread > rule["bound"]:
                    verdict = "unresolved"
                elif sign * delta > rule["bound"]:
                    verdict, worse = "worse", worse + 1
                elif sign * delta < -bspread:
                    verdict = "better"
            print("  %-30s %12.5g %6.1f%% %12.5g %6.1f%% %+7.1f%% %s"
                  % (name, bmed, 100 * bspread, cmed, 100 * cspread,
                     100 * delta, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
