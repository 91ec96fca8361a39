#!/usr/bin/env python3
"""Determinism and held-out-seed check of the benchmark.

    python3 perfbench/selfcheck.py

For every workload: two traced runs on SEED must report identical
counters (every per-layer metric with unit "count"), and an untraced
run on HELD_OUT must fail no task. The held-out run ignores the seed
pools of pools.json and draws every suite seed from all 2**32 seeds, so
it checks suite inputs that the timed runs never see, costly ones
included. Both use run_seconds from BENCHMARK.json. Exit code 1 on any
mismatch or failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
HELD_OUT = 9001


def traced(workload, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed:\n%s%s" % (workload, SEED,
                                                       proc.stdout,
                                                       proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


def held_out(fc, workload, seconds):
    """Task records of an untraced run on HELD_OUT without seed pools."""
    ctx = workload.setup(fc, run.ROOT)
    ctx["pools"] = {}
    _, tasks = run.task_list(workload, fc, ctx, HELD_OUT, seconds, Counter())
    records, _, _ = run.execute(tasks)
    return records


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    fc = run.load_formalcalc(run.ROOT)
    bad = 0
    for name, workload in WORKLOADS.items():
        a, b = (traced(name, seconds) for _ in range(2))
        counters = {k: (a["metrics"][k]["value"], b["metrics"][k]["value"])
                    for k in a["metrics"] if a["metrics"][k]["unit"] == "count"}
        diff = {k: v for k, v in counters.items() if v[0] != v[1]}
        records = held_out(fc, workload, seconds)
        failed = [r for r in records if not r["ok"]]
        print("%s: %d counters, %d differ %s; held-out seed %d: %d/%d failed"
              % (name, len(counters), len(diff), diff or "", HELD_OUT,
                 len(failed), len(records)))
        for r in failed:
            print("  FAILED %s: %s" % (r["kind"], r["note"].strip()))
        bad += bool(diff) + bool(failed)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
