#!/usr/bin/env python3
"""Record the benchmark's reference data from the current checkout.

    python3 perfbench/calibrate.py goldens
    python3 perfbench/calibrate.py pools --backend discrete
    python3 perfbench/calibrate.py pools --backend smooth
    python3 perfbench/calibrate.py pools --backend operators

goldens: the stdout and exit code of the CLI calls the workloads make
(goldens.json). Run it on the commit the benchmark was defined on;
later commits are checked against that output.

pools: for each seeded suite (or smooth-operators identity), the work
of one call for each candidate seed (see SEEDED), and the POOL_SIZE
seeds whose work is closest (in ratio) to the median. pools.json keeps
the pool and the median; the work and accuracy digits of every
candidate are printed. Every candidate must pass its oracle. Work is
counted, not timed, so that pools do not depend on the machine's
momentary speed: expression node visits under float evaluation
(expr.ev_f) plus QC arithmetic operations, the two counts that dominate
smooth and discrete time. Workloads draw seeds from these pools so that
every run holds comparable work; see workloads.py.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

POOL_SIZE = 6
# backend -> (candidate seeds per call, the calls whose cost the seed sets)
SEEDED = {"smooth": (48, ("mv", "glue", "cosheaf")),
          "discrete": (64, ("mv", "glue", "cosheaf", "flabby", "duality")),
          "operators": (24, ("rho.x0", "rho.x1", "rho.x2", "module.x0",
                             "module.x1"))}

CLI_CALLS = {
    "discrete_demo check": (["check", "all", "--scenario",
                             "scenarios/discrete_demo.json", "--json"], 0, True),
    "pair_demo check": (["check", "all", "--scenario",
                         "scenarios/pair_demo.json", "--json"], 0, True),
    "glue_mismatch check": (["check", "all", "--scenario",
                             "scenarios/glue_mismatch.json", "--json"], 1, True),
    "smooth pair": (["pair", "eta", "u", "--scenario",
                     "scenarios/smooth_demo.json", "--json"], 0, False),
    "smooth apply": (["apply", "D", "u", "--scenario",
                      "scenarios/smooth_demo.json", "--json"], 0, False),
    "smooth pou": (["pou", "C", "--scenario",
                    "scenarios/smooth_demo.json", "--json"], 0, False),
}


def record_goldens(fc):
    out = {}
    for name, (argv, expect, exact) in CLI_CALLS.items():
        code, stdout = workloads.run_cli(fc, run.ROOT, argv)
        if code != expect:
            raise SystemExit("%s exited %d, expected %d" % (name, code, expect))
        out[name] = {"argv": argv, "exit": code, "stdout": stdout,
                     "exact": exact}
    out["glue_mismatch check"]["witness"] = "declared-glue"
    return out


def outcome(fc, backend, name, seed):
    """The oracle's verdict on one seeded suite round or identity."""
    if backend == "operators":
        return workloads.operator_outcome(
            fc, workloads.operator_domain(fc), name, seed)
    if backend == "smooth":
        return workloads.suite_outcome(
            workloads.smooth_suite_call(fc, name, seed), workloads.SMOOTH_TOL)
    space = fc.Discrete(workloads.DISCRETE_POINTS)
    return workloads.suite_outcome(
        workloads.discrete_suite_call(fc, space, name, seed), 0.0)


def work_counter(fc):
    """Tracer counting ev_f node visits and QC operations only."""
    tr = tracer.Tracer()
    tr.patch_function(sys.modules["formalcalc.expr"], "ev_f",
                      lambda f: tr.recursive("expr.ev_f", f, "work"))
    for op in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
               "__rtruediv__"):
        tr.patch_method(fc.QC, op, lambda f: tr.counted("work", f))
    return tr


def pool(work):
    med = statistics.median(work.values())
    near = sorted(work, key=lambda s: (abs(math.log(work[s] / med)), s))
    return {"seeds": sorted(near[:POOL_SIZE]), "median_work": med}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("what", choices=("goldens", "pools"))
    p.add_argument("--backend", choices=tuple(SEEDED), default="discrete")
    args = p.parse_args()
    fc = run.load_formalcalc(run.ROOT)
    if args.what == "goldens":
        path = HERE / "goldens.json"
        path.write_text(json.dumps(record_goldens(fc), indent=1,
                                   sort_keys=True) + "\n", encoding="utf-8")
        print("wrote", path)
        return
    path = HERE / "pools.json"
    pools = json.loads(path.read_text()) if path.exists() else {}
    section = {}
    candidates, names = SEEDED[args.backend]
    tr = work_counter(fc)
    try:
        for name in names:
            work = {}
            for seed in range(candidates):
                tr.counts.clear()
                t0 = time.process_time()
                out = outcome(fc, args.backend, name, seed)
                work[seed] = max(1, tr.counts["work"])
                if not out.ok:
                    raise SystemExit("%s %s seed %d failed: %s"
                                     % (args.backend, name, seed, out.note))
                print(args.backend, name, seed, work[seed],
                      "%.3f" % (time.process_time() - t0),
                      "%.2f" % workloads.accuracy_digits(out.residual, out.tol),
                      flush=True)
            section[name] = pool(work)
    finally:
        tr.uninstall()
    pools[args.backend] = section
    path.write_text(json.dumps(pools, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print("wrote", path)


if __name__ == "__main__":
    main()
