#!/usr/bin/env python3
"""formalcalc benchmark: one seeded workload, end to end or traced.

    python3 perfbench/run.py --workload smooth-sheaf --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; formalcalc is imported from its src/
directory, never from an installed copy. With --trace 0 the run is
untraced and reports the end-to-end metrics; with --trace 1 it runs the
same task list traced (per-layer counts and self times) and then
untraced, and reports the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A fuller record (machine, net source lines, every task, and in traced
runs the spans) is written under perfbench/results/. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

RESULTS = HERE / "results"
SETUP_REPEATS = 3
# Speed probes per run, spread evenly over the gaps between tasks
MIN_PROBES = 32
# Every time is rescaled to the machine speed at which speed_probe()
# takes PROBE_NOMINAL_S, as it did on the 2-CPU virtual machine (2.1 GHz,
# Python 3.11) the benchmark was defined on. The speed of a shared
# virtual machine can drift by 2x over minutes; see README.md.
PROBE_NOMINAL_S = 0.0046

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "checks_per_s": "1/s",
    "task_s.p50": "s", "task_s.tail": "s", "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}

SUITES = ("mv", "glue", "cosheaf", "flabby", "duality", "jets")
PER_LAYER = {
    "scalars.qc_ops": "count", "scalars.complex_calls": "count",
    "expr.ev_f.visits": "count", "expr.ev_f.s": "s",
    "expr.ev.visits": "count", "expr.ev.s": "s",
    "expr.diff.calls": "count", "expr.diff.s": "s",
    "expr.diff.out_nodes": "count",
    "expr.ibounds.calls": "count", "expr.ibounds.visits": "count",
    "expr.certify_positive.s": "s", "expr.parse_sexpr.s": "s",
    "quadrature.integrals": "count", "quadrature.exact_integrals": "count",
    "quadrature.evals": "count", "quadrature.panels": "count",
    "quadrature.s": "s", "quadrature.us_per_eval": "us",
    "basedensity.integrate.s": "s", "densities.pair.s": "s",
    "densities.module_action.s": "s",
    "diffops.apply.s": "s", "diffops.rho.s": "s",
    "distributions.apply.s": "s", "distributions.act_on_density.s": "s",
    "distributions.cutoff_extend.s": "s",
    "sheaf.build_pou.s": "s", "sheaf.sheaf_glue.s": "s",
    "sheaf.mv_split.s": "s", "sheaf.cosheaf_decompose.s": "s",
    "sheaf.functional_residual.s": "s", "sheaf.probes": "count",
    **{"suites.%s.%s" % (n, k): u for n in SUITES
       for k, u in (("s", "s"), ("checks", "count"))},
    "scenario.load.s": "s", "cli.main.s": "s", "cli.golden_drift": "count",
    "trace.overhead": "ratio",
}


def source_package(root: Path) -> Path:
    pkg = root / "src" / "formalcalc"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit("error: no formalcalc source at %s" % pkg)
    return pkg


def load_formalcalc(root: Path):
    """Import formalcalc from root/src, refusing any other copy."""
    pkg = source_package(root)
    sys.path.insert(0, str(root / "src"))
    import formalcalc
    import formalcalc.cli  # noqa: F401  (binds fc.cli and fc.suites)
    if Path(formalcalc.__file__).resolve().parent != pkg.resolve():
        raise SystemExit("error: imported formalcalc from %s, not %s"
                         % (formalcalc.__file__, pkg))
    return formalcalc


def net_source_lines(pkg: Path) -> int:
    """Lines of src/formalcalc that are neither blank nor only a comment."""
    n = 0
    for path in sorted(pkg.glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            s = line.strip()
            if s and not s.startswith("#"):
                n += 1
    return n


def machine_info(fc):
    import mpmath
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "mpmath": mpmath.__version__, "platform": platform.platform(),
            "formalcalc": fc.__version__}


# -- machine speed -------------------------------------------------------------

def speed_probe() -> float:
    """Seconds per unit of a fixed pure-Python work, over five units.

    The work mixes what formalcalc spends its time on: Fraction
    arithmetic, float math and small dicts and tuples. It touches no
    formalcalc code, so a change to the program cannot move it, and the
    collector is off so that the program's heap cannot either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(5):
            acc, table = Fraction(0), {}
            for i in range(1, 1000):
                acc = acc * Fraction(1, 2) + Fraction(i % 7, 3)
                key = (i % 5, i % 11)
                table[key] = table.get(key, 0.0) + math.exp(-1.0 / i) * (i % 3)
        return (time.perf_counter() - t0) / 5
    finally:
        if enabled:
            gc.enable()


# -- set-up -------------------------------------------------------------------

def setup_probe(workload) -> float:
    """Import formalcalc and build the workload's fixed set-up, timed and
    normalized by the mean of three speed probes on each side."""
    probes = [speed_probe() for _ in range(3)]
    t0 = time.perf_counter()
    fc = load_formalcalc(ROOT)
    workload.setup(fc, ROOT)
    elapsed = time.perf_counter() - t0
    probes += [speed_probe() for _ in range(3)]
    return elapsed * PROBE_NOMINAL_S / statistics.mean(probes)


def measure_setup(name):
    """Set-up time of fresh interpreters, SETUP_REPEATS samples."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name], capture_output=True, text=True,
            timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit("error: set-up probe failed:\n" + proc.stderr)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


# -- task execution --------------------------------------------------------

def task_list(workload, fc, ctx, seed, seconds, counts):
    passes = max(1, round(seconds / workload.nominal_pass_s))
    tasks = []
    for p in range(passes):
        rng = random.Random("%s/%d/%d" % (workload.name, seed, p))
        tasks.extend(workload.tasks(fc, ctx, rng, counts))
    return passes, tasks


def one_of_each(tasks):
    """The first task of each kind, in order."""
    first = {}
    for kind, fn in tasks:
        first.setdefault(kind, fn)
    return list(first.items())


def execute(tasks, tr=None):
    """Run tasks in order with speed probes before and after each task.

    Each task's time is normalized by the mean of the probes in the gaps
    just before and just after it. The machine the benchmark was defined
    on switched between two speeds about 1.7x apart, each held for
    seconds, so the probes next to a task see the state it ran in; over
    ten seeds per workload, the quartile spreads of the median and tail
    task times normalized by the mean of all the run's probes were 1.2
    to 1.7 times these. A run of few tasks takes several probes in each
    gap, so that one momentary slow probe moves a task's scale less.
    """
    per_gap = math.ceil(MIN_PROBES / (len(tasks) + 1))
    records, gaps = [], [[speed_probe() for _ in range(per_gap)]]
    for idx, (kind, fn) in enumerate(tasks):
        span = contextlib.nullcontext()
        if tr is not None:
            tr.task = idx
            span = tr.span("task." + kind)
        t0 = time.perf_counter()
        try:
            with span:
                out = fn()
        except Exception:  # a task that raises counts as a failed verdict
            out = workloads.Outcome(0, math.inf, 0.0, False,
                                    traceback.format_exc(limit=3))
        records.append({"kind": kind, "raw_s": time.perf_counter() - t0,
                        "checks": out.checks, "residual": out.residual,
                        "tol": out.tol, "ok": out.ok, "note": out.note})
        gaps.append([speed_probe() for _ in range(per_gap)])
    for r, before, after in zip(records, gaps, gaps[1:]):
        r["s"] = r["raw_s"] * PROBE_NOMINAL_S / statistics.mean(before + after)
    probes = [p for gap in gaps for p in gap]
    return records, sum(r["s"] for r in records), probes


def end_to_end(records, wall, setup_samples):
    times = sorted(r["s"] for r in records)
    n = len(times)
    p50 = statistics.median(times)
    # the highest order statistic with at least ten tasks beyond it,
    # never below the median (short task lists have no such tail)
    if n >= 21:
        tail, pct = times[n - 11], 100.0 * (n - 11) / (n - 1)
    else:
        tail, pct = p50, 50.0
    digits = [workloads.accuracy_digits(r["residual"], r["tol"])
              for r in records]
    inexact = [d for d, r in zip(digits, records) if r["residual"] != 0]
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "checks_per_s": sum(r["checks"] for r in records) / wall,
        "task_s.p50": p50,
        "task_s.tail": tail,
        "accuracy_digits": min(digits),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"tasks": n, "task_s.tail_percentile": pct,
              "setup_samples_s": setup_samples,
              "accuracy_digits_mean": statistics.mean(inexact) if inexact
              else 16.0}
    return values, detail


def per_layer(tr, drift, wall_traced, wall_untraced):
    c, own, total = tr.counts, tr.self_s, tr.total_s
    evals = c["quadrature.evals"]
    values = {
        "expr.ev_f.s": own["expr.ev_f"], "expr.ev.s": own["expr.ev"],
        "expr.diff.calls": tr.calls["expr.diff"],
        "expr.diff.s": own["expr.diff"],
        "expr.ibounds.calls": tr.calls["expr.ibounds"],
        "expr.certify_positive.s": own["expr.certify_positive"],
        "expr.parse_sexpr.s": own["expr.parse_sexpr"],
        "quadrature.panels": evals // 15,
        "quadrature.s": (own["quadrature.integrate_expr"]
                         + own["quadrature.integrate_callable"]),
        "quadrature.us_per_eval": (1e6 * total["quadrature.integrate_callable"]
                                   / evals if evals else 0.0),
        "cli.main.s": total["cli.main"],
        "cli.golden_drift": drift["cli.golden_drift"],
        "trace.overhead": wall_traced / wall_untraced - 1.0,
    }
    for name in SUITES:
        values["suites.%s.s" % name] = total["suites." + name]
    for name in PER_LAYER:
        if name not in values:
            values[name] = c[name] if PER_LAYER[name] == "count" \
                else own[name[:-2]]
    return values


# -- main ------------------------------------------------------------------------

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        p.error("unknown workload %r (one of %s)"
                % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        print("%.9f" % setup_probe(workload))
        return 0

    source_package(ROOT)
    setup_samples = [] if args.trace else measure_setup(workload.name)
    fc = load_formalcalc(ROOT)
    ctx = workload.setup(fc, ROOT)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_info(fc),
              "net_source_lines": net_source_lines(ROOT / "src" / "formalcalc")}

    drift = Counter()
    passes, tasks = task_list(workload, fc, ctx, args.seed, args.seconds, drift)
    record["passes"] = passes
    if args.trace:
        # One task of each kind reaches every layer the workload does, and
        # keeps a traced run (tracing doubles the time of smooth tasks,
        # and the tasks run twice) well inside the time a run may take.
        tr = tracer.Tracer()
        tr.install(fc)
        try:
            records, wall_traced, _ = execute(one_of_each(tasks), tr)
        finally:
            tr.uninstall()
        _, again = task_list(workload, fc, ctx, args.seed, args.seconds,
                             Counter())
        _, wall_untraced, _ = execute(one_of_each(again))
        values = per_layer(tr, drift, wall_traced, wall_untraced)
        units = PER_LAYER
        record["wall_s"] = {"traced": wall_traced, "untraced": wall_untraced}
        record["spans"] = {"dropped": tr.dropped_spans,
                           "fields": ["id", "parent", "task", "name",
                                      "start", "end"],
                           "spans": tr.spans}
    else:
        records, wall, probes = execute(tasks)
        values, detail = end_to_end(records, wall, setup_samples)
        units = END_TO_END
        record.update(detail, raw_wall_s=sum(r["raw_s"] for r in records),
                      probes_s=probes)
        record["cli.golden_drift"] = drift["cli.golden_drift"]

    failed = sum(not r["ok"] for r in records)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    record.update({"attempted": len(records), "failed": failed,
                   "failed_share": failed / len(records),
                   "metrics": metrics, "task_records": records})
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / ("%s-seed%d-trace%d.json"
                     % (workload.name, args.seed, args.trace))
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")

    for r in records:
        if not r["ok"]:
            print("FAILED %s: %s" % (r["kind"], r["note"].strip()))
    print("workload %s seed %d: %d tasks in %d passes, %d failed; %s"
          % (workload.name, args.seed, len(records), passes, failed, out))
    for k, m in metrics.items():
        print("  %-32s %14.6g %s" % (k, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
