#!/usr/bin/env python3
"""Take a performance snapshot of this checkout, or compare two.

    python3 tools/snapshot.py --out BENCH_46.json
    python3 tools/snapshot.py --short --out short.json
    python3 tools/snapshot.py compare BENCH_45.json BENCH_46.json

Standard library only. It works on the checkout it lives in, whatever
the working directory. Every measurement runs in a child process, timed
from outside, interpreter start included:

- `perfbench/run.py`, unchanged and untraced, for each workload at each
  seed: its `correct`, `failed` and end-to-end metrics, and the run
  record's `net_source_lines`;
- Tier-1 (`pytest -q`), its wall time and test counts, and the
  acceptance module alone against its 180 s gate;
- `formalcalc check all --json` on each bundled scenario: wall time,
  exit code and the SHA-256 of its output (its suites run in up to one
  process per usable CPU, recorded as `machine.usable_cpus` beside
  `machine.nproc`);
- each open FOUND repro (`_repros`): wall time, exit code and the last
  line it printed.

Each child's wall time `s` sits beside `probe_s`, the mean of
`perfbench/run.py`'s speed probe taken in this process just before and
just after the child. A child that runs past its timeout is killed with
its process group and recorded as timed out, with no exit code.
`--short` only checks that the script works: seed 1, 2 s runs, no
Tier-1 or acceptance module, and each repro stopped after at most
10 s. The command exits 1 when a benchmark run did not finish correct,
after writing the snapshot. `compare A B` prints B / A for every number
both snapshots hold, and each other value that differs. A wall time's
ratio is followed by the same ratio at equal machine speed (divided by
the ratio of the probes), or by the raw ratio again where a snapshot
holds no probes (BENCH_46.json, BENCH_47.json).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import speed_probe  # noqa: E402

WORKLOADS = ("smooth-sheaf", "discrete-exact", "smooth-operators")
ACCEPTANCE_GATE_S = 180.0
TIER1_TIMEOUT_S = 1200
BENCH_TIMEOUT_S = 600
CHECK_TIMEOUT_S = 120
SEEDS, SECONDS = [1, 13], 16.0
# --short
SHORT_SEEDS, SHORT_SECONDS, SHORT_REPRO_TIMEOUT_S = [1], 2.0, 10

# the in-process repros, each a program run with `python -c`
_PRELUDE = ("import sys\nsys.path.insert(0, 'perfbench')\n"
            "from formalcalc.expr import X, certify_positive, kern, mul, "
            "sub, window_bump\nfrom formalcalc.spaces import RSet\n")
_CLI = "import sys\nfrom formalcalc.cli import main\nsys.exit(main(sys.argv[1:]))"


def _repros(tmp: Path):
    """name -> (argv after the interpreter, timeout in s) of each open
    FOUND repro; scenario files are written to tmp. This is the one list
    of them: ROADMAP.md's Baseline names each row by its key here."""
    demo = json.loads((ROOT / "scenarios" / "smooth_demo.json").read_text())
    narrow = json.loads(json.dumps(demo))
    narrow["opensets"]["L"] = [[None, "-1999/1000"]]
    narrow["opensets"]["R"] = [[-2, None]]
    # u's y^1 coefficient 10^12 s(x + 2), and eta's y^1 component twelve
    # terms, I = i and tau = (i + 1) times eta's tau
    terms = json.loads(json.dumps(demo))
    terms["functions"]["u"]["coeffs"]["1"] = "(* 1000000000000 (s (+ x 2)))"
    tau = terms["densities"]["eta"]["coeffs"]["1"][0]["tau"]
    terms["densities"]["eta"]["coeffs"]["1"] = [
        {"I": [i], "tau": {"expr": "(* %d %s)" % (i + 1, tau["expr"]),
                           "support": tau["support"]}} for i in range(12)]
    jets = {"schema": 1, "backend": "smoothline", "k": 8, "trunc": 4}
    files = {}
    for name, data in (("narrow", narrow), ("terms", terms), ("jets", jets)):
        files[name] = tmp / ("%s.json" % name)
        files[name].write_text(json.dumps(data), encoding="utf-8")

    def cli(*argv):
        return ["-c", _CLI, *map(str, argv)]

    def code(body):
        return ["-c", _PRELUDE + body]
    return {
        "narrow-cover-pou": (cli("pou", "C", "--scenario", files["narrow"]), 60),
        "certify-one-minus-s-whole-line": (code(
            "certify_positive(sub(1, kern(X)), RSet.whole())"), 60),
        "certify-x-whole-line": (code(
            "certify_positive(X, RSet.whole())"), 60),
        "flat-integral-1e6": (code(
            "from formalcalc.quadrature import integrate_expr\n"
            "print(integrate_expr(mul(10 ** 6, window_bump(-2, 2)[0]), "
            "[(-2, 2)]))"), 60),
        "rho-x4-seed1": (code(
            "import formalcalc, workloads\n"
            "print(workloads.operator_outcome(formalcalc, "
            "workloads.operator_domain(formalcalc), 'rho.x4', 1))"), 120),
        "pair-12-terms": (cli("pair", "eta", "u", "--scenario",
                              files["terms"]), 180),
        "jets-line-k8-trunc4": (cli("check", "jets", "--scenario",
                                    files["jets"]), 120),
    }


def run_child(argv, timeout):
    """Run the interpreter on argv in the checkout, with src/ first on
    the path: {"s", "probe_s", "exit", "timed_out"} and the child's
    output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    before = speed_probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        rec = {"exit": proc.returncode, "timed_out": False}
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        rec = {"exit": None, "timed_out": True, "timeout_s": timeout}
    rec["s"] = time.perf_counter() - t0
    rec["probe_s"] = (before + speed_probe()) / 2
    return rec, out, err


def _last_line(*texts):
    lines = [s for t in texts for s in t.splitlines() if s.strip()]
    return lines[-1][:200] if lines else ""


def benchmark(seeds, seconds):
    out = {}
    for seed in seeds:
        for name in WORKLOADS:
            rec, stdout, err = run_child(
                ["perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"], BENCH_TIMEOUT_S)
            key = "%s/seed%d" % (name, seed)
            if rec["timed_out"] or not stdout.strip():
                out[key] = {**rec, "error": _last_line(err)}
                continue
            last = json.loads(stdout.strip().splitlines()[-1])
            record = json.loads((ROOT / "perfbench" / "results" / (
                "%s-seed%d-trace0.json" % (name, seed))).read_text())
            out[key] = {
                **rec, "correct": last["correct"], "failed": last["failed"],
                "net_source_lines": record["net_source_lines"],
                "metrics": {k: m["value"] for k, m in last["metrics"].items()}}
    return out


def tier1():
    rec, out, err = run_child(["-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors"],
                              TIER1_TIMEOUT_S)
    summary = _last_line(out)
    rec["counts"] = {k: int(n) for n, k in re.findall(
        r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)", summary)}
    acc, out, _ = run_child(["-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "tests/test_acceptance.py"], TIER1_TIMEOUT_S)
    acc["gate_s"] = ACCEPTANCE_GATE_S
    acc["within_gate"] = acc["exit"] == 0 and acc["s"] < ACCEPTANCE_GATE_S
    return rec, acc


def check_all():
    out = {}
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        rec, stdout, _ = run_child(
            ["-c", _CLI, "check", "all", "--scenario",
             str(path.relative_to(ROOT)), "--json"], CHECK_TIMEOUT_S)
        rec["sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
        out[path.stem] = rec
    return out


def repros(cap):
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, timeout) in _repros(Path(tmp)).items():
            rec, stdout, err = run_child(argv, min(timeout, cap))
            rec["last_line"] = _last_line(stdout, err)
            out[name] = rec
    return out


def _git_head():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def take(short, out_path):
    seeds, seconds = (SHORT_SEEDS, SHORT_SECONDS) if short else (SEEDS, SECONDS)
    snap = {"schema": 1, "commit": _git_head(),
            # check all runs a process per usable CPU, so its times
            # depend on usable_cpus, not on nproc
            "machine": {"nproc": os.cpu_count(),
                        "usable_cpus": len(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity") else None,
                        "python": platform.python_version(),
                        "platform": platform.platform()},
            "seeds": seeds, "seconds": seconds}
    snap["benchmark"] = benchmark(seeds, seconds)
    lines = {r.get("net_source_lines") for r in snap["benchmark"].values()}
    snap["net_source_lines"] = lines.pop() if len(lines) == 1 else None
    snap["tier1"], snap["acceptance"] = (None, None) if short else tier1()
    snap["check_all"] = check_all()
    snap["repros"] = repros(SHORT_REPRO_TIMEOUT_S if short else float("inf"))
    text = json.dumps(snap, indent=1, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    # the snapshot is written either way; a benchmark run that did not
    # finish correct fails the command
    return 0 if all(r.get("correct") for r in snap["benchmark"].values()) \
        else 1


def _flat(value, prefix=""):
    """{dotted path: leaf} of a snapshot."""
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            out.update(_flat(v, "%s%s." % (prefix, k)))
        return out
    return {prefix[:-1]: value}


def compare(a_path, b_path):
    a = _flat(json.loads(Path(a_path).read_text()))
    b = _flat(json.loads(Path(b_path).read_text()))
    for key in sorted(a.keys() & b.keys()):
        x, y = a[key], b[key]
        if (isinstance(x, (int, float)) and isinstance(y, (int, float))
                and not isinstance(x, bool) and not isinstance(y, bool)):
            ratio = "%.3f" % (y / x) if x else ("1.000" if y == x else "inf")
            line = "%-64s %14.6g %14.6g  %s" % (key, x, y, ratio)
            if key.endswith(".s") and x:
                probe = key[:-1] + "probe_s"
                if a.get(probe) and b.get(probe):
                    line += "  %.3f at equal speed" % (
                        y / b[probe] / (x / a[probe]))
                else:
                    line += "  %s raw, no probe" % ratio
            print(line)
        elif x != y:
            print("%-64s %s -> %s" % (key, x, y))
    for key in sorted(a.keys() ^ b.keys()):
        print("%-64s only in %s" % (key, a_path if key in a else b_path))
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="snapshot.py compare")
        p.add_argument("a")
        p.add_argument("b")
        args = p.parse_args(argv[1:])
        return compare(args.a, args.b)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", help="write the snapshot here, not to stdout")
    p.add_argument("--short", action="store_true",
                   help="seed 1, 2 s runs, no Tier-1, repros capped at 10 s")
    args = p.parse_args(argv)
    return take(args.short, args.out)


if __name__ == "__main__":
    sys.exit(main())
