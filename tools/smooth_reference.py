#!/usr/bin/env python3
"""Write tests/smooth_reference.json and tests/smooth_sheaf_reference.json:
reference values of the integrals that the benchmark's smooth-operators
and smooth-sheaf task lists make.

    python3 tools/smooth_reference.py [--seed 1] [--out-dir tests]

Run from the root of a checkout. For each of the two workloads, the
script builds its seeded task list of `perfbench/run.py --seconds 16`,
runs it once, and records every distinct non-polynomial integral the
tasks ask quadrature for: the printed integrand and its exact ranges.
Each is then integrated with `mpmath.quad` (tanh-sinh) at 30
significant digits, its ranges split at the zeros of its real affine
kernel arguments, where the integrand is not analytic. A reference
whose error estimate is above 1e-20 is refused: the script exits 1 and
writes no table. `tests/test_smooth_reference.py` reads the tables.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from mpmath import mp, mpc, mpf, nstr

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

DIGITS = 30
MAX_ERROR = 1e-20
# each workload's table, in --out-dir
TABLES = {"smooth-operators": "smooth_reference.json",
          "smooth-sheaf": "smooth_sheaf_reference.json"}


def collect(fc, workload, seed):
    """[(integrand, ranges)] of the task list's distinct non-polynomial
    integrals, in the order they are first asked for."""
    from formalcalc import expr, quadrature
    seen = {}
    raw = quadrature._make_groups

    def recording(memo, pending):
        for key, (_, ranges) in pending.items():
            e = key[0]
            if not expr._polynomial(expr._postorder(e)):
                seen.setdefault((e, tuple(ranges)), None)
        return raw(memo, pending)
    quadrature._make_groups = recording
    try:
        w = workloads.WORKLOADS[workload]
        ctx = w.setup(fc, ROOT)
        _, tasks = run.task_list(w, fc, ctx, seed, 16, Counter())
        for _, task in tasks:
            task()
    finally:
        quadrature._make_groups = raw
    return list(seen)


def reference(e, ranges):
    """(value, error estimate) of mpmath.quad over the ranges, each split
    at the kernel zeros inside it."""
    from formalcalc import expr
    from formalcalc.scalars import QC

    def f(t):
        v = expr.ev(e, t)
        if isinstance(v, QC):
            return mpc(mpf(v.re.numerator) / v.re.denominator,
                       mpf(v.im.numerator) / v.im.denominator)
        return v
    zeros = sorted(set(expr._kernel_zeros(expr._postorder(e))))
    total, error = mpc(0), mpf(0)
    with mp.workdps(DIGITS):
        for lo, hi in ranges:
            knots = [lo, *(z for z in zeros if lo < z < hi), hi]
            v, err = mp.quad(f, [mpf(k.numerator) / k.denominator
                                 for k in map(Fraction, knots)], error=True)
            total += v
            error += err
        return total, error


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out-dir", default=str(ROOT / "tests"))
    args = p.parse_args(argv)
    fc = run.load_formalcalc(ROOT)
    from formalcalc.expr import to_sexpr
    tables, refused = {}, []
    for workload in TABLES:
        table = tables[workload] = []
        for e, ranges in collect(fc, workload, args.seed):
            if not all(type(b) in (int, Fraction) for r in ranges for b in r):
                raise SystemExit("error: a range bound is not exact: %r"
                                 % (ranges,))
            value, error = reference(e, ranges)
            if not error <= MAX_ERROR:
                refused.append((to_sexpr(e)[:60], nstr(error, 3)))
                continue
            table.append({
                "integrand": to_sexpr(e),
                "ranges": [[str(Fraction(lo)), str(Fraction(hi))]
                           for lo, hi in ranges],
                "re": nstr(value.real, DIGITS), "im": nstr(value.imag, DIGITS),
                "error": nstr(error, 3)})
    if refused:
        for text, error in refused:
            print("refused (error estimate %s): %s..." % (error, text),
                  file=sys.stderr)
        return 1
    for workload, table in tables.items():
        out = Path(args.out_dir) / TABLES[workload]
        out.write_text(json.dumps(
            {"workload": workload, "seed": args.seed, "digits": DIGITS,
             "max_error": MAX_ERROR, "integrals": table}, indent=1) + "\n",
            encoding="utf-8")
        print("%d integrals written to %s" % (len(table), out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
