"""Command line interface.

Commands operate on named objects from a scenario file (see scenario.py
for the schema). Exit codes: 0 on success, 1 when a verification or
certified construction fails, 2 on input errors (including text nested
past the recursion limit of the expression or JSON parser) and on an
integral out of reach of the quadrature budget, which leaves an answer
undecided, not failed, 3 on any other exception, which is a fault of
formalcalc itself; the four are never conflated. With --json the report
is emitted as canonical JSON (sorted keys, no whitespace), so a given
(scenario, seed) pair yields byte-identical output across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .densities import FormalDensity
from .distributions import dist_space_dimension, jet_kernel_check
from .errors import (BackendError, CertificateError, DomainMismatchError,
                     IncompatibilityError, QuadratureError, ScenarioError,
                     SupportError, TruncationError)
from .multiindex import enumerate_upto, key_str
from .quadrature import DEFAULT_ABS_TOL, shares_integrals
from .scalars import QC, rat_str
from .scenario import SCHEMA_VERSION, Scenario
from .sheaf import build_pou, sheaf_glue
from .suites import SUITE_NAMES, _Tally, run_suite

_CHECK_ERRORS = (CertificateError, IncompatibilityError)
# OverflowError: an exact value of the input too large for the float
# residual or report that reads it
_INPUT_ERRORS = (ScenarioError, DomainMismatchError, BackendError,
                 TruncationError, SupportError, ValueError, KeyError,
                 OverflowError, OSError)


def _scalar_json(v):
    """JSON value for an exact or numeric scalar."""
    if isinstance(v, QC):
        if v.im == 0:
            return rat_str(v.re)
        return [rat_str(v.re), rat_str(v.im)]
    c = complex(v)
    if c.imag == 0.0:
        return c.real
    return [c.real, c.imag]


@shares_integrals
def cmd_pair(args, sc, tol, seed):
    """The pairing and its part per y*-index L; the parts read the
    total's integrals from the command's memo."""
    del seed
    eta = sc.density(args.density)
    u = sc.function(args.function)
    abs_tol = args.tol if args.tol is not None else DEFAULT_ABS_TOL
    total = eta.pair(u, abs_tol=abs_tol)
    per_l = {}
    for l in eta.keys_sorted():
        part = FormalDensity(sc.space, eta.domain, sc.k, {l: eta.coeffs[l]})
        per_l[key_str(l)] = _scalar_json(part.pair(u, abs_tol=abs_tol))
    report = {"command": "pair", "schema": SCHEMA_VERSION,
              "density": args.density, "function": args.function,
              "value": _scalar_json(total), "per_L": per_l}
    return report, 0


def cmd_rho(args, sc, tol, seed):
    del tol, seed
    op = sc.operator(args.operator)
    eta = op.rho()
    report = {"command": "rho", "schema": SCHEMA_VERSION,
              "operator": args.operator, "density": eta.to_json()}
    return report, 0


def cmd_apply(args, sc, tol, seed):
    del seed
    op = sc.operator(args.operator)
    u = sc.function(args.function)
    out = op.apply(u)
    abs_tol = args.tol if args.tol is not None else DEFAULT_ABS_TOL
    integral = out.integrate(op.domain, abs_tol=abs_tol)
    report = {"command": "apply", "schema": SCHEMA_VERSION,
              "operator": args.operator, "function": args.function,
              "density": out.to_json(), "integral": _scalar_json(integral)}
    return report, 0


def cmd_jet(args, sc, tol, seed):
    del seed
    u = sc.function(args.function)
    r = args.order
    if r < 0:
        raise ScenarioError("jet order must be nonnegative")
    if u.trunc < r:
        raise TruncationError(
            "function truncates at y-degree %d, jets need %d" % (u.trunc, r))
    a = sc.space.point(args.point)
    ndim = sc.space.ndim
    rows = []
    for m in enumerate_upto(ndim + sc.k, r):
        i, j = m[:ndim], m[ndim:]
        rows.append({"I": list(i), "J": list(j),
                     "value": _scalar_json(u.jet(a, i, j))})
    report = {"command": "jet", "schema": SCHEMA_VERSION,
              "function": args.function, "point": args.point, "order": r,
              "dimension": dist_space_dimension(ndim, sc.k, r),
              "in_max_ideal_power": jet_kernel_check(u, a, r, tol=tol),
              "jets": rows}
    return report, 0


def cmd_pou(args, sc, tol, seed):
    del tol, seed
    cover = sc.cover(args.cover)
    pou = build_pou(cover, sc.k, sc.trunc)
    report = {"command": "pou", "schema": SCHEMA_VERSION,
              "cover": args.cover,
              "grid_residual": float(pou.grid_residual),
              "functions": [f.to_json() for f in pou.functions]}
    return report, 0


def _declared_glue(sc, tol):
    task = sc.tasks["glue"]
    cover = sc.cover(task.get("cover", ""))
    locals_ = [sc.distribution(nm) for nm in task.get("locals", ())]
    pou = build_pou(cover, sc.k, sc.trunc)
    tally = _Tally(tol)
    try:
        sheaf_glue(locals_, pou, tol)
    except IncompatibilityError as e:
        tally.residual(e.residual, law="declared-glue", error=str(e),
                       probe=e.probe)
    else:
        tally.exact(True)
    return tally.report("glue-declared")


def cmd_check(args, sc, tol, seed):
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    suites = []
    for nm in names:
        suites.append(run_suite(nm, sc.space, sc.k, sc.trunc, sc.e_dim,
                                seed, tol))
    if "glue" in sc.tasks and args.suite in ("glue", "all"):
        suites.append(_declared_glue(sc, tol))
    ok = all(s["pass"] for s in suites)
    report = {"command": "check", "schema": SCHEMA_VERSION,
              "suite": args.suite, "seed": seed, "tol": tol,
              "suites": suites, "pass": ok}
    return report, 0 if ok else 1


_COMMANDS = {"pair": cmd_pair, "rho": cmd_rho, "apply": cmd_apply,
             "jet": cmd_jet, "check": cmd_check, "pou": cmd_pou}


def _human_lines(report):
    cmd = report["command"]
    if cmd == "pair":
        yield "pair(%s, %s) = %s" % (report["density"], report["function"],
                                     _fmt_json_scalar(report["value"]))
        for l, v in sorted(report["per_L"].items()):
            yield "  L=(%s): %s" % (l, _fmt_json_scalar(v))
    elif cmd == "rho":
        yield "rho(%s):" % report["operator"]
        yield json.dumps(report["density"], sort_keys=True, indent=2)
    elif cmd == "apply":
        yield "apply(%s, %s):" % (report["operator"], report["function"])
        yield json.dumps(report["density"], sort_keys=True, indent=2)
        yield "integral = %s" % _fmt_json_scalar(report["integral"])
    elif cmd == "jet":
        yield "jets of %s at %s, order <= %d (space dimension %d)" % (
            report["function"], report["point"], report["order"],
            report["dimension"])
        for row in report["jets"]:
            yield "  I=%s J=%s: %s" % (tuple(row["I"]), tuple(row["J"]),
                                       _fmt_json_scalar(row["value"]))
        yield "in m_a^%d: %s" % (report["order"],
                                 "yes" if report["in_max_ideal_power"]
                                 else "no")
    elif cmd == "pou":
        yield "partition of unity over %s: %d functions, grid residual %g" % (
            report["cover"], len(report["functions"]),
            report["grid_residual"])
    elif cmd == "check":
        for s in report["suites"]:
            yield "%s: %d checks, %d failures, max residual %g" % (
                s["suite"], s["checks"], len(s["failures"]),
                s["max_residual"])
            for f in s["failures"][:5]:
                yield "  failure: %s" % json.dumps(f, sort_keys=True)
        yield "PASS" if report["pass"] else "FAIL"


def _fmt_json_scalar(v):
    if isinstance(v, list):
        return "%s + %s*i" % (v[0], v[1])
    return str(v)


def _build_parser():
    p = argparse.ArgumentParser(
        prog="formalcalc",
        description="Exact and certified-numeric calculus on formal "
                    "manifolds over a discrete or smooth base.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--scenario", required=True,
                        help="path to a scenario JSON file")
        sp.add_argument("--tol", type=float, default=None,
                        help="tolerance (comparison bound for check, "
                             "quadrature bound for value commands)")
        sp.add_argument("--seed", type=int, default=None,
                        help="64-bit seed for the suite generator "
                             "(stdlib Mersenne Twister)")
        sp.add_argument("--json", action="store_true", dest="as_json",
                        help="emit a canonical JSON report")
        sp.add_argument("--trunc", type=int, default=None,
                        help="override the scenario truncation order")

    sp = sub.add_parser("pair", help="pair a density with a function")
    sp.add_argument("density")
    sp.add_argument("function")
    common(sp)

    sp = sub.add_parser("rho", help="normal form of a density-valued operator")
    sp.add_argument("operator")
    common(sp)

    sp = sub.add_parser("apply", help="apply an operator to a function")
    sp.add_argument("operator")
    sp.add_argument("function")
    common(sp)

    sp = sub.add_parser("jet", help="tabulate jets of a function at a point")
    sp.add_argument("function")
    sp.add_argument("point")
    sp.add_argument("order", type=int)
    common(sp)

    sp = sub.add_parser("check", help="run a seeded property suite")
    sp.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    common(sp)

    sp = sub.add_parser("pou", help="build a partition of unity for a cover")
    sp.add_argument("cover")
    common(sp)
    return p


def _main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.seed is not None and not 0 <= args.seed < 2 ** 64:
        print("error: --seed must fit in 64 bits", file=sys.stderr)
        return 2
    if args.trunc is not None and args.trunc < 0:
        print("error: --trunc must be nonnegative", file=sys.stderr)
        return 2
    if args.tol is not None and not 0 <= args.tol < float("inf"):
        print("error: --tol must be finite and nonnegative", file=sys.stderr)
        return 2
    try:
        sc = Scenario.load(args.scenario, trunc_override=args.trunc)
        tol = args.tol if args.tol is not None else sc.tol
        seed = args.seed if args.seed is not None else sc.seed
        report, code = _COMMANDS[args.command](args, sc, tol, seed)
    except _CHECK_ERRORS as e:
        print("check failed: %s" % e, file=sys.stderr)
        return 1
    except QuadratureError as e:
        print("error: %s: integral out of reach" % e, file=sys.stderr)
        return 2
    except _INPUT_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except RecursionError:
        # the expression parser and the JSON decoder recurse once per
        # nesting level, so text nested past the recursion limit cannot
        # be read; every walk over a parsed expression is iterative
        print("error: scenario input nests too deeply (Python recursion "
              "limit %d)" % sys.getrecursionlimit(), file=sys.stderr)
        return 2
    if args.as_json:
        lines = [json.dumps(report, sort_keys=True, separators=(",", ":"))]
    else:
        lines = list(_human_lines(report))
    for line in lines:
        print(line)
    return code


def main(argv=None) -> int:
    try:
        return _main(argv)
    except Exception as e:
        # a fault of formalcalc itself, not of its input
        print("internal error: %r" % (e,), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
