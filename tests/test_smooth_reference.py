"""Smooth integrals against references made offline.

`tests/smooth_reference.json` and `tests/smooth_sheaf_reference.json`
(written by `tools/smooth_reference.py`) hold every distinct
non-polynomial integral of the benchmark's seed-1 smooth-operators and
smooth-sheaf task lists: its printed integrand, its exact ranges, and
its `mpmath.quad` value at 30 digits, split at kernel zeros, with an
error estimate of at most 1e-20. Each quadrature value must lie within
the default absolute tolerance of its reference, and the tool must
still collect exactly the tables' integrals.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

from mpmath import mp, mpc, mpf

import formalcalc
import formalcalc.cli  # noqa: F401  (binds formalcalc.suites, as the benchmark does)
from formalcalc.expr import parse_sexpr, to_sexpr
from formalcalc.quadrature import DEFAULT_ABS_TOL, integrate_expr

HERE = Path(__file__).resolve().parent


def table(name):
    return json.loads((HERE / name).read_text(encoding="utf-8"))


def holds(t, workload, count):
    assert (t["workload"], t["seed"], t["digits"]) == (workload, 1, 30)
    assert len(t["integrals"]) == count
    assert all(float(item["error"]) <= t["max_error"] <= 1e-20
               for item in t["integrals"])


def far_from_reference(t):
    """(index, gap) of each integral further than the default absolute
    tolerance from its reference."""
    far = []
    for i, item in enumerate(t["integrals"]):
        e = parse_sexpr(item["integrand"])
        ranges = [(Fraction(lo), Fraction(hi)) for lo, hi in item["ranges"]]
        got = complex(integrate_expr(e, ranges))
        with mp.workdps(30):
            gap = abs(mpc(got) - mpc(mpf(item["re"]), mpf(item["im"])))
        if not gap <= DEFAULT_ABS_TOL:
            far.append((i, float(gap)))
    return far


OPERATORS = table("smooth_reference.json")
SHEAF = table("smooth_sheaf_reference.json")


def test_the_table_holds_the_task_lists_integrals():
    holds(OPERATORS, "smooth-operators", 71)


def test_each_integral_is_within_tolerance_of_its_reference():
    assert far_from_reference(OPERATORS) == []


def test_the_sheaf_table_holds_its_task_lists_integrals():
    # its probes carry real powers, (pow x 2)
    holds(SHEAF, "smooth-sheaf", 40)
    assert sum("(pow " in item["integrand"] for item in SHEAF["integrals"]) \
        == 17


def test_each_sheaf_integral_is_within_tolerance_of_its_reference():
    assert far_from_reference(SHEAF) == []


def test_the_tool_collects_the_tables_integrals():
    # its quadrature hook reads _make_groups' pending map, so a change of
    # that map's shape shows here, not only when the tables are rewritten
    spec = importlib.util.spec_from_file_location(
        "smooth_reference", HERE.parent / "tools" / "smooth_reference.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for t in (OPERATORS, SHEAF):
        got = [{"integrand": to_sexpr(e),
                "ranges": [[str(Fraction(lo)), str(Fraction(hi))]
                           for lo, hi in ranges]}
               for e, ranges in tool.collect(formalcalc, t["workload"], 1)]
        assert got == [{k: item[k] for k in ("integrand", "ranges")}
                       for item in t["integrals"]]
