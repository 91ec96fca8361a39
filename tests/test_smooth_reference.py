"""Smooth integrals against references made offline.

`tests/smooth_reference.json` (written by `tools/smooth_reference.py`)
holds every distinct non-polynomial integral of the benchmark's seed-1
smooth-operators task list: its printed integrand, its exact ranges,
and its `mpmath.quad` value at 30 digits, split at kernel zeros, with
an error estimate of at most 1e-20. Each quadrature value must lie
within the default absolute tolerance of its reference.
"""

import json
from fractions import Fraction
from pathlib import Path

from mpmath import mpc, mpf

from formalcalc.expr import parse_sexpr
from formalcalc.quadrature import DEFAULT_ABS_TOL, integrate_expr

TABLE = json.loads((Path(__file__).resolve().parent
                    / "smooth_reference.json").read_text(encoding="utf-8"))


def test_the_table_holds_the_task_lists_integrals():
    assert (TABLE["workload"], TABLE["seed"], TABLE["digits"]) \
        == ("smooth-operators", 1, 30)
    assert len(TABLE["integrals"]) == 71
    assert all(float(item["error"]) <= TABLE["max_error"] <= 1e-20
               for item in TABLE["integrals"])


def test_each_integral_is_within_tolerance_of_its_reference():
    far = []
    for i, item in enumerate(TABLE["integrals"]):
        e = parse_sexpr(item["integrand"])
        ranges = [(Fraction(lo), Fraction(hi)) for lo, hi in item["ranges"]]
        got = complex(integrate_expr(e, ranges))
        gap = abs(mpc(got) - mpc(mpf(item["re"]), mpf(item["im"])))
        if not gap <= DEFAULT_ABS_TOL:
            far.append((i, float(gap)))
    assert far == []
