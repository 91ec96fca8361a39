"""Integrals asked for together are made in one batch, each distinct one
once, and nothing is kept from one batch to the next."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from formalcalc import quadrature, sheaf, suites
from formalcalc.cli import main
from formalcalc.errors import DomainMismatchError, QuadratureError
from formalcalc.expr import X, bump, parse_sexpr, pow_
from formalcalc.quadrature import integrate_expr, integrate_exprs
from formalcalc.scalars import QC
from formalcalc.spaces import SmoothLine

SL = SmoothLine()
SMOOTH = Path(__file__).resolve().parent.parent / "scenarios" \
    / "smooth_demo.json"


@pytest.fixture
def quads(monkeypatch):
    """The size of each adaptive walk made: one entry per walk, the
    number of its members (exact integrals make none)."""
    made = []
    raw = quadrature._adaptive

    def counted(program, n, *args):
        made.append(n)
        return raw(program, n, *args)
    monkeypatch.setattr(quadrature, "_adaptive", counted)
    return made


def test_no_memo_outlives_its_check(quads):
    e, _, _ = bump(-2, -1, 1, 2)
    bounds = [(Fraction(-2), Fraction(2))]
    assert integrate_expr(e, bounds) == integrate_expr(e, bounds)
    assert quads == [1, 1]
    m = SL.whole()
    a, b = (suites.rand_distribution(random.Random(0), SL, m, 1, 0, e_dim)
            for e_dim in (1, 2))
    with pytest.raises(DomainMismatchError):
        sheaf.functional_residual(a, b, sheaf.dual_function_family(SL, m, 1, 0))
    assert quads == [1, 1]


def test_bounds_are_told_apart_by_type():
    # Fraction(0) == 0.0 and they hash alike, but a polynomial integral
    # needs exact bounds
    got = integrate_exprs([(X, [(Fraction(0), Fraction(1))]),
                           (X, [(0.0, 1.0)])])
    assert next(got) == QC(Fraction(1, 2))
    with pytest.raises(QuadratureError):
        next(got)


def test_a_failed_quadrature_is_not_stored(quads):
    e, _, _ = bump(-2, -1, 1, 2)
    for _ in range(2):
        with pytest.raises(QuadratureError):
            integrate_expr(e, [(Fraction(-2), Fraction(2))], budget=20)
    assert quads == [1, 1]


def test_a_degree_cap_refusal_raises_in_its_turn():
    e, _, _ = bump(-2, -1, 1, 2)
    ranges = [(Fraction(-2), Fraction(2))]
    got = integrate_exprs([(e, ranges), (pow_(X, 2000), ranges)])
    assert type(next(got)) is complex
    with pytest.raises(ValueError, match="polynomial degree exceeds 1024"):
        next(got)


def test_a_constant_past_the_float_range_raises_in_its_turn():
    # the group's program cannot be built: its other member is made
    # again as a group of one
    e, _, _ = bump(-2, -1, 1, 2)
    ranges = [(Fraction(-2), Fraction(2))]
    huge = parse_sexpr("(* %d (s (+ x 3)))" % 10 ** 400)
    got = integrate_exprs([(e, ranges), (huge, ranges)])
    assert next(got) == integrate_expr(e, ranges)
    with pytest.raises(OverflowError):
        next(got)


def outcome(read):
    """A read's value by type and exact bits, or its error by type and
    message."""
    try:
        v = read()
    except (ArithmeticError, ValueError, QuadratureError) as e:
        return type(e), str(e)
    return type(v), v if isinstance(v, QC) else (v.real.hex(), v.imag.hex())


KERN = "(* (s (+ x 2)) (s (+ 2 (* -1 x))))"
EXACT = [(Fraction(-2), Fraction(2))]


@pytest.mark.parametrize("text,ranges,budget", [
    (KERN, EXACT, 10 ** 6),
    (KERN, EXACT, 20),
    ("(+ (pow x 3) 1/2)", [(Fraction(-1), Fraction(0)),
                           (Fraction(0), Fraction(2))], 10 ** 6),
    ("(+ (pow x 3) 1/2)", [(0.0, 1.0)], 10 ** 6),
    ("(pow x 2000)", EXACT, 10 ** 6),
    # an overflow in the program, and a constant past the float range
    ("(* (s x) (pow x 200))", [(1.0, 1e10)], 10 ** 6),
    ("(* %d (s x))" % 10 ** 400, [(0.0, 1.0)], 10 ** 6),
    ("(s x)", [(float("-inf"), 0.0)], 10 ** 6),
])
def test_integrate_expr_is_a_batch_of_one(text, ranges, budget):
    e = parse_sexpr(text)
    one = outcome(lambda: integrate_expr(e, ranges, 1e-10, budget))
    assert one == outcome(lambda: next(integrate_exprs([(e, ranges)], 1e-10,
                                                       budget)))


def pair_report(capsys, path):
    assert main(["pair", "eta", "u", "--scenario", str(path), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_pair_makes_each_integral_once(capsys, quads):
    # the total and its one per-L part read the same integral
    pair_report(capsys, SMOOTH)
    assert quads == [1]


@pytest.mark.parametrize("u_coeffs,distinct", [
    ({"0": "x", "1": "x"}, 1),
    ({"0": "(+ 1 (pow x 2))", "1": "x", "2": "1/2"}, 2),
])
def test_pair_makes_as_many_integrals_as_are_distinct(capsys, quads, tmp_path,
                                                      u_coeffs, distinct):
    # eta carries the demo's one term at L = 0 and at L = 1, so the total
    # reads two integrals and the parts one each; where u_0 = u_1 they
    # are one integral
    data = json.loads(SMOOTH.read_text())
    term = data["densities"]["eta"]["coeffs"]["1"]
    data["densities"]["eta"]["coeffs"] = {"0": term, "1": term}
    data["functions"]["u"]["coeffs"] = u_coeffs
    path = tmp_path / "two_keys.json"
    path.write_text(json.dumps(data))
    report = pair_report(capsys, path)
    assert sum(quads) == distinct
    assert sorted(report["per_L"]) == ["0", "1"]
    if distinct == 1:
        assert report["per_L"]["0"] == report["per_L"]["1"]
