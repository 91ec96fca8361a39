"""Definite integration: exact polynomial path and adaptive quadrature."""

import math
from fractions import Fraction

import pytest
from mpmath import mp

from formalcalc.errors import QuadratureError
from formalcalc.expr import (
    ONE,
    X,
    Const,
    add,
    bump,
    diff,
    ev,
    kern,
    mul,
    parse_sexpr,
    pow_,
)
from formalcalc.quadrature import (
    DEFAULT_ABS_TOL,
    _adaptive,
    integrate_callable,
    integrate_expr,
)
from formalcalc.scalars import QC


def test_polynomial_integral_is_exact():
    e = pow_(X, 2)
    got = integrate_expr(e, [(Fraction(0), Fraction(1))])
    assert isinstance(got, QC)
    assert got == QC(Fraction(1, 3))
    # split ranges add up exactly
    two = integrate_expr(e, [(Fraction(0), Fraction(1, 3)),
                             (Fraction(1, 3), Fraction(1))])
    assert two == got


def test_polynomial_integral_skips_degenerate_ranges():
    e = add(X, ONE)
    assert integrate_expr(e, [(Fraction(2), Fraction(2))]) == QC(0)
    assert integrate_expr(e, [(Fraction(3), Fraction(1))]) == QC(0)
    assert integrate_expr(Const(0), [(0, 1)]) == QC(0)


def test_polynomial_integral_rejects_unbounded_range():
    with pytest.raises(QuadratureError):
        integrate_expr(X, [(float("-inf"), Fraction(0))])


def test_adaptive_quadrature_known_value():
    got = integrate_callable(lambda x: complex(math.cos(x)), [(0.0, math.pi / 2)])
    assert abs(got - 1.0) < 1e-9


def test_adaptive_quadrature_empty_ranges():
    assert integrate_callable(lambda x: 1j, []) == 0j
    assert integrate_callable(lambda x: 1j, [(2.0, 2.0), (3.0, 1.0)]) == 0j


def test_the_default_budget_is_a_million_evaluations():
    # sin(10^9 x) turns about 1.6e8 times on [0, 1], so no panel is
    # accepted and the default budget is spent 15 evaluations a panel
    calls = [0]

    def f(x):
        calls[0] += 1
        return complex(math.sin(1e9 * x))
    with pytest.raises(QuadratureError, match=r"budget 1000000 exhausted"):
        integrate_callable(f, [(0.0, 1.0)])
    assert calls[0] == 999_990


def fixed_panel(k, g):
    """A panel program whose one root's Kronrod and Gauss sums are k and
    g on every panel, and the list of its calls' (mid, half)."""
    calls = []

    def panel(mid, half):
        calls.append((mid, half))
        return (k,), (g,)
    return panel, calls


@pytest.mark.parametrize("k, g, ranges, abs_tol, value, panels", [
    # err == share: 0.5 * |1 - 0| against 0.5 * 1 / 1
    (1.0, 0.0, [(0.0, 1.0)], 0.5, 0.5, 1),
    # err == 1e-16 * max(1, |val|): val and err are both 1e-16
    (2e-16, 0.0, [(0.0, 1.0)], 0.0, 1e-16, 1),
    # a panel exactly 1e-14 wide is split, and its 5e-15 halves accepted
    (1.0, 0.0, [(0.0, 1e-14)], 0.0, 5e-15, 3),
], ids=["share", "noise floor", "narrow panel"])
def test_the_accept_rules_hold_at_their_boundaries(k, g, ranges, abs_tol,
                                                   value, panels):
    # a strict accept test splits forever, and a width test that takes
    # 1e-14 itself accepts the first panel
    panel, calls = fixed_panel(k, g)
    assert _adaptive(panel, 1, ranges, abs_tol, 15 * 10) == [complex(value)]
    assert len(calls) == panels


def test_adaptive_quadrature_rejects_unbounded_range():
    with pytest.raises(QuadratureError):
        integrate_callable(lambda x: 0j, [(0.0, float("inf"))])


def mp_oracle(e, knots):
    """Independent tanh-sinh integration at 30 digits with split points.

    ev reads a node at its own 30 digits, which may round a node next to
    a knot onto it, where a kernel reads an exact zero: a QC, given to
    mpmath as a complex."""
    def f(t):
        v = ev(e, t)
        return mp.mpc(complex(v)) if isinstance(v, QC) else v
    with mp.workdps(30):
        return complex(mp.quad(f, knots))


def test_bump_integral_matches_independent_integrator():
    e, _, _ = bump(-2, -1, 1, 2)
    got = integrate_expr(e, [(Fraction(-2), Fraction(2))])
    want = mp_oracle(e, [-2, -1, 1, 2])
    assert abs(got - want) < 1e-9
    # plateau contributes its exact length
    assert 2.0 < got.real < 4.0


def test_bump_derivative_integrates_to_zero():
    e, _, _ = bump(-2, -1, 1, 2)
    got = integrate_expr(diff(e), [(Fraction(-2), Fraction(2))])
    assert abs(got) < 1e-9


def test_weighted_kernel_integral_matches_independent_integrator():
    e = mul(kern(X), pow_(X, 2))
    got = integrate_expr(e, [(Fraction(0), Fraction(3))])
    want = mp_oracle(e, [0, 3])
    assert abs(got - want) < 1e-8


def test_range_additivity_for_smooth_integrand():
    e, _, _ = bump(-1, Fraction(-1, 2), Fraction(1, 2), 1)
    whole = integrate_expr(e, [(Fraction(-1), Fraction(1))])
    split = integrate_expr(e, [(Fraction(-1), Fraction(0)),
                               (Fraction(0), Fraction(1))])
    assert abs(whole - split) < 1e-10


def test_budget_exhaustion_raises():
    e, _, _ = bump(-2, -1, 1, 2)
    with pytest.raises(QuadratureError):
        integrate_expr(e, [(Fraction(-2), Fraction(2))], budget=20)


def test_tolerance_is_respected():
    e, _, _ = bump(-2, -1, 1, 2)
    tight = integrate_expr(e, [(Fraction(-2), Fraction(2))], abs_tol=1e-12)
    loose = integrate_expr(e, [(Fraction(-2), Fraction(2))], abs_tol=1e-6)
    want = mp_oracle(e, [-2, -1, 1, 2])
    assert abs(tight - want) < 1e-10
    assert abs(loose - want) < 1e-5
    assert DEFAULT_ABS_TOL == 1e-10


def test_flat_scenario_sums_integrate_without_recursion():
    # a flat (+ ...) parses into 1499 nested Add nodes, deeper than the
    # recursion limit; the polynomial test and the compiled program walk
    # it iteratively
    xs = " ".join(["x"] * 1500)
    flat = parse_sexpr("(+ %s)" % xs)
    assert integrate_expr(flat, [(Fraction(0), Fraction(1))]) == QC(750)
    got = integrate_expr(parse_sexpr("(* (s x) (+ %s))" % xs),
                         [(Fraction(0), Fraction(1))])
    assert isinstance(got, complex)
    assert math.isfinite(got.real) and math.isfinite(got.imag)
    want = 1500 * integrate_expr(mul(kern(X), X), [(Fraction(0), Fraction(1))])
    assert abs(got - want) < 1e-9 * abs(want)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan")),
                                 complex(float("-inf"), 1)])
def test_non_finite_integrand_fails_at_its_first_panel(bad):
    calls = []

    def f(x):
        calls.append(x)
        return bad if x > 0.75 else complex(x)

    # the first panel popped is [0.5, 1], which reaches the bad values:
    # it is refused at once, not bisected until the budget is gone
    with pytest.raises(QuadratureError,
                       match=r"not finite on segment \[0\.5, 1\]"):
        integrate_callable(f, [(0.0, 0.5), (0.5, 1.0)])
    assert len(calls) == 15

    calls.clear()
    with pytest.raises(QuadratureError, match="not finite"):
        integrate_callable(lambda x: calls.append(x) or bad, [(0.0, 1.0)])
    assert len(calls) == 15
