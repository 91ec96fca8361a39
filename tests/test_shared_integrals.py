"""A check integrates each distinct integral once, and only within itself."""

import random
from fractions import Fraction

import pytest

from formalcalc import quadrature, sheaf, suites
from formalcalc.errors import DomainMismatchError, QuadratureError
from formalcalc.expr import X, bump
from formalcalc.quadrature import integrate_expr, shares_integrals
from formalcalc.scalars import QC
from formalcalc.spaces import SmoothLine

SL = SmoothLine()
TOL = 1e-8


@pytest.fixture
def quads(monkeypatch):
    """Counts the adaptive quadratures made (exact integrals make none)
    and whether a memo was active for each."""
    made = []
    raw = quadrature._adaptive

    def counted(program, n, *args):
        made.extend([quadrature._shared.get() is not None] * n)
        return raw(program, n, *args)
    monkeypatch.setattr(quadrature, "_adaptive", counted)
    return made


def test_a_smooth_flabby_round_integrates_each_integral_once(quads):
    # a round is 216 integrals, 108 of them distinct; back-to-back
    # rounds have identical inputs and still share nothing
    for _ in range(2):
        quads.clear()
        assert suites.suite_flabby(SL, 1, 1, TOL)["pass"]
        assert len(quads) == 108
        assert all(quads)


def test_no_memo_outlives_its_check(quads):
    e, _, _ = bump(-2, -1, 1, 2)
    bounds = [(Fraction(-2), Fraction(2))]
    assert quadrature._shared.get() is None
    assert integrate_expr(e, bounds) == integrate_expr(e, bounds)
    assert quads == [False, False]
    assert suites.suite_flabby(SL, 1, 1, TOL)["pass"]
    assert quadrature._shared.get() is None
    m = SL.whole()
    a, b = (suites.rand_distribution(random.Random(0), SL, m, 1, 0, e_dim)
            for e_dim in (1, 2))
    with pytest.raises(DomainMismatchError):
        sheaf.functional_residual(a, b, sheaf.dual_function_family(SL, m, 1, 0))
    assert quadrature._shared.get() is None


def test_a_nested_check_joins_the_outer_memo(quads):
    e, _, _ = bump(-2, -1, 1, 2)
    bounds = [(Fraction(-2), Fraction(2))]

    @shares_integrals
    def inner():
        return integrate_expr(e, bounds)

    @shares_integrals
    def outer():
        return inner(), inner(), integrate_expr(e, bounds)
    first, second, third = outer()
    assert first is second is third
    assert len(quads) == 1


def test_bounds_are_told_apart_by_type():
    # Fraction(0) == 0.0 and they hash alike, but a polynomial integral
    # needs exact bounds
    @shares_integrals
    def check():
        assert integrate_expr(X, [(Fraction(0), Fraction(1))]) == QC(Fraction(1, 2))
        with pytest.raises(QuadratureError):
            integrate_expr(X, [(0.0, 1.0)])
    check()


def test_a_failed_quadrature_is_not_stored(quads):
    e, _, _ = bump(-2, -1, 1, 2)

    @shares_integrals
    def check():
        for _ in range(2):
            with pytest.raises(QuadratureError):
                integrate_expr(e, [(Fraction(-2), Fraction(2))], budget=20)
    check()
    assert len(quads) == 2


def unshared(monkeypatch):
    """Remove the sharing from every check, where the suites call it."""
    for name in ("functional_residual", "functional_zero_residual",
                 "flabby_check"):
        raw = getattr(sheaf, name).__wrapped__
        for mod in (sheaf, suites):
            monkeypatch.setattr(mod, name, raw)


def test_sharing_leaves_a_glue_round_bit_identical(quads, monkeypatch):
    shared = suites.suite_glue(SL, 1, 1, 3, TOL, rounds=1)
    quads.clear()
    unshared(monkeypatch)
    alone = suites.suite_glue(SL, 1, 1, 3, TOL, rounds=1)
    assert not any(quads)
    assert alone == shared
    assert alone["max_residual"].hex() == shared["max_residual"].hex()


def test_sharing_halves_a_flabby_round_bit_identically(quads, monkeypatch):
    shared = suites.suite_flabby(SL, 1, 1, TOL)
    assert len(quads) == 108
    quads.clear()
    unshared(monkeypatch)
    alone = suites.suite_flabby(SL, 1, 1, TOL)
    assert not any(quads)
    # the round's one batch makes each of its integrals once, memo or not
    assert len(quads) == 108
    assert alone == shared
    assert alone["max_residual"].hex() == shared["max_residual"].hex()
