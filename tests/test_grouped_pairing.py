"""A pairing on the line makes its terms' integrals as one batch: one
program per range, every term on its own adaptive mesh, bit for bit the
sum of the terms' integrals made alone, inside a check or outside."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from formalcalc import quadrature
from formalcalc.basedensity import BaseDensity
from formalcalc.cli import main
from formalcalc.densities import FormalDensity
from formalcalc.diffops import DensityDiffOp
from formalcalc.errors import QuadratureError
from formalcalc.expr import (Add, Const, Div, X, add, mul, pow_,
                             window_bump)
from formalcalc.functions import FormalFunction, SupportedFormalFunction
from formalcalc.multiindex import mi, mi_factorial
from formalcalc.quadrature import DEFAULT_ABS_TOL
from formalcalc.scalars import QC, QC_ZERO
from formalcalc.spaces import OpenSet, SmoothLine

SL = SmoothLine()
DOM = OpenSet(SL, [(Fraction(-4), Fraction(4))])
SMOOTH = Path(__file__).resolve().parent.parent / "scenarios" \
    / "smooth_demo.json"


def quadratic(rng):
    c0, c1, c2 = (Const(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                 rng.randint(1, 3))) for _ in range(3))
    return add(add(c0, mul(c1, X)), mul(c2, pow_(X, 2)))


def window(slot):
    """A bump of width 5/2 starting at -3 + slot/4, and its support."""
    lo = Fraction(-3) + Fraction(slot, 4)
    expr, supp, _ = window_bump(lo, lo + Fraction(5, 2))
    return expr, supp


def instance(rng, kind, xorder):
    """The pairings of one identity of the operator benchmark's shape:
    rho(D) with u, or eta . f with u and eta with f u."""
    slot = rng.randint(1, 7)
    bt, st = window(slot)
    bu, su = window(slot + rng.randint(-1, 1))
    tau0 = BaseDensity.smooth(SL, mul(bt, quadratic(rng)), st)
    tau1 = BaseDensity.smooth(SL, mul(bt, quadratic(rng)), st)
    u = SupportedFormalFunction(
        SL, DOM, 1, 1, {mi((0,)): mul(bu, quadratic(rng)),
                        mi((1,)): mul(bu, quadratic(rng))}, support=su)
    n = mi((xorder,))
    if kind == "rho":
        op = DensityDiffOp(SL, DOM, 1, {(n, mi((0,))): tau0,
                                        (n, mi((1,))): tau1})
        return [(op.rho(), u)]
    eta = FormalDensity(SL, DOM, 1, {mi((0,)): ((n, tau0),),
                                     mi((1,)): ((n, tau1),)})
    f = FormalFunction(SL, DOM, 1, 1, {mi((0,)): quadratic(rng),
                                       mi((1,)): quadratic(rng)})
    return [(eta.module_action(f), u), (eta, f.mul(u))]


def integrands(eta, u):
    """(L!, tau * d^I u_L) per term of the pairing, in its order."""
    return [(mi_factorial(l), tau.mul_coeff(SL.diff(u.coeffs[l], i[0])))
            for l in eta.keys_sorted() if l in u.coeffs
            for i, tau in eta.coeffs[l]]


def per_term(eta, u, abs_tol=DEFAULT_ABS_TOL):
    """The pairing as the sum of L! times each term's integral, each
    integral made alone."""
    acc = QC_ZERO
    for lfact, d in integrands(eta, u):
        acc = acc + lfact * d.integrate(eta.domain, abs_tol)
    return acc


def bits(v):
    return type(v), v if isinstance(v, QC) else (v.real.hex(), v.imag.hex())


CASES = [(kind, xorder, seed) for kind, top in (("rho", 2), ("module", 1))
         for xorder in range(top + 1) for seed in (0, 1, 5)]


@pytest.mark.parametrize("kind,xorder,seed", CASES)
def test_grouped_pairing_is_bit_identical_to_per_term(kind, xorder, seed):
    for eta, u in instance(random.Random(seed), kind, xorder):
        want = per_term(eta, u)
        assert not isinstance(want, QC)
        assert bits(eta.pair(u)) == bits(want)


@pytest.mark.parametrize("kind,xorder,seed", CASES[::3])
def test_each_term_reads_its_own_integral(kind, xorder, seed):
    for eta, u in instance(random.Random(seed), kind, xorder):
        dens = [d for _, d in integrands(eta, u)]
        batch = SL.integrate_all([(d.coeff, d.bound & DOM.region)
                                  for d in dens])
        assert [bits(v) for v in batch] == [bits(d.integrate(DOM))
                                            for d in dens]


@pytest.fixture
def counted(monkeypatch):
    """Counts programs compiled and adaptive quadratures made."""
    made = {"programs": 0, "quadratures": 0}
    compile_, integrate = quadrature._compile, quadrature._adaptive

    def program(*args, **kw):
        made["programs"] += 1
        return compile_(*args, **kw)

    def quadrature_(program, n, *args):
        made["quadratures"] += n
        return integrate(program, n, *args)
    monkeypatch.setattr(quadrature, "_compile", program)
    monkeypatch.setattr(quadrature, "_adaptive", quadrature_)
    return made


def test_one_pairing_over_one_range_compiles_one_program(counted):
    eta, u = instance(random.Random(0), "module", 1)[0]
    eta.pair(u)
    assert counted == {"programs": 1, "quadratures": 4}


def test_a_failing_union_program_leaves_its_terms_to_be_made_alone(
        monkeypatch):
    eta, u = instance(random.Random(1), "rho", 1)[0]
    want = per_term(eta, u)
    raw = quadrature._compile
    raised = []

    def breaking(nodes, roots=None, rule=None):
        f = raw(nodes, roots, rule)
        if len(roots) == 1:
            return f  # a lone integral's

        def program(mid, half):
            # at the first panel the union program meets, which every
            # term's mesh starts with
            if not raised or (mid, half) == raised[0]:
                raised.append((mid, half))
                raise ZeroDivisionError("float division by zero")
            return f(mid, half)
        return program
    monkeypatch.setattr(quadrature, "_compile", breaking)
    assert bits(eta.pair(u)) == bits(want)
    assert len(raised) == 1


def test_a_group_of_one_that_raises_is_walked_once(monkeypatch):
    # only a larger group's ArithmeticError may be another member's, so
    # only a larger group's members are walked again alone; here the
    # first panel's midpoint 1/2 divides by zero
    raw = quadrature._walk
    walks = []

    def walk(members, abs_tol, budget):
        walks.append(len(members))
        return raw(members, abs_tol, budget)
    monkeypatch.setattr(quadrature, "_walk", walk)
    e = Div(Const(1), Add(X, Const(Fraction(-1, 2))))
    with pytest.raises(ZeroDivisionError):
        quadrature.integrate_expr(e, [(Fraction(0), Fraction(1))])
    assert walks == [1]


def test_an_exhausted_budget_raises_what_the_per_term_path_raises(
        monkeypatch):
    raw = quadrature._adaptive
    monkeypatch.setattr(quadrature, "_adaptive",
                        lambda program, n, ranges, abs_tol, budget:
                        raw(program, n, ranges, abs_tol, 150))
    eta, u = instance(random.Random(0), "rho", 2)[0]
    with pytest.raises(QuadratureError) as alone:
        per_term(eta, u)
    with pytest.raises(QuadratureError) as grouped:
        eta.pair(u)
    assert str(grouped.value) == str(alone.value)


def test_polynomial_terms_pair_exactly(counted):
    w = window(2)[1]
    eta = FormalDensity(SL, DOM, 1, {
        mi((0,)): ((mi((0,)), BaseDensity.smooth(SL, X, w)),
                   (mi((1,)), BaseDensity.smooth(SL, pow_(X, 2), w))),
        mi((1,)): ((mi((0,)), BaseDensity.smooth(SL, Const(3), w)),)})
    u = FormalFunction(SL, DOM, 1, 1, {mi((0,)): pow_(X, 3),
                                       mi((1,)): add(X, Const(1))})
    value = eta.pair(u)
    assert isinstance(value, QC) and value == per_term(eta, u) != 0
    assert counted["quadratures"] == 0


def test_cli_pair_makes_each_integral_once(counted, capsys):
    # the per-L parts read the total's integrals
    assert main(["pair", "eta", "u", "--scenario", str(SMOOTH)]) == 0
    assert counted["quadratures"] == 1
    assert "pair(eta, u)" in capsys.readouterr().out
