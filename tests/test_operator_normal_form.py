"""An operator is held as its normal form rho(D), so its composition
with a function, linear structure and extension by zero are the
density's, and an EndoDiffOp acts through the density operator of its
coefficients' y-constant parts.

Line instances are polynomial with box witnesses, so every check is
exact: two line densities agree when their bounds are equal and their
coefficients take the same QC at more rational points than either has
degree."""

import random
from fractions import Fraction

import pytest

from formalcalc import (BaseDensity, Const, DensityDiffOp, FormalFunction,
                        OpenSet, RSet, SmoothLine, X, add, mi, mul, pow_)
from formalcalc.diffops import EndoDiffOp, seminorm
from formalcalc.expr import bump
from formalcalc.functions import SupportedFormalFunction
from formalcalc.multiindex import degree, enumerate_upto, mi_factorial
from formalcalc.spaces import Discrete

SL = SmoothLine()
DOM = OpenSet(SL, [(-4, 4)])
BIG = OpenSet(SL, [(-6, 6)])
TRUNC = 2
# no coefficient below has degree 12 or more: a cubic density times
# derivatives of a product of two cubics
POINTS = [Fraction(n, 3) for n in range(-12, 13)]
CASES = [(xorder, seed) for xorder in range(3) for seed in range(4)]

DS = Discrete(["a", "b", "c", "d"])
LABELS = sorted(DS.whole().region)


def poly(rng):
    """A cubic in x with small nonzero rational coefficients."""
    c = [Const(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
         for _ in range(4)]
    return add(add(c[0], mul(c[1], X)),
               add(mul(c[2], pow_(X, 2)), mul(c[3], pow_(X, 3))))


def window(rng):
    """A rational box witness inside DOM."""
    lo = Fraction(rng.randint(-12, 4), 4)
    return RSet.closed_pairs([(lo, lo + Fraction(rng.randint(1, 12), 4))])


def stacks(xorder):
    """The derivative stacks of a term list: x-orders xorder, xorder - 1."""
    return sorted({xorder, max(xorder - 1, 0)})


def line_op(rng, xorder):
    """Up to two derivative stacks per y*-index 0..TRUNC, one witness."""
    w = window(rng)
    terms = {(mi((n,)), mi((j,))): BaseDensity.smooth(SL, poly(rng), w)
             for j in range(TRUNC + 1) for n in stacks(xorder)
             if rng.random() < 0.8}
    return DensityDiffOp(SL, DOM, 1, terms)


def line_function(rng, domain=DOM):
    return FormalFunction(SL, domain, 1, TRUNC,
                          {mi((j,)): poly(rng) for j in range(TRUNC + 1)})


def values(c):
    return [SL.ev(c, t) for t in POINTS]


def agree(a, b):
    assert a.bound == b.bound
    assert values(a.coeff) == values(b.coeff)


@pytest.mark.parametrize("xorder,seed", CASES)
def test_composition_applies_as_the_product_does(xorder, seed):
    rng = random.Random(seed)
    op = line_op(rng, xorder)
    f, u = line_function(rng), line_function(rng)
    agree(op.precompose_function(f).apply(u), op.apply(f.mul(u)))


@pytest.mark.parametrize("xorder,seed", CASES)
def test_composition_regroups_to_the_module_action(xorder, seed):
    rng = random.Random(seed)
    op = line_op(rng, xorder)
    f = line_function(rng)
    assert op.precompose_function(f).rho() == op.rho().module_action(f)


@pytest.mark.parametrize("xorder,seed", CASES)
def test_add_scale_and_ext_commute_with_rho(xorder, seed):
    rng = random.Random(seed)
    a, b = line_op(rng, xorder), line_op(rng, xorder)
    c = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
    assert a.add(b).rho() == a.rho().add(b.rho())
    assert a.scale(c).rho() == a.rho().scale(c)
    assert a.ext(BIG).rho() == a.rho().ext(BIG)
    assert a.ext(BIG).domain == BIG
    u = line_function(rng)
    agree(a.add(b).apply(u), a.apply(u).add(b.apply(u)))
    agree(a.scale(c).apply(u), a.apply(u).scale(c))
    v = line_function(rng, BIG)
    agree(a.ext(BIG).apply(v), a.apply(v.restrict(DOM)))


def reduced_reference(space, terms, u):
    """sum over the terms of (f_{I,L})_0 * L! * d_x^I u_L."""
    total = space.zero()
    for (i, l), f in terms.items():
        f0 = f.coeff((0,) * u.k)
        du = space.diff(u.coeff(l), degree(i))
        total = space.add(total, space.mul(f0, space.scale(du, mi_factorial(l))))
    return total


def rand_weights(rng):
    return {p: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for p in LABELS if rng.random() < 0.6}


def test_reduced_action_is_the_reference_sum_on_discrete_instances():
    rng = random.Random(211)
    for _ in range(150):
        k, star = rng.randint(1, 2), rng.randint(0, 2)
        trunc = rng.randint(star, star + 1)
        terms = {(mi(()), l): SupportedFormalFunction(
                     DS, DS.whole(), k, trunc,
                     {j: rand_weights(rng) for j in enumerate_upto(k, trunc)
                      if rng.random() < 0.6})
                 for l in enumerate_upto(k, star) if rng.random() < 0.7}
        x = EndoDiffOp(DS, DS.whole(), k, terms)
        u = FormalFunction(DS, DS.whole(), k, trunc,
                           {j: rand_weights(rng)
                            for j in enumerate_upto(k, trunc)})
        want = reduced_reference(DS, terms, u)
        assert x.apply_reduced(u) == want
        assert seminorm(u, x) == max(map(abs, want.values()), default=0.0)


@pytest.mark.parametrize("xorder,seed", CASES)
def test_reduced_action_is_the_reference_sum_on_line_instances(xorder, seed):
    rng = random.Random(seed)
    terms = {(mi((n,)), mi((j,))): SupportedFormalFunction(
                 SL, DOM, 1, TRUNC,
                 {mi((m,)): poly(rng) for m in range(TRUNC + 1)},
                 support=window(rng))
             for j in range(TRUNC + 1) for n in stacks(xorder)}
    x = EndoDiffOp(SL, DOM, 1, terms)
    u = line_function(rng)
    assert values(x.apply_reduced(u)) == values(reduced_reference(SL, terms, u))


def test_the_seminorm_samples_only_inside_the_domain():
    # the witness [-8, 8] reaches past the domain (-5, 5), where neither
    # u nor X(u) is defined: the grid spans the domain, and |X(u)| = |x|
    # on it has its sup 5 at the ends
    dom = OpenSet(SL, [(-5, 5)])
    e, supp, _ = bump(-8, -7, 7, 8)
    f = SupportedFormalFunction(SL, dom, 1, 1, {(0,): e}, support=supp)
    x = EndoDiffOp(SL, dom, 1, {(mi((0,)), mi((0,))): f})
    assert x.support() == dom.region
    assert seminorm(FormalFunction(SL, dom, 1, 1, {(0,): X}), x) == 5.0
