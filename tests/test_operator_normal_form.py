"""An operator is its normal form rho(D): a DensityDiffOp is a
FormalDensity, so its composition with a function, linear structure,
extension by zero, cutoff restriction and pairing are the density's and
return the caller's class, and an EndoDiffOp acts through the density
operator of its coefficients' y-constant parts.

Line instances are polynomial with box witnesses, so every check is
exact: two line densities agree when their bounds are equal and their
coefficients take the same QC at more rational points than either has
degree."""

import random
from fractions import Fraction

import pytest

from formalcalc import (BaseDensity, Const, DensityDiffOp, FormalDensity,
                        FormalFunction, OpenSet, RSet, SmoothLine, X, add, mi,
                        mul, pow_)
from formalcalc.diffops import EndoDiffOp, seminorm
from formalcalc.errors import SupportError
from formalcalc.expr import bump
from formalcalc.functions import SupportedFormalFunction, cutoff
from formalcalc.multiindex import degree, enumerate_upto, mi_factorial
from formalcalc.scalars import QC
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


# discrete instances on V, whose cutoff restriction is taken to W along
# a cutoff that is one on W
V = OpenSet(DS, ["a", "b", "c"])
W = OpenSet(DS, ["a", "b"])
CUT = cutoff(DS, V, 1, 3, ["a", "b"], ["a", "b"])


def weights_on(rng, labels):
    return {p: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for p in labels if rng.random() < 0.6}


def discrete_density_op(rng):
    return DensityDiffOp(DS, V, 1, {
        (mi(()), l): BaseDensity.discrete(DS, weights_on(rng, "abc"))
        for l in enumerate_upto(1, 2)})


def discrete_endo_op(rng):
    return EndoDiffOp(DS, V, 1, {
        (mi(()), l): SupportedFormalFunction(
            DS, V, 1, 2, {j: weights_on(rng, "abc")
                          for j in enumerate_upto(1, 2)})
        for l in enumerate_upto(1, 2)})


def discrete_function(rng, trunc=3):
    return FormalFunction(DS, V, 1, trunc, {
        j: weights_on(rng, "abc") for j in enumerate_upto(1, trunc)})


OPS = {"density": discrete_density_op, "endo": discrete_endo_op}


@pytest.mark.parametrize("kind", sorted(OPS))
def test_the_density_algebra_returns_the_callers_class(kind):
    rng = random.Random(223)
    for _ in range(40):
        a, b = OPS[kind](rng), OPS[kind](rng)
        f = discrete_function(rng)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        eta = a.rho()
        got = {"add": (a.add(b), eta.add(b.rho())),
               "scale": (a.scale(c), eta.scale(c)),
               "ext": (a.ext(DS.whole()), eta.ext(DS.whole())),
               "precompose_function": (a.precompose_function(f),
                                       eta.module_action(f)),
               "cutoff_restrict": (a.cutoff_restrict(CUT, W),
                                   eta.cutoff_restrict(CUT, W))}
        for name, (op, want) in got.items():
            assert type(op) is type(a), name
            assert type(want) is FormalDensity, name
            assert (op.domain, op.coeffs) == (want.domain, want.coeffs), name


def test_an_operator_pairs_as_it_integrates_on_discrete_instances():
    rng = random.Random(227)
    for _ in range(60):
        op, u = discrete_density_op(rng), discrete_function(rng)
        got = op.pair(u)
        assert isinstance(got, QC)
        assert got == op.apply(u).integrate(op.domain) == op.rho().pair(u)


@pytest.mark.parametrize("xorder,seed", CASES)
def test_an_operator_pairs_as_it_integrates_on_line_instances(xorder, seed):
    rng = random.Random(seed)
    op, u = line_op(rng, xorder), line_function(rng)
    got = op.pair(u)
    assert isinstance(got, QC)
    assert got == op.apply(u).integrate(op.domain)


def test_an_operator_never_equals_its_normal_form():
    rng = random.Random(229)
    for make in OPS.values():
        op = make(rng)
        assert op.rho().coeffs == op.coeffs
        assert op != op.rho() and op.rho() != op
    assert DensityDiffOp(DS, V, 1) != EndoDiffOp(DS, V, 1)


def test_an_operator_plus_a_density_is_the_operator_of_the_sum():
    rng = random.Random(233)
    for _ in range(40):
        op = discrete_density_op(rng)
        eta = FormalDensity(DS, V, 1, {
            l: ((mi(()), BaseDensity.discrete(DS, weights_on(rng, "abc"))),)
            for l in enumerate_upto(1, 2)})
        got = op.add(eta)
        assert type(got) is DensityDiffOp
        assert got.rho() == op.rho().add(eta)
        assert eta.add(op) == op.rho().add(eta)


def test_the_one_term_builder_makes_no_unchecked_operator():
    # an operator class inherits the density's monomial, which builds a
    # plain density: no operator skips its constructor's support check
    wide = BaseDensity.smooth(SL, X, SL.whole().region)
    assert type(DensityDiffOp.monomial(SL, SL.whole(), 1, (0,), wide)) \
        is FormalDensity
    with pytest.raises(SupportError):
        DensityDiffOp(SL, SL.whole(), 1, {(mi((0,)), mi((0,))): wide})


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
