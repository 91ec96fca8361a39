"""Sparse pairings against their dense definition.

`FormalDensity.pair`, `FormalDistribution.apply` and
`GeneralizedFunction.apply` visit only the multi-indices both sides
carry. The oracles here are the dense sums: every multi-index either
side carries, in grlex order, with a zero coefficient standing in for a
missing one. Exact results must agree with `==` and have the same type;
on the line, where quadrature and float point-term weights enter, the
values must agree as complex numbers.
"""

import random
from fractions import Fraction

import pytest

from formalcalc.basedensity import BaseDensity
from formalcalc.densities import FormalDensity
from formalcalc.distributions import (BaseDistribution, FormalDistribution,
                                      GeneralizedFunction, PointTerm,
                                      SmoothTerm)
from formalcalc.expr import ONE, X, Const, add, bump, mul, pow_
from formalcalc.functions import FormalFunction, SupportedFormalFunction
from formalcalc.multiindex import enumerate_upto, grlex_key, mi_factorial
from formalcalc.scalars import QC, QC_ZERO
from formalcalc.sheaf import dual_density_family, dual_function_family
from formalcalc.spaces import Discrete, OpenSet, RSet, SmoothLine

DS = Discrete(["a", "b", "c", "d"])
SL = SmoothLine()


# -- dense oracles ---------------------------------------------------------------


def union_keys(a, b):
    return sorted(set(a.coeffs) | set(b.coeffs), key=grlex_key)


def fin(v):
    return v if isinstance(v, QC) else complex(v)


def dense_pair(eta, u):
    sp = eta.space
    acc = QC_ZERO
    for l in union_keys(eta, u):
        ul = u.coeffs.get(l, sp.zero())
        for i, tau in eta.coeffs.get(l, ()):
            der = sp.diff(ul, i[0] if i else 0)
            acc = acc + mi_factorial(l) * tau.mul_coeff(der).integrate(eta.domain)
    return acc


def dense_apply(t, u):
    sp = t.space
    region = u.support & t.domain.region
    out = []
    for j in range(t.e_dim):
        acc = QC_ZERO
        for l in union_keys(t, u):
            w = t.coeff(l)[j]
            acc = acc + mi_factorial(l) * w.act_on_function(
                u.coeffs.get(l, sp.zero()), region)
        out.append(fin(acc))
    return out


def dense_gen_apply(g, eta):
    out = []
    for j in range(g.e_dim):
        acc = QC_ZERO
        for l in union_keys(g, eta):
            w = g.coeff(l)[j]
            for i, tau in eta.coeffs.get(l, ()):
                acc = acc + mi_factorial(l) * w.act_on_density(
                    tau, i[0] if i else 0, g.domain)
        out.append(fin(acc))
    return out


# -- random sections ----------------------------------------------------------------


def rand_q(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def rand_keys(rng, k, cap):
    return [j for j in enumerate_upto(k, cap) if rng.random() < 0.5]


class DiscreteParts:
    """Base data on a four-point space."""

    space = DS
    domain = DS.whole()
    stacks = [()]
    exact = True
    support = None  # read off the coefficients

    def function_coeff(self, rng, supported):
        return {p: QC(rand_q(rng), rand_q(rng) if rng.random() < 0.3 else 0)
                for p in sorted(self.domain.region) if rng.random() < 0.7}

    def density(self, rng):
        return BaseDensity.discrete(DS, {p: rand_q(rng) for p in "abcd"
                                         if rng.random() < 0.6})

    def distribution(self, rng):
        return BaseDistribution.from_weights(
            DS, {p: rand_q(rng) for p in "abcd" if rng.random() < 0.6})


class LineParts:
    """Base data on the line: polynomial and bump coefficients, smooth
    and point terms, point weights exact or float."""

    space = SL
    domain = OpenSet(SL, [(-4, 4)])
    stacks = [(0,), (1,)]
    exact = False
    bump_e, support, _ = bump(-3, -2, 2, 3)

    def poly(self, rng):
        e = Const(rand_q(rng))
        for n in (1, 2):
            if rng.random() < 0.6:
                e = add(e, mul(Const(rand_q(rng)), pow_(X, n)))
        return e

    def function_coeff(self, rng, supported):
        """A polynomial, or one cut off by a bump (always, when the
        function needs a compact support)."""
        if not supported and rng.random() < 0.5:
            return self.poly(rng)
        return mul(self.bump_e, self.poly(rng))

    def interval(self, rng):
        lo = Fraction(rng.randint(-6, 4), 2)
        return RSet.closed_pairs([(lo, lo + Fraction(rng.randint(1, 3), 2))])

    def density(self, rng):
        return BaseDensity.smooth(SL, self.poly(rng), self.interval(rng))

    def distribution(self, rng):
        terms = []
        if rng.random() < 0.7:
            terms.append(SmoothTerm(self.poly(rng), self.interval(rng)))
        if rng.random() < 0.7:
            c = rand_q(rng) if rng.random() < 0.5 else complex(rand_q(rng), 0.25)
            terms.append(PointTerm(Fraction(rng.randint(-5, 5), 2),
                                   rng.randint(0, 1), c))
        return BaseDistribution(SL, terms=terms or [SmoothTerm(ONE)])


def rand_function(parts, rng, k, trunc, supported):
    coeffs = {j: parts.function_coeff(rng, supported)
              for j in rand_keys(rng, k, trunc)}
    if supported:
        return SupportedFormalFunction(parts.space, parts.domain, k, trunc,
                                       coeffs, support=parts.support)
    return FormalFunction(parts.space, parts.domain, k, trunc, coeffs)


def rand_density(parts, rng, k, star):
    return FormalDensity(parts.space, parts.domain, k, {
        l: tuple((rng.choice(parts.stacks), parts.density(rng))
                 for _ in range(rng.randint(1, 2)))
        for l in rand_keys(rng, k, star)})


def rand_vectors(parts, rng, k, cap, e_dim):
    return {l: tuple(parts.distribution(rng) for _ in range(e_dim))
            for l in rand_keys(rng, k, cap)}


def same(parts, got, want):
    if parts.exact:
        return got == want and type(got) is type(want)
    return complex(got) == complex(want)


def draw(kind, parts, rng):
    """A random section of the kind, with random partners and the
    one-key probe family the sheaf checks read it against."""
    sp, dom = parts.space, parts.domain
    k, cap = rng.randint(1, 2), rng.randint(0, 2)
    if kind == "density":
        section = rand_density(parts, rng, k, cap)
        partners = [rand_function(parts, rng, k, cap + rng.randint(0, 1), False)
                    for _ in range(3)]
        return section, partners + dual_function_family(sp, dom, k, cap, 1)
    e_dim = rng.randint(1, 2)
    vectors = rand_vectors(parts, rng, k, cap, e_dim)
    if kind == "distribution":
        section = FormalDistribution(sp, dom, k, e_dim, vectors)
        partners = [rand_function(parts, rng, k, cap + rng.randint(0, 1), True)
                    for _ in range(3)]
        return section, partners + dual_function_family(sp, dom, k, cap, 1)
    section = GeneralizedFunction(sp, dom, k, cap, e_dim, vectors)
    partners = [rand_density(parts, rng, k, rng.randint(0, cap))
                for _ in range(3)]
    return section, partners + dual_density_family(sp, dom, k, cap, 1)


READ = {
    "density": (lambda s, u: [s.pair(u)], lambda s, u: [dense_pair(s, u)]),
    "distribution": (FormalDistribution.apply, dense_apply),
    "generalized": (GeneralizedFunction.apply, dense_gen_apply),
}


@pytest.mark.parametrize("kind", sorted(READ))
@pytest.mark.parametrize("parts, seed, n", [(DiscreteParts(), 801, 60),
                                            (LineParts(), 811, 8)],
                         ids=["discrete", "line"])
def test_sparse_reading_matches_the_dense_sum(kind, parts, seed, n):
    sparse, dense = READ[kind]
    rng = random.Random(seed)
    section_lacks = partner_lacks = 0
    for _ in range(n):
        section, partners = draw(kind, parts, rng)
        for p in partners:
            section_lacks += bool(set(p.coeffs) - set(section.coeffs))
            partner_lacks += bool(set(section.coeffs) - set(p.coeffs))
            got, want = sparse(section, p), dense(section, p)
            assert len(got) == len(want)
            assert all(same(parts, g, w) for g, w in zip(got, want))
    # both kinds of one-sided key occurred
    assert section_lacks and partner_lacks
