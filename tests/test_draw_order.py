"""The seeded generators and the suites' fixtures draw in a fixed order.

The generators and fixtures below are the per-backend ones that
`formalcalc.suites` replaced by one draw object per backend, kept
verbatim as references. For every seed, each public `rand_*` of the
module must return the section the reference returns and leave the
`Random` state where the reference leaves it, on an 8-point discrete
space (k = 2) and on the line (k = 1); `_mv_parts` and
`_three_part_cover` must return the same sets. A draw that moves makes
the instances of every later draw differ, and fails here.
"""

import random
from fractions import Fraction

import pytest

from formalcalc import suites
from formalcalc.basedensity import BaseDensity
from formalcalc.densities import FormalDensity
from formalcalc.distributions import (BaseDistribution,
                                      CompactFormalDistribution,
                                      FormalDistribution,
                                      GeneralizedFunction, PointTerm,
                                      SmoothTerm)
from formalcalc.expr import Const, X, add, mul, pow_, window_bump
from formalcalc.functions import FormalFunction, SupportedFormalFunction
from formalcalc.multiindex import degree, enumerate_upto, mi
from formalcalc.scalars import QC, qc_triple
from formalcalc.sheaf import Cover
from formalcalc.spaces import (NEG_INF, Discrete, OpenSet, POS_INF, RSet,
                               SmoothLine)

DS = Discrete(["p%d" % i for i in range(8)])
SL = SmoothLine()
SEEDS = range(300)

# -- the generators, as they were --------------------------------------------


# rng.choice(range(a, b + 1)) draws what rng.randint(a, b) draws, with
# less argument checking per call
_NUMS, _DENS, _BIT, _TRIT = range(-6, 7), range(1, 4), range(2), range(3)


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_NUMS), rng.choice(_DENS))


def rand_qc(rng: random.Random) -> QC:
    """(a/b) + (c/e) i, or a/b, for a, c in -6..6 and b, e in 1..3."""
    draw = rng.choice
    if draw(_BIT):
        a, b, c, e = draw(_NUMS), draw(_DENS), draw(_NUMS), draw(_DENS)
        return qc_triple(a * e, c * b, b * e)
    return qc_triple(draw(_NUMS), 0, draw(_DENS))


def rand_weights(rng, labels):
    out = {}
    for p in sorted(labels):
        if rng.choice(_TRIT):
            v = rand_qc(rng)
            if v:
                out[p] = v
    return out


def rand_poly(rng, deg: int = 2):
    e = Const(rand_qc(rng))
    for d in range(1, deg + 1):
        if rng.randint(0, 1):
            e = add(e, mul(Const(rand_qc(rng)), pow_(X, d)))
    return e


def _bounded_box(domain: OpenSet):
    """A bounded (lo, hi) window inside the first piece of a smooth set."""
    lo, hi, _, _ = domain.region.pieces[0]
    if lo == NEG_INF and hi == POS_INF:
        return Fraction(-2), Fraction(2)
    if lo == NEG_INF:
        return hi - 4, Fraction(hi)
    if hi == POS_INF:
        return Fraction(lo), lo + 4
    return Fraction(lo), Fraction(hi)


def rand_window(rng, lo: Fraction, hi: Fraction):
    w = hi - lo
    i = rng.randint(1, 4)
    j = rng.randint(i + 2, 7)
    return lo + w * Fraction(i, 8), lo + w * Fraction(j, 8)


def rand_smooth_tau(rng, space, lo, hi) -> BaseDensity:
    bexpr, supp, _ = window_bump(*rand_window(rng, lo, hi))
    return BaseDensity.smooth(space, mul(bexpr, rand_poly(rng)), supp)


def rand_density(rng, space, domain, k, star) -> FormalDensity:
    """Compactly supported formal density with random coefficients."""
    coeffs = {}
    if isinstance(space, Discrete):
        for l in enumerate_upto(k, star):
            if rng.randint(0, 1):
                w = rand_weights(rng, domain.region)
                if w:
                    coeffs[mi(l)] = ((mi(()), BaseDensity.discrete(space, w)),)
    else:
        lo, hi = _bounded_box(domain)
        for l in enumerate_upto(k, star):
            if rng.randint(0, 1):
                terms = []
                for _ in range(rng.randint(1, 2)):
                    stack = mi((rng.randint(0, 1),))
                    terms.append((stack, rand_smooth_tau(rng, space, lo, hi)))
                coeffs[mi(l)] = tuple(terms)
    return FormalDensity(space, domain, k, coeffs)


def rand_function(rng, space, domain, k, trunc) -> FormalFunction:
    coeffs = {}
    for j in enumerate_upto(k, trunc):
        if rng.randint(0, 2):
            if isinstance(space, Discrete):
                c = rand_weights(rng, domain.region)
                if c:
                    coeffs[mi(j)] = c
            else:
                coeffs[mi(j)] = rand_poly(rng)
    return FormalFunction(space, domain, k, trunc, coeffs)


def rand_supported_function(rng, space, domain, k, trunc):
    if isinstance(space, Discrete):
        pts = sorted(domain.region)
        support = {p for p in pts if rng.randint(0, 1)} or {pts[0]}
        coeffs = {}
        for j in enumerate_upto(k, trunc):
            if rng.randint(0, 2):
                c = {p: rand_qc(rng) for p in sorted(support) if rng.randint(0, 1)}
                c = {p: v for p, v in c.items() if v}
                if c:
                    coeffs[mi(j)] = c
        return SupportedFormalFunction(space, domain, k, trunc, coeffs,
                                       support=frozenset(support))
    lo, hi = _bounded_box(domain)
    bexpr, supp, _ = window_bump(*rand_window(rng, lo, hi))
    coeffs = {mi([0] * k): mul(bexpr, rand_poly(rng))}
    for j in enumerate_upto(k, trunc):
        if degree(j) and rng.randint(0, 1):
            coeffs[mi(j)] = mul(bexpr, rand_poly(rng))
    return SupportedFormalFunction(space, domain, k, trunc, coeffs,
                                   support=supp)


def _rand_base_distribution(rng, space, domain, window=None):
    if isinstance(space, Discrete):
        return BaseDistribution(space, weights=rand_weights(rng, domain.region))
    terms = []
    if window is not None:
        wlo, whi = window
        bexpr, bsupp, _ = window_bump(wlo, whi)
        terms.append(SmoothTerm(mul(bexpr, rand_poly(rng)), bsupp))
        if rng.randint(0, 1):
            a = wlo + (whi - wlo) * Fraction(rng.randint(2, 6), 8)
            terms.append(PointTerm(a, rng.randint(0, 1), rand_qc(rng)))
    else:
        terms.append(SmoothTerm(rand_poly(rng)))
        lo, hi = _bounded_box(domain)
        if rng.randint(0, 1):
            a = lo + (hi - lo) * Fraction(rng.randint(1, 7), 8)
            terms.append(PointTerm(a, rng.randint(0, 1), rand_qc(rng)))
    return BaseDistribution(space, terms=terms)


def rand_distribution(rng, space, domain, k, star, e_dim) -> FormalDistribution:
    coeffs = {}
    for l in enumerate_upto(k, star):
        if rng.randint(0, 1):
            coeffs[mi(l)] = tuple(_rand_base_distribution(rng, space, domain)
                                  for _ in range(e_dim))
    return FormalDistribution(space, domain, k, e_dim, coeffs)


def rand_compact_distribution(rng, space, domain, k, star, e_dim):
    if isinstance(space, Discrete):
        pts = sorted(domain.region)
        support = {p for p in pts if rng.randint(0, 1)} or {pts[0]}
        coeffs = {}
        for l in enumerate_upto(k, star):
            if rng.randint(0, 1):
                coeffs[mi(l)] = tuple(
                    BaseDistribution(space, weights=rand_weights(rng, support))
                    for _ in range(e_dim))
        return CompactFormalDistribution(space, domain, k, e_dim, coeffs,
                                         support=frozenset(support))
    lo, hi = _bounded_box(domain)
    window = rand_window(rng, lo, hi)
    coeffs = {}
    for l in enumerate_upto(k, star):
        if rng.randint(0, 1):
            coeffs[mi(l)] = tuple(
                _rand_base_distribution(rng, space, domain, window=window)
                for _ in range(e_dim))
    support = RSet.closed_pairs([window])
    return CompactFormalDistribution(space, domain, k, e_dim, coeffs,
                                     support=support)


def rand_generalized(rng, space, domain, k, trunc, e_dim) -> GeneralizedFunction:
    coeffs = {}
    for j in enumerate_upto(k, trunc):
        if rng.randint(0, 1):
            coeffs[mi(j)] = tuple(_rand_base_distribution(rng, space, domain)
                                  for _ in range(e_dim))
    return GeneralizedFunction(space, domain, k, trunc, e_dim, coeffs)


# -- the two fixtures, as they were -----------------------------------------


def _mv_parts(space):
    if isinstance(space, Discrete):
        pts = space.points
        n = len(pts)
        u1 = OpenSet(space, pts[:2 * n // 3 + 1])
        u2 = OpenSet(space, pts[n // 3:])
        return u1, u2
    return (OpenSet(space, [(NEG_INF, Fraction(1))]),
            OpenSet(space, [(Fraction(-1), POS_INF)]))


def _three_part_cover(space) -> Cover:
    if isinstance(space, Discrete):
        pts = space.points
        n = len(pts)
        a, b = n // 3, 2 * n // 3
        parts = [OpenSet(space, pts[:a + 1]),
                 OpenSet(space, pts[a:b + 1]),
                 OpenSet(space, pts[b:])]
        return Cover(space.whole(), parts)
    whole = OpenSet(space, [(Fraction(-6), Fraction(6))])
    parts = [OpenSet(space, [(Fraction(-6), Fraction(-1))]),
             OpenSet(space, [(Fraction(-3), Fraction(3))]),
             OpenSet(space, [(Fraction(1), Fraction(6))])]
    return Cover(whole, parts)



# -- the comparison ------------------------------------------------------------


def _domains(space):
    u1, u2 = _mv_parts(space)
    out = [space.whole(), u1, u2, u1.intersect(u2)]
    if space is SL:
        out += [OpenSet(SL, [(Fraction(-2), Fraction(2))]),
                OpenSet(SL, [(Fraction(-3), Fraction(1)),
                             (Fraction(2), Fraction(5))])]
    return out


BACKENDS = {"discrete": (DS, 2), "line": (SL, 1)}


def _calls(space, k, seed):
    """(name, args after rng) of every public generator, the sizes and the
    domain chosen from the seed."""
    domains = _domains(space)
    dom = domains[seed % len(domains)]
    star, trunc, e_dim = seed % 3, (seed // 3) % 4, 1 + seed % 2
    labels = sorted(dom.region) if space is DS else []
    lo, hi = _bounded_box(dom) if space is SL else (Fraction(-2), Fraction(2))
    return [("rand_fraction", ()), ("rand_qc", ()),
            ("rand_weights", (labels,)), ("rand_poly", ()),
            ("rand_poly", (seed % 4,)), ("rand_window", (lo, hi)),
            ("rand_smooth_tau", (SL, lo, hi)),
            ("rand_density", (space, dom, k, star)),
            ("rand_function", (space, dom, k, trunc)),
            ("rand_supported_function", (space, dom, k, trunc)),
            ("rand_distribution", (space, dom, k, star, e_dim)),
            ("rand_compact_distribution", (space, dom, k, star, e_dim)),
            ("rand_generalized", (space, dom, k, trunc, e_dim))]


def _same(got, want):
    if hasattr(want, "to_json"):
        return type(got) is type(want) and got.to_json() == want.to_json()
    if isinstance(want, QC):
        return type(got) is QC and (got.n, got.m, got.d) == \
            (want.n, want.m, want.d)
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_every_generator_draws_what_its_reference_draws(backend):
    space, k = BACKENDS[backend]
    for seed in SEEDS:
        got, ref = random.Random(seed), random.Random(seed)
        for name, args in _calls(space, k, seed):
            want = globals()[name](ref, *args)
            out = getattr(suites, name)(got, *args)
            assert _same(out, want), (seed, name)
            assert got.getstate() == ref.getstate(), (seed, name)


@pytest.mark.parametrize("space", [DS, SL, Discrete(["a"]),
                                   Discrete(["a", "b", "c", "d", "e"])],
                         ids=["discrete8", "line", "discrete1", "discrete5"])
def test_fixtures_are_the_reference_sets(space):
    assert suites._mv_parts(space) == _mv_parts(space)
    got, want = suites._three_part_cover(space), _three_part_cover(space)
    assert got.whole == want.whole and got.parts == want.parts
