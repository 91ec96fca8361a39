"""A compactly supported distribution builds the results of add, restrict
and cutoff_restrict without validating them again: each result equals
what the public constructor makes of the same data, witness included,
on both backends. Restricting clips smooth bounds to the new witness, so
a bound that leaves the open set no longer makes restrict refuse."""

import functools
import random
from fractions import Fraction

import pytest

from formalcalc import suites
from formalcalc.distributions import (BaseDistribution,
                                      CompactFormalDistribution, SmoothTerm)
from formalcalc.errors import SupportError
from formalcalc.expr import Const, X, add, mul, pow_
from formalcalc.functions import SupportedFormalFunction, cutoff
from formalcalc.scalars import QC
from formalcalc.sheaf import build_pou
from formalcalc.spaces import Discrete, OpenSet, RSet, SmoothLine

SL = SmoothLine()
DS = Discrete(["p%d" % n for n in range(8)])
backends = pytest.mark.parametrize("space", [DS, SL], ids=["discrete", "line"])
seeds = pytest.mark.parametrize("seed", range(4))


def public(eta):
    """eta as the validating constructor reads its data."""
    return CompactFormalDistribution(eta.space, eta.domain, eta.k, eta.e_dim,
                                     eta.coeffs, support=eta.support)


def assert_public(eta, support):
    rebuilt = public(eta)
    assert type(eta) is CompactFormalDistribution
    assert eta == rebuilt
    assert eta.support == rebuilt.support == support


@functools.cache
def cover_and_pou(space):
    cover = suites._three_part_cover(space)
    return cover, build_pou(cover, 1, 2)


def draw(rng, space, domain):
    return suites.rand_compact_distribution(rng, space, domain, 1, 2, 2)


@backends
@seeds
def test_results_equal_their_public_reconstruction(space, seed):
    rng = random.Random(seed)
    cover, pou = cover_and_pou(space)
    a, b = draw(rng, space, cover.whole), draw(rng, space, cover.whole)
    assert_public(a.add(b), a.support | b.support)
    for part, f in zip(cover.parts, pou.functions):
        assert_public(a.restrict(part), a.support & part.region)
        assert_public(a.cutoff_restrict(f, part), f.support & a.support)


@backends
@seeds
def test_cutoff_restrict_refuses_a_cutoff_whose_support_leaves_v(space,
                                                                 seed):
    rng = random.Random(seed)
    cover, _ = cover_and_pou(space)
    a = draw(rng, space, cover.whole)
    # one on a neighbourhood of the witness, so the product keeps all of it
    f = cutoff(space, cover.whole, 1, 2,
               *space.cutoff_near(a.support, cover.whole.region))
    escaping = [v for v in cover.parts if not a.support <= v.region]
    assert escaping
    for v in escaping:
        with pytest.raises(SupportError,
                           match="support witness escapes the domain"):
            a.cutoff_restrict(f, v)


def test_restrict_clips_a_smooth_bound_that_leaves_the_open_set():
    dom, v = OpenSet(SL, [(-4, 4)]), OpenSet(SL, [(0, 2)])
    witness = RSet.closed_pairs([(-1, 1)])
    eta = CompactFormalDistribution(
        SL, dom, 1, 1,
        {(0,): (BaseDistribution(SL, terms=(SmoothTerm(X, witness),)),)},
        support=witness)
    r = eta.restrict(v)
    assert_public(r, witness & v.region)
    u = SupportedFormalFunction(
        SL, v, 1, 1, {(0,): add(Const(Fraction(1, 3)), pow_(X, 2)),
                      (1,): mul(Const(2), X)},
        support=RSet.closed_pairs([(Fraction(1, 4), Fraction(3, 2))]))
    value = r.apply(u)
    assert all(isinstance(c, QC) for c in value)
    assert value == eta.apply(u.ext(dom))
    assert value[0] != 0
