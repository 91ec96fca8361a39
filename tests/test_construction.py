"""Validation at the boundary, trusted construction inside.

The public constructors check everything that comes from outside; the
results of the algebra are built without those checks. The refusal
table pins what every public constructor still refuses, the operation
table what extension, cutoff and splitting refuse, each with its
message, and the oracle rebuilds algebra results through the public
constructors, which must give back the very same section.
"""

import random
import re
from fractions import Fraction

import pytest

from formalcalc import suites
from formalcalc.basedensity import BaseDensity
from formalcalc.densities import FormalDensity
from formalcalc.distributions import (BaseDistribution,
                                      CompactFormalDistribution,
                                      FormalDistribution,
                                      GeneralizedFunction, cutoff_extend)
from formalcalc.errors import (DomainMismatchError, SupportError,
                               TruncationError)
from formalcalc.expr import ONE, bump
from formalcalc.functions import (FormalFunction, SupportedFormalFunction,
                                  cutoff, cutoff_product)
from formalcalc.multiindex import mi
from formalcalc.scalars import QC
from formalcalc.sheaf import mv_split
from formalcalc.spaces import Discrete, OpenSet, RSet, SmoothLine

DS = Discrete(["a", "b", "c", "d"])
OTHER = Discrete(["a", "b", "c", "d", "e"])
SL = SmoothLine()
M = DS.whole()
U = OpenSet(DS, ["a", "b"])
W = BaseDistribution(DS, weights={"a": 1})
W_OTHER = BaseDistribution(OTHER, weights={"a": 1})
TAU = BaseDensity.discrete(DS, {"a": 1})
TAU_OTHER = BaseDensity.discrete(OTHER, {"a": 1})
# weights at d, outside U, and a point term outside an interval
TAU_D = BaseDensity.discrete(DS, {"d": 1})
W_D = BaseDistribution(DS, weights={"d": 1})
UNIT = OpenSet(SL, [(Fraction(0), Fraction(1))])
POINT_2 = BaseDistribution.point(SL, 2)

# (constructor, bad input, arguments, expected refusal)
REFUSALS = [
    (FormalFunction, "label outside the domain",
     (DS, U, 1, 2, {(0,): {"c": 1}}), DomainMismatchError),
    (FormalFunction, "negative index", (DS, M, 1, 2, {(-1,): {"a": 1}}),
     ValueError),
    (FormalFunction, "wrong-length index", (DS, M, 1, 2, {(0, 0): {"a": 1}}),
     ValueError),
    (FormalFunction, "index over the cap", (DS, M, 1, 2, {(3,): {"a": 1}}),
     TruncationError),
    (FormalFunction, "coefficient over another space",
     (DS, M, 1, 2, {(0,): {"e": 1}}), DomainMismatchError),
    (FormalFunction, "domain over another space",
     (DS, OTHER.whole(), 1, 2, {}), DomainMismatchError),
    (SupportedFormalFunction, "label outside the domain",
     (DS, U, 1, 2, {(0,): {"c": 1}}), DomainMismatchError),
    (SupportedFormalFunction, "negative index",
     (DS, M, 1, 2, {(-1,): {"a": 1}}), ValueError),
    (SupportedFormalFunction, "index over the cap",
     (DS, M, 1, 2, {(3,): {"a": 1}}), TruncationError),
    (SupportedFormalFunction, "coefficient outside the support witness",
     (DS, M, 1, 2, {(0,): {"a": 1, "b": 1}}, frozenset({"a"})), SupportError),
    (SupportedFormalFunction, "witness label not in the space",
     (DS, U, 1, 2, {(0,): {"a": 1}}, {"a", "zzz"}), ValueError),
    (BaseDensity, "label outside the space", (DS, {"e": 1}),
     DomainMismatchError),
    (BaseDensity, "weight that is no number", (DS, {"a": "x"}), ValueError),
    (FormalDensity, "negative index", (DS, M, 1, {(-1,): (((), TAU),)}),
     ValueError),
    (FormalDensity, "wrong-length index", (DS, M, 1, {(0, 0): (((), TAU),)}),
     ValueError),
    (FormalDensity, "wrong-length derivative stack",
     (DS, M, 1, {(0,): (((1,), TAU),)}), ValueError),
    (FormalDensity, "coefficient over another space",
     (DS, M, 1, {(0,): (((), TAU_OTHER),)}), DomainMismatchError),
    (FormalDensity, "weight outside the domain",
     (DS, U, 1, {(0,): (((), TAU_D),)}), DomainMismatchError),
    (FormalDistribution, "negative index", (DS, M, 1, 1, {(-1,): (W,)}),
     ValueError),
    (FormalDistribution, "wrong-length index", (DS, M, 1, 1, {(0, 0): (W,)}),
     ValueError),
    (FormalDistribution, "wrong-length vector", (DS, M, 1, 2, {(0,): (W,)}),
     ValueError),
    (FormalDistribution, "coefficient over another space",
     (DS, M, 1, 1, {(0,): (W_OTHER,)}), DomainMismatchError),
    (FormalDistribution, "weight outside the domain",
     (DS, U, 1, 1, {(0,): (W_D,)}), DomainMismatchError),
    (FormalDistribution, "point term outside the domain",
     (SL, UNIT, 1, 1, {(0,): (POINT_2,)}), DomainMismatchError),
    (CompactFormalDistribution, "negative index",
     (DS, M, 1, 1, {(-1,): (W,)}), ValueError),
    (CompactFormalDistribution, "coefficient over another space",
     (DS, M, 1, 1, {(0,): (W_OTHER,)}), DomainMismatchError),
    (CompactFormalDistribution, "coefficient outside the support witness",
     (DS, M, 1, 1, {(0,): (W,)}, frozenset({"b"})), SupportError),
    (CompactFormalDistribution, "witness outside the domain",
     (DS, U, 1, 1, {(0,): (W,)}, frozenset({"a", "c"})), SupportError),
    (GeneralizedFunction, "negative index", (DS, M, 1, 2, 1, {(-1,): (W,)}),
     ValueError),
    (GeneralizedFunction, "index over the cap", (DS, M, 1, 2, 1, {(3,): (W,)}),
     TruncationError),
    (GeneralizedFunction, "coefficient over another space",
     (DS, M, 1, 2, 1, {(0,): (W_OTHER,)}), DomainMismatchError),
    (GeneralizedFunction, "weight outside the domain",
     (DS, U, 1, 2, 1, {(0,): (W_D,)}), DomainMismatchError),
    (GeneralizedFunction, "point term outside the domain",
     (SL, UNIT, 1, 2, 1, {(0,): (POINT_2,)}), DomainMismatchError),
    (BaseDistribution, "label outside the space", (DS, {"e": 1}),
     DomainMismatchError),
    (BaseDistribution, "weight that is no number", (DS, {"a": "x"}),
     ValueError),
    (BaseDistribution, "term of unknown kind", (DS, None, ["junk"]),
     TypeError),
    (mi, "negative entry", ([0, -1],), ValueError),
    (mi, "negative entry in a tuple", ((0, -1),), ValueError),
    (mi, "entry that is no integer", (("a",),), ValueError),
]


@pytest.mark.parametrize("cls, bad, args, error", REFUSALS,
                         ids=["%s: %s" % (r[0].__name__, r[1])
                              for r in REFUSALS])
def test_public_constructors_refuse_bad_input(cls, bad, args, error):
    with pytest.raises(error):
        cls(*args)


# a distribution on U supported at a, and cutoffs of every kind of fault
ETA = CompactFormalDistribution(DS, U, 1, 1, {(0,): (W,)})
ETA_LINE = CompactFormalDistribution(
    SL, OpenSet(SL, [(-4, 4)]), 1, 1,
    {(0,): (BaseDistribution.point(SL, 0),)})
# one everywhere, its witness the whole line: not compact
EVERYWHERE = SupportedFormalFunction(SL, SL.whole(), 1, 1, {(0,): ONE},
                                     support=RSet.whole(),
                                     plateau=RSet.whole())
# a witness with c, outside U
LEAKY = SupportedFormalFunction(DS, U, 1, 1, {}, support={"a", "c"})
# a kernel pair on (-2, 2) and (-1, 2) whose first witness, [-3/2, 1/2],
# is looser than its bump's support, [-1/2, 1/2], and leaves (-1, 2)
_BUMP, _SUPP, _ = bump(Fraction(-1, 2), Fraction(-1, 4), Fraction(1, 4),
                       Fraction(1, 2))
LOOSE_PAIR = (
    FormalDensity.monomial(SL, OpenSet(SL, [(-2, 2)]), 1, (0,),
                           BaseDensity.smooth(SL, _BUMP, RSet.closed_pairs(
                               [(Fraction(-3, 2), Fraction(1, 2))]))),
    FormalDensity.monomial(SL, OpenSet(SL, [(-1, 2)]), 1, (0,),
                           BaseDensity.smooth(SL, _BUMP, _SUPP)).scale(-1))

# (operation, bad input, arguments, expected refusal, its message)
OPERATION_REFUSALS = [
    (cutoff_extend, "cutoff of another k",
     (ETA, cutoff(DS, M, 2, 1, ["a"], ["a"])), DomainMismatchError,
     "cutoff does not match the distribution"),
    (cutoff_extend, "cutoff on a smaller open set",
     (ETA, cutoff(DS, OpenSet(DS, ["a"]), 1, 1, ["a"], ["a"])),
     DomainMismatchError,
     "cutoff domain does not contain the distribution's open set"),
    (cutoff_extend, "cutoff with no compact witness",
     (ETA_LINE, EVERYWHERE), SupportError,
     "cutoff needs a compact support witness"),
    (cutoff_extend, "cutoff supported outside the open set",
     (ETA, cutoff(DS, M, 1, 1, ["a"], ["a", "c"])), SupportError,
     "cutoff support escapes the distribution's open set"),
    (cutoff_extend, "cutoff with no plateau",
     (ETA, SupportedFormalFunction(DS, M, 1, 1, {(0,): {"a": 1}},
                                   support={"a"})), SupportError,
     "cutoff carries no plateau witness"),
    (mv_split, "partners of another k",
     (FormalDensity.zero(DS, U, 1), FormalDensity.zero(DS, M, 2)),
     DomainMismatchError, "split partners do not match"),
    (mv_split, "a witness outside the intersection", LOOSE_PAIR,
     SupportError, "kernel supports are not confined to the intersection"),
    (SupportedFormalFunction.ext, "a witness outside the domain",
     (LEAKY, M), SupportError, "support witness escapes the domain"),
    (cutoff_product, "cutoff of another k",
     (cutoff(DS, M, 2, 1, ["a"], ["a"]), FormalFunction(DS, U, 1, 1, {})),
     DomainMismatchError, "cutoff and function do not match"),
    (cutoff_product, "cutoff on a smaller open set",
     (cutoff(DS, U, 1, 1, ["a"], ["a"]), FormalFunction(DS, M, 1, 1, {})),
     DomainMismatchError,
     "cutoff domain does not contain the function domain"),
]


@pytest.mark.parametrize("op, bad, args, error, message", OPERATION_REFUSALS,
                         ids=["%s: %s" % (r[0].__qualname__, r[1])
                              for r in OPERATION_REFUSALS])
def test_operations_refuse_bad_input(op, bad, args, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        op(*args)


def test_mi_returns_a_plain_tuple_as_it_is():
    t = (0, 2, 1)
    assert mi(t) is t
    assert mi([0, 2, 1]) == t
    # bools and other int-likes are converted, as before
    assert mi((True, 0)) == (1, 0) and type(mi((True, 0))[0]) is int


# -- the oracle: algebra results equal their public reconstruction ----------


def _rebuilt(x):
    """x through its public, validating constructor."""
    sp, dom, k = x.space, x.domain, x.k
    if isinstance(x, SupportedFormalFunction):
        return SupportedFormalFunction(sp, dom, k, x.trunc, x.coeffs,
                                       support=x.support, plateau=x.plateau)
    if isinstance(x, FormalFunction):
        return FormalFunction(sp, dom, k, x.trunc, x.coeffs)
    if isinstance(x, FormalDensity):
        return FormalDensity(sp, dom, k, x.coeffs)
    if isinstance(x, CompactFormalDistribution):
        return CompactFormalDistribution(sp, dom, k, x.e_dim, x.coeffs,
                                         support=x.support)
    if isinstance(x, FormalDistribution):
        return FormalDistribution(sp, dom, k, x.e_dim, x.coeffs)
    return GeneralizedFunction(sp, dom, k, x.trunc, x.e_dim, x.coeffs)


def assert_canonical(x):
    """x equals its public reconstruction, entries included, and stores
    no zero coefficient."""
    y = _rebuilt(x)
    assert type(y) is type(x) and y == x and y.coeffs == x.coeffs
    if isinstance(x, (SupportedFormalFunction, CompactFormalDistribution)):
        assert y.support == x.support
    sp = x.space
    for c in x.coeffs.values():
        if isinstance(x, FormalFunction):
            assert not sp.is_zero(c) and sp.clean(c, x.domain) == c
        elif isinstance(x, FormalDensity):
            assert c
            for _, tau in c:
                assert not tau.is_exactly_zero()
                assert BaseDensity(sp, tau.coeff, tau.bound) == tau
        else:
            assert not all(w.is_exactly_zero() for w in c)
            for w in c:
                assert BaseDistribution(sp, terms=w.terms) == w


def _scalar(rng):
    return rng.choice([0, 1, -2, Fraction(1, 3), QC(1, -1)])


def _cutoff(space, whole, part, k, trunc, rng):
    """A cutoff over the whole set supported inside part."""
    if isinstance(space, Discrete):
        labels = [p for p in sorted(part.region) if rng.randint(0, 1)]
        return cutoff(space, whole, k, trunc, labels, labels)
    return cutoff(space, whole, k, trunc,
                  RSet.closed_pairs([(Fraction(-2), Fraction(-1))]),
                  RSet.closed_pairs([(Fraction(-3), Fraction(0))]))


def _check_round(rng, space, k=2, trunc=2, e_dim=2):
    whole = space.whole()
    u1, u2 = suites._mv_parts(space)
    # functions
    u = suites.rand_function(rng, space, whole, k, trunc)
    v = suites.rand_function(rng, space, whole, k, trunc)
    s = suites.rand_supported_function(rng, space, u1, k, trunc)
    f = _cutoff(space, whole, u1, k, trunc, rng)
    for x in (u.add(v), u.add(u.scale(-1)), u.scale(_scalar(rng)), u.mul(v),
              u.restrict(u1), s.restrict(u1.intersect(u2)),
              s.ext(whole), cutoff_product(f, u.restrict(u1)),
              f):
        assert_canonical(x)
    # densities
    eta = suites.rand_density(rng, space, whole, k, trunc)
    zeta = suites.rand_density(rng, space, whole, k, trunc)
    local = suites.rand_density(rng, space, u1, k, trunc)
    for x in (eta.add(zeta), eta.add(eta.scale(-1)),
              eta.scale(_scalar(rng)), eta.module_action(u), local.ext(whole),
              eta.cutoff_restrict(f, u1)):
        assert_canonical(x)
    # distributions and generalized functions
    d = suites.rand_distribution(rng, space, whole, k, trunc, e_dim)
    c = suites.rand_compact_distribution(rng, space, u1, k, trunc, e_dim)
    g = suites.rand_generalized(rng, space, whole, k, trunc, e_dim)
    h = suites.rand_generalized(rng, space, whole, k, trunc, e_dim)
    for x in (d.add(d.scale(-1)), d.scale(_scalar(rng)), d.restrict(u1),
              d.module_action(u), d.component(e_dim - 1), c.scale(_scalar(rng)),
              c.ext(whole), c.module_action(u.restrict(u1)), c.component(0),
              g.add(h), g.scale(_scalar(rng)), g.restrict(u1),
              g.module_action(u), g.component(0)):
        assert_canonical(x)


def test_discrete_algebra_results_equal_their_public_reconstruction():
    rng = random.Random(6061)
    for _ in range(150):
        _check_round(rng, Discrete(["p%d" % i for i in range(6)]))


def test_smooth_algebra_results_equal_their_public_reconstruction():
    rng = random.Random(6062)
    for _ in range(50):
        _check_round(rng, SL, k=1, trunc=1, e_dim=1)
