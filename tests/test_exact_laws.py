"""The module and normal-form laws hold exactly on polynomial data of the
line: a polynomial coefficient with a rational support witness pairs to
a QC, and neither side of a law integrates by parts, so both sides are
equal as exact scalars, not only to a tolerance.

All densities of one instance share their witness. A polynomial does
not vanish outside its witness, and merging two terms joins their
witnesses, so terms with different witnesses would be integrated over
more than each was stated on."""

import random
from fractions import Fraction

import pytest

from formalcalc import (BaseDensity, Const, DensityDiffOp, FormalDensity,
                        FormalFunction, OpenSet, RSet, SmoothLine, X, add, mi,
                        mul, pow_)
from formalcalc.scalars import QC

SL = SmoothLine()
DOM = OpenSet(SL, [(-4, 4)])
TRUNC = 2
CASES = [(xorder, seed) for xorder in range(4) for seed in range(3)]


def poly(rng):
    """A cubic in x with small nonzero rational coefficients."""
    c = [Const(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
         for _ in range(4)]
    return add(add(c[0], mul(c[1], X)),
               add(mul(c[2], pow_(X, 2)), mul(c[3], pow_(X, 3))))


def window(rng):
    """A rational support witness inside DOM."""
    lo = Fraction(rng.randint(-12, 4), 4)
    return RSet.closed_pairs([(lo, lo + Fraction(rng.randint(1, 12), 4))])


def tau(rng, witness):
    return BaseDensity.smooth(SL, poly(rng), witness)


def function(rng):
    return FormalFunction(SL, DOM, 1, TRUNC,
                          {mi((j,)): poly(rng) for j in range(TRUNC + 1)})


def stacks(xorder):
    """A derivative stack per y*-index 0, 1, 2."""
    return [mi((xorder,)), mi((xorder,)), mi((max(xorder - 1, 0),))]


def exact(v):
    assert isinstance(v, QC), v
    return v


@pytest.mark.parametrize("xorder,seed", CASES)
def test_the_module_action_is_adjoint_to_multiplication(xorder, seed):
    rng = random.Random(seed)
    w = window(rng)
    eta = FormalDensity(SL, DOM, 1, {mi((j,)): ((n, tau(rng, w)),)
                                     for j, n in enumerate(stacks(xorder))})
    f, u = function(rng), function(rng)
    lhs = exact(eta.module_action(f).pair(u))
    assert lhs == exact(eta.pair(f.mul(u)))
    assert lhs != 0


@pytest.mark.parametrize("xorder,seed", CASES)
def test_rho_pairs_as_the_operator_integrates(xorder, seed):
    rng = random.Random(seed)
    w = window(rng)
    op = DensityDiffOp(SL, DOM, 1, {(n, mi((j,))): tau(rng, w)
                                    for j, n in enumerate(stacks(xorder))})
    u = function(rng)
    lhs = exact(op.rho().pair(u))
    assert lhs == exact(op.apply(u).integrate(DOM))
    assert lhs != 0
