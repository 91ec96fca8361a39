"""The module laws of distributions and generalized functions hold exactly
on polynomial data of the line, with point terms of orders 0 to 3 and
density stacks up to order 3: a point term reads an exact value of a
derivative, and a smooth term pairs a polynomial over a rational range.

These are the laws that see each term's own algebra: the product rule
of a point term with a function, the sign and order with which a
density's derivative stack moves onto a point term, and the stack a
smooth term differentiates. All data of one instance share one witness,
as in test_exact_laws."""

import random
from fractions import Fraction

import pytest

from formalcalc import (BaseDistribution, FormalDensity, FormalDistribution,
                        GeneralizedFunction, PointTerm, SmoothTerm,
                        SupportedFormalFunction, mi)
from formalcalc.scalars import QC

from test_exact_laws import DOM, SL, TRUNC, function, poly, stacks, tau, window

CASES = [(order, seed) for order in range(4) for seed in range(3)]


def exact(vec):
    assert all(isinstance(v, QC) for v in vec), vec
    return vec


def base(rng, witness, order):
    """A polynomial on the witness plus c times the order-th derivative
    at a rational point inside it."""
    (lo, hi), = witness.bounds_list()
    a = lo + (hi - lo) * Fraction(rng.randint(1, 7), 8)
    c = QC(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
    return BaseDistribution(SL, terms=(SmoothTerm(poly(rng), witness),
                                       PointTerm(a, order, c)))


def supported(u, witness):
    return SupportedFormalFunction(SL, DOM, 1, u.trunc, u.coeffs,
                                   support=witness)


def density(rng, witness, order):
    return FormalDensity(SL, DOM, 1, {mi((j,)): ((n, tau(rng, witness)),)
                                      for j, n in enumerate(stacks(order))})


@pytest.mark.parametrize("order,seed", CASES)
def test_a_distribution_times_a_function_pairs_as_it_pairs_the_product(
        order, seed):
    rng = random.Random(seed)
    w = window(rng)
    eta = FormalDistribution(SL, DOM, 1, 1, {mi((j,)): (base(rng, w, order),)
                                             for j in range(TRUNC + 1)})
    f, u = function(rng), function(rng)
    lhs = exact(eta.module_action(f).apply(supported(u, w)))
    assert lhs == exact(eta.apply(supported(f.mul(u), w)))
    assert lhs[0] != 0


@pytest.mark.parametrize("order,seed", CASES)
def test_a_generalized_function_times_a_function_is_adjoint(order, seed):
    rng = random.Random(seed)
    w = window(rng)
    g = GeneralizedFunction(SL, DOM, 1, TRUNC, 1,
                            {mi((j,)): (base(rng, w, order),)
                             for j in range(TRUNC + 1)})
    eta, f = density(rng, w, order), function(rng)
    lhs = exact(g.module_action(f).apply(eta))
    assert lhs == exact(g.apply(eta.module_action(f)))
    assert lhs[0] != 0


@pytest.mark.parametrize("order,seed", CASES)
def test_an_embedded_function_pairs_as_the_density_pairs_it(order, seed):
    rng = random.Random(seed)
    w = window(rng)
    eta, u = density(rng, w, order), function(rng)
    lhs = exact(GeneralizedFunction.embed(u).apply(eta))
    assert lhs == [eta.pair(u)]
    assert lhs[0] != 0
