"""Differential operators, the regrouping map, and compositions."""

import math
import random
from fractions import Fraction

import pytest

from formalcalc.basedensity import BaseDensity
from formalcalc.diffops import DensityDiffOp, EndoDiffOp, seminorm
from formalcalc.errors import (DomainMismatchError, SupportError,
                               TruncationError)
from formalcalc.expr import Const, Mul, X, add, bump, mul, pow_
from formalcalc.functions import (FormalFunction, SupportedFormalFunction,
                                  cutoff)
from formalcalc.multiindex import enumerate_upto, mi, mi_factorial
from formalcalc.scalars import QC
from formalcalc.spaces import Discrete, OpenSet, RSet, SmoothLine

DS = Discrete(["a", "b", "c", "d"])
SL = SmoothLine()


def rand_function(rng, domain, k, trunc):
    coeffs = {}
    for j in enumerate_upto(k, trunc):
        if rng.random() < 0.3:
            continue
        coeffs[j] = {p: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for p in sorted(domain.region) if rng.random() < 0.7}
    return FormalFunction(DS, domain, k, trunc, coeffs)


def rand_op(rng, domain, k, star):
    terms = {}
    for l in enumerate_upto(k, star):
        if rng.random() < 0.4:
            continue
        tau = BaseDensity.discrete(
            DS, {p: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for p in sorted(domain.region) if rng.random() < 0.6})
        if not tau.is_exactly_zero():
            terms[(mi(()), l)] = tau
    return DensityDiffOp(DS, domain, k, terms)


def brute_apply(op, u):
    """Raw-dict evaluation of sum tau * L! * u_L, bypassing apply()."""
    out = {}
    for (_, l), tau in op.terms.items():
        ul = u.coeffs.get(l, {})
        for p, w in tau.weights.items():
            v = out.get(p, QC(0)) + w * mi_factorial(l) * ul.get(p, QC(0))
            out[p] = v
    return {p: v for p, v in out.items() if v}


def test_apply_matches_raw_summation():
    rng = random.Random(103)
    for _ in range(150):
        k = rng.randint(1, 2)
        star = rng.randint(0, 2)
        op = rand_op(rng, DS.whole(), k, star)
        u = rand_function(rng, DS.whole(), k, rng.randint(star, star + 2))
        assert op.apply(u).weights == brute_apply(op, u)


def test_regrouped_density_pairs_like_the_operator_integrates():
    rng = random.Random(107)
    for _ in range(150):
        k = rng.randint(1, 2)
        star = rng.randint(0, 2)
        op = rand_op(rng, DS.whole(), k, star)
        u = rand_function(rng, DS.whole(), k, rng.randint(star, star + 2))
        lhs = op.rho().pair(u)
        rhs = op.apply(u).integrate(op.domain)
        assert lhs == rhs


def test_rho_keeps_terms_grouped_by_star_index():
    tau1 = BaseDensity.discrete(DS, {"a": 1})
    tau2 = BaseDensity.discrete(DS, {"b": 2})
    op = DensityDiffOp(DS, DS.whole(), 1, {(mi(()), (0,)): tau1,
                                           (mi(()), (2,)): tau2})
    eta = op.rho()
    assert set(eta.coeffs) == {(0,), (2,)}
    assert eta.coeffs[(2,)] == ((mi(()), tau2),)


def test_apply_demands_covering_truncation():
    op = rand_op(random.Random(109), DS.whole(), 1, 2)
    assert op.y_order() == 2
    u = rand_function(random.Random(113), DS.whole(), 1, 1)
    with pytest.raises(TruncationError):
        op.apply(u)
    with pytest.raises(DomainMismatchError):
        op.apply(rand_function(random.Random(113), OpenSet(DS, ["a"]), 1, 3))


def test_precompose_matches_application_to_product():
    rng = random.Random(127)
    for _ in range(120):
        k = rng.randint(1, 2)
        star = rng.randint(0, 2)
        op = rand_op(rng, DS.whole(), k, star)
        f = rand_function(rng, DS.whole(), k, rng.randint(star, 3))
        u = rand_function(rng, DS.whole(), k, rng.randint(star, 3))
        lhs = op.precompose_function(f).apply(u)
        rhs = op.apply(f.mul(u))
        assert lhs == rhs


def test_linear_structure():
    rng = random.Random(137)
    for _ in range(60):
        a = rand_op(rng, DS.whole(), 1, 2)
        b = rand_op(rng, DS.whole(), 1, 2)
        u = rand_function(rng, DS.whole(), 1, 3)
        c = Fraction(rng.randint(-3, 3), 2)
        assert a.add(b).apply(u) == a.apply(u).add(b.apply(u))
        assert a.scale(c).apply(u) == a.apply(u).scale(c)


def test_construction_validates_support():
    with pytest.raises(SupportError):
        DensityDiffOp(SL, SL.whole(), 1,
                      {(mi((0,)), (0,)): BaseDensity.smooth(SL, X, RSet.whole())})
    small = OpenSet(DS, ["a"])
    with pytest.raises(SupportError):
        DensityDiffOp(DS, small, 1,
                      {(mi(()), (0,)): BaseDensity.discrete(DS, {"b": 1})})
    with pytest.raises(ValueError):
        DensityDiffOp(DS, DS.whole(), 1,
                      {(mi(()), (1, 1)): BaseDensity.discrete(DS, {"a": 1})})


def test_extension_commutes_with_regrouping():
    rng = random.Random(139)
    v = OpenSet(DS, ["a", "b", "c"])
    for _ in range(80):
        op = rand_op(rng, v, rng.randint(1, 2), 2)
        lhs = op.ext(DS.whole()).rho()
        rhs = op.rho().ext(DS.whole())
        assert lhs == rhs


def test_order_and_support_queries():
    tau = BaseDensity.discrete(DS, {"a": 1})
    op = DensityDiffOp(DS, DS.whole(), 2, {(mi(()), (1, 2)): tau})
    assert op.order() == 3
    assert op.y_order() == 3
    assert op.support() == frozenset({"a"})
    assert DensityDiffOp.zero(DS, DS.whole(), 1).is_exactly_zero()


def test_smooth_consistency_is_exact_for_shared_box_polynomials():
    box = RSet.closed_pairs([(0, 1)])
    op = DensityDiffOp(SL, SL.whole(), 1, {
        (mi((1,)), (1,)): BaseDensity.smooth(SL, X, box),
        (mi((0,)), (0,)): BaseDensity.smooth(SL, pow_(X, 2), box),
    })
    u = FormalFunction(SL, SL.whole(), 1, 2, {(0,): X, (1,): pow_(X, 3)})
    lhs = op.rho().pair(u)
    rhs = op.apply(u).integrate(SL.whole())
    # integral_0^1 x * 3x^2 + integral_0^1 x^2 * x = 3/4 + 1/4
    assert lhs == QC(1)
    assert rhs == QC(1)


def test_smooth_consistency_with_bump_coefficients():
    e, supp, _ = bump(-2, -1, 1, 2)
    tau = BaseDensity.smooth(SL, e, supp)
    op = DensityDiffOp(SL, SL.whole(), 1, {(mi((1,)), (0,)): tau})
    u = FormalFunction(SL, SL.whole(), 1, 1, {(0,): pow_(X, 2)})
    lhs = op.rho().pair(u)
    rhs = op.apply(u).integrate(SL.whole())
    assert abs(lhs - rhs) < 1e-9


def test_duplicate_json_terms_are_rejected():
    doc = {"terms": [
        {"I": [], "L": [1], "coeff": {"a": "1"}},
        {"I": [], "L": [1], "coeff": {"b": "1"}},
    ]}
    with pytest.raises(ValueError):
        DensityDiffOp.from_json(DS, DS.whole(), 1, doc)


def test_json_roundtrip():
    rng = random.Random(149)
    op = rand_op(rng, DS.whole(), 2, 2)
    back = DensityDiffOp.from_json(DS, DS.whole(), 2, op.to_json())
    assert back == op
    box = RSet.closed_pairs([(-1, 1)])
    sm = DensityDiffOp(SL, SL.whole(), 1,
                       {(mi((2,)), (1,)): BaseDensity.smooth(SL, X, box)})
    back = DensityDiffOp.from_json(SL, SL.whole(), 1, sm.to_json())
    assert back == sm
    with pytest.raises(ValueError):
        DensityDiffOp.from_json(DS, DS.whole(), 1, {})


def test_endo_operator_seminorm_discrete():
    f = SupportedFormalFunction(DS, DS.whole(), 1, 2,
                                {(0,): {"a": 2, "b": Fraction(-1, 2)}})
    x_op = EndoDiffOp(DS, DS.whole(), 1, {(mi(()), mi((0,))): f})
    u = FormalFunction(DS, DS.whole(), 1, 2, {(0,): {"a": 3, "b": 4}})
    # X(u) = f_0 u_0 pointwise: a -> 6, b -> -2
    assert x_op.apply_reduced(u) == {"a": QC(6), "b": QC(-2)}
    assert seminorm(u, x_op) == 6.0
    assert seminorm(u, EndoDiffOp.zero(DS, DS.whole(), 1)) == 0.0


def test_endo_operator_validation():
    plain = FormalFunction(DS, DS.whole(), 1, 1, {(0,): {"a": 1}})
    with pytest.raises(SupportError):
        EndoDiffOp(DS, DS.whole(), 1, {(mi(()), (0,)): plain})
    u = OpenSet(SL, [(-5, 5)])
    wide = SupportedFormalFunction(SL, u, 1, 1, {(0,): X},
                                   support=RSet.whole())
    with pytest.raises(SupportError):
        EndoDiffOp(SL, u, 1, {(mi((0,)), (0,)): wide})


def test_endo_operator_seminorm_smooth_grid():
    u_set = OpenSet(SL, [(-5, 5)])
    f = cutoff(SL, u_set, 1, 1, RSet.closed_pairs([(-1, 1)]),
               RSet.closed_pairs([(-2, 2)]))
    x_op = EndoDiffOp(SL, u_set, 1, {(mi((0,)), mi((0,))): f})
    u = FormalFunction(SL, u_set, 1, 1, {(0,): X})
    v = seminorm(u, x_op)
    # sup of |x * bump(x)| sits at or just outside the plateau edge
    assert 0.9 < v < 2.1


def test_a_nan_sample_makes_the_smooth_sup_nan():
    # 10^300 * (10^300 * x) overflows to inf off 0, so big - big is NaN
    # at 8 of the 9 grid points on [-1, 1] and 0.0 at x = 0
    big = Mul(Const(10 ** 300), Mul(Const(10 ** 300), X))
    c = add(big, mul(Const(-1), big))
    v = SL.sup_abs(c, RSet.closed_pairs([(-1, 1)]), 9)
    assert math.isnan(v)
    u_set = OpenSet(SL, [(-5, 5)])
    f = cutoff(SL, u_set, 1, 1, RSet.closed_pairs([(-1, 1)]),
               RSet.closed_pairs([(-2, 2)]))
    x_op = EndoDiffOp(SL, u_set, 1, {(mi((0,)), mi((0,))): f})
    assert math.isnan(seminorm(FormalFunction(SL, u_set, 1, 1, {(0,): c}),
                               x_op))
    # an inf sample already gave inf
    assert SL.sup_abs(big, RSet.closed_pairs([(-1, 1)]), 9) == math.inf
