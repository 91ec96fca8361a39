"""Formal densities: pairing normal form, module action, extension."""

import random
from fractions import Fraction

import pytest

from formalcalc import densities
from formalcalc.basedensity import BaseDensity
from formalcalc.densities import FormalDensity, submultiindices
from formalcalc.errors import (DomainMismatchError, SupportError,
                               TruncationError)
from formalcalc.expr import X, add, bump, mul, pow_
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


def rand_density(rng, domain, k, star):
    coeffs = {}
    for l in enumerate_upto(k, star):
        if rng.random() < 0.4:
            continue
        tau = BaseDensity.discrete(
            DS, {p: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for p in sorted(domain.region) if rng.random() < 0.6})
        coeffs[l] = ((mi(()), tau),)
    return FormalDensity(DS, domain, k, coeffs)


def brute_pair(eta, u):
    """Raw-dict pairing sum, independent of the pairing method."""
    acc = QC(0)
    for l, terms in eta.coeffs.items():
        ul = u.coeffs.get(l, {})
        for _, tau in terms:
            for p, w in tau.weights.items():
                acc = acc + mi_factorial(l) * w * ul.get(p, QC(0))
    return acc


def test_pairing_matches_raw_summation():
    rng = random.Random(61)
    for _ in range(200):
        k = rng.randint(1, 2)
        star = rng.randint(0, 3)
        eta = rand_density(rng, DS.whole(), k, star)
        u = rand_function(rng, DS.whole(), k, rng.randint(star, star + 2))
        assert eta.pair(u) == brute_pair(eta, u)


def test_pairing_is_bilinear():
    rng = random.Random(67)
    for _ in range(60):
        eta1 = rand_density(rng, DS.whole(), 1, 2)
        eta2 = rand_density(rng, DS.whole(), 1, 2)
        u = rand_function(rng, DS.whole(), 1, 3)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        assert eta1.add(eta2).pair(u) == eta1.pair(u) + eta2.pair(u)
        assert eta1.scale(c).pair(u) == QC(c) * eta1.pair(u)


def test_pairing_demands_covering_truncation():
    eta = rand_density(random.Random(71), DS.whole(), 1, 2)
    assert eta.star_degree() == 2
    u = rand_function(random.Random(73), DS.whole(), 1, 1)
    with pytest.raises(TruncationError):
        eta.pair(u)
    with pytest.raises(TruncationError):
        eta.module_action(u)
    with pytest.raises(DomainMismatchError):
        eta.pair(rand_function(random.Random(73), OpenSet(DS, ["a"]), 1, 3))


def test_module_action_adjunction():
    # <eta . f, u> = <eta, f u> is the defining property
    rng = random.Random(79)
    for _ in range(150):
        k = rng.randint(1, 2)
        star = rng.randint(0, 2)
        eta = rand_density(rng, DS.whole(), k, star)
        f = rand_function(rng, DS.whole(), k, rng.randint(star, 3))
        u = rand_function(rng, DS.whole(), k, rng.randint(star, 3))
        lhs = eta.module_action(f).pair(u)
        rhs = eta.pair(f.mul(u))
        assert lhs == rhs


def test_module_action_by_one_is_identity():
    rng = random.Random(83)
    for _ in range(40):
        eta = rand_density(rng, DS.whole(), 2, 2)
        one = FormalFunction.constant(DS, DS.whole(), 2, 2)
        assert eta.module_action(one) == eta


def test_canonical_form_merges_terms_and_drops_zeros():
    tau1 = BaseDensity.discrete(DS, {"a": 1})
    tau2 = BaseDensity.discrete(DS, {"a": -1, "b": 2})
    eta = FormalDensity(DS, DS.whole(), 1,
                        {(1,): ((mi(()), tau1), (mi(()), tau2))})
    assert eta.coeffs[(1,)] == ((mi(()), BaseDensity.discrete(DS, {"b": 2})),)
    zero = FormalDensity(DS, DS.whole(), 1,
                         {(0,): ((mi(()), tau1), (mi(()), tau1.scale(-1)))})
    assert zero.is_exactly_zero()
    assert FormalDensity.zero(DS, DS.whole(), 1) == zero


def test_construction_validates_indices():
    tau = BaseDensity.discrete(DS, {"a": 1})
    with pytest.raises(ValueError):
        FormalDensity(DS, DS.whole(), 2, {(1,): ((mi(()), tau),)})
    with pytest.raises(ValueError):
        FormalDensity(DS, DS.whole(), 1, {(1,): ((mi((1,)), tau),)})


def test_support_and_ext():
    v = OpenSet(DS, ["a", "b"])
    tau = BaseDensity.discrete(DS, {"a": 1, "b": -1})
    eta = FormalDensity.monomial(DS, v, 1, (1,), tau)
    assert eta.support() == frozenset({"a", "b"})
    big = eta.ext(DS.whole())
    assert big.domain == DS.whole()
    assert big.coeffs == eta.coeffs
    with pytest.raises(DomainMismatchError):
        eta.ext(OpenSet(DS, ["a"]))
    # a weight outside the domain is refused at construction; built
    # without the check, it still blocks extension
    outside = BaseDensity.discrete(DS, {"c": 1})
    with pytest.raises(DomainMismatchError):
        FormalDensity.monomial(DS, v, 1, (0,), outside)
    stray = FormalDensity._trusted(DS, v, 1, {(0,): (((), outside),)})
    with pytest.raises(SupportError):
        stray.ext(DS.whole())


def test_monomial_is_built_with_its_term():
    tau = BaseDensity.discrete(DS, {"a": 3, "b": 1})
    eta = FormalDensity.monomial(DS, DS.whole(), 2, (1, 1), tau)
    assert eta.keys_sorted() == [(1, 1)]
    assert eta.star_degree() == 2
    u = FormalFunction(DS, DS.whole(), 2, 2, {(1, 1): {"a": 2},
                                               (0, 0): {"b": 7}})
    assert eta.pair(u) == QC(6)
    none = FormalDensity.monomial(DS, DS.whole(), 2, (1, 1),
                                  BaseDensity.discrete(DS, {}))
    assert none == FormalDensity.zero(DS, DS.whole(), 2)
    assert none.keys_sorted() == [] and none.star_degree() == 0


def test_ext_preserves_pairing_against_restriction():
    rng = random.Random(89)
    v = OpenSet(DS, ["a", "b", "c"])
    for _ in range(60):
        eta = rand_density(rng, v, 1, 2)
        u = rand_function(rng, DS.whole(), 1, 3)
        assert eta.ext(DS.whole()).pair(u) == eta.pair(u.restrict(v))


def test_cutoff_restrict_extends_back_to_module_action():
    rng = random.Random(97)
    v = OpenSet(DS, ["a", "b"])
    f = cutoff(DS, DS.whole(), 1, 3, ["a", "b"], ["a", "b"])
    for _ in range(40):
        eta = rand_density(rng, DS.whole(), 1, 2)
        cut = eta.cutoff_restrict(f, v)
        assert cut.domain == v
        assert cut.ext(DS.whole()) == eta.module_action(f)
    g = cutoff(DS, DS.whole(), 1, 3, ["a", "c"], ["a", "c"])
    with pytest.raises(SupportError):
        eta.cutoff_restrict(g, v)


def test_smooth_pairing_with_derivative_stack_is_exact_for_polynomials():
    u_set = SL.whole()
    tau = BaseDensity.smooth(SL, X, RSet.closed_pairs([(0, 1)]))
    eta = FormalDensity.monomial(SL, u_set, 1, (1,), tau, i=(1,))
    u = FormalFunction(SL, u_set, 1, 2, {(1,): pow_(X, 2)})
    # 1! * integral_0^1 x * d/dx(x^2) = 2/3, derivative taken symbolically
    assert eta.pair(u) == QC(Fraction(2, 3))
    assert eta.star_degree() == 1


def test_smooth_module_action_adjunction_is_exact_for_polynomials():
    u_set = OpenSet(SL, [(-2, 2)])
    tau = BaseDensity.smooth(SL, X, RSet.closed_pairs([(0, 1)]))
    eta = FormalDensity(SL, u_set, 1, {
        (0,): ((mi((1,)), tau),),
        (2,): ((mi((0,)), BaseDensity.smooth(SL, pow_(X, 2),
                                             RSet.closed_pairs([(-1, 1)]))),),
    })
    f = FormalFunction(SL, u_set, 1, 2, {(0,): pow_(X, 2), (1,): X})
    u = FormalFunction(SL, u_set, 1, 2, {(0,): X, (2,): pow_(X, 3)})
    assert eta.module_action(f).pair(u) == eta.pair(f.mul(u))


def test_smooth_ext_needs_compact_support():
    v = OpenSet(SL, [(-2, 2)])
    wide = FormalDensity.monomial(SL, v, 1, (0,),
                                  BaseDensity.smooth(SL, X, RSet.whole()))
    with pytest.raises(SupportError):
        wide.ext(SL.whole())
    escaping = FormalDensity.monomial(
        SL, v, 1, (0,),
        BaseDensity.smooth(SL, X, RSet.closed_pairs([(0, 3)])))
    with pytest.raises(SupportError):
        escaping.ext(SL.whole())
    inside = FormalDensity.monomial(
        SL, v, 1, (0,),
        BaseDensity.smooth(SL, X, RSet.closed_pairs([(0, 1)])))
    assert inside.ext(SL.whole()).domain == SL.whole()


def test_submultiindices():
    assert submultiindices((1, 2)) == [(0, 0), (0, 1), (0, 2),
                                       (1, 0), (1, 1), (1, 2)]
    assert submultiindices(()) == [()]


def test_json_roundtrip():
    rng = random.Random(101)
    eta = rand_density(rng, DS.whole(), 2, 2)
    back = FormalDensity.from_json(DS, DS.whole(), 2, eta.to_json())
    assert back == eta
    tau = BaseDensity.smooth(SL, pow_(X, 2), RSet.closed_pairs([(0, 1)]))
    sm = FormalDensity.monomial(SL, SL.whole(), 1, (1,), tau, i=(2,))
    back = FormalDensity.from_json(SL, SL.whole(), 1, sm.to_json())
    assert back == sm
    with pytest.raises(ValueError):
        FormalDensity.from_json(DS, DS.whole(), 1, {"trunc": 0})


def seeded_module_identity(seed):
    """(<eta . f, u>, <eta, f u>) on the line, with
    eta = (tau0 . d^2) + (tau1 . d^2) y*, bump-windowed quadratic
    weights and a supported u."""
    rng = random.Random(seed)

    def quadratic():
        c0, c1, c2 = (Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                               rng.randint(1, 3)) for _ in range(3))
        return add(add(c0, mul(c1, X)), mul(c2, pow_(X, 2)))

    def window(slot):
        lo = Fraction(-3) + Fraction(slot, 4)
        expr, supp, _ = bump(lo, lo + Fraction(5, 8), lo + Fraction(15, 8),
                             lo + Fraction(5, 2))
        return expr, supp
    dom = OpenSet(SL, [(-4, 4)])
    slot = rng.randint(1, 7)
    bt, st = window(slot)
    bu, su = window(slot + rng.randint(-1, 1))
    tau0, tau1 = (BaseDensity.smooth(SL, mul(bt, quadratic()), st)
                  for _ in range(2))
    u = SupportedFormalFunction(SL, dom, 1, 1, {
        (0,): mul(bu, quadratic()), (1,): mul(bu, quadratic())}, support=su)
    n = mi((2,))
    eta = FormalDensity(SL, dom, 1, {(0,): ((n, tau0),), (1,): ((n, tau1),)})
    f = FormalFunction(SL, dom, 1, 1, {(0,): quadratic(), (1,): quadratic()})
    return eta.module_action(f).pair(u), eta.pair(f.mul(u))


def test_smooth_module_identity_at_x_order_two():
    # only a derivative stack of order 2 or more weighs the binomial
    # C(I, I') of the Leibniz expansion
    for seed in (0, 2, 3):
        lhs, rhs = seeded_module_identity(seed)
        assert abs(complex(lhs) - complex(rhs)) <= 1e-8


def test_the_module_identity_sees_a_dropped_binomial(monkeypatch):
    monkeypatch.setattr(densities, "mi_binom", lambda m, s: 1)
    for seed in (0, 2, 3):
        lhs, rhs = seeded_module_identity(seed)
        assert abs(complex(lhs) - complex(rhs)) > 1
