"""Formal functions: truncated y-polynomials with base coefficients."""

import random
from fractions import Fraction

import pytest

from formalcalc.errors import (BackendError, DomainMismatchError, SupportError,
                               TruncationError)
from formalcalc.expr import Const, X, bump, pow_
from formalcalc.functions import (FormalFunction, SupportedFormalFunction,
                                  cutoff, cutoff_product)
from formalcalc.multiindex import degree, enumerate_upto, mi_factorial
from formalcalc.scalars import QC
from formalcalc.spaces import Discrete, OpenSet, RSet, SmoothLine

DS = Discrete(["a", "b", "c", "d"])
SL = SmoothLine()


def rand_function(rng, space, domain, k, trunc):
    coeffs = {}
    for j in enumerate_upto(k, trunc):
        if rng.random() < 0.3:
            continue
        c = {p: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for p in sorted(domain.region) if rng.random() < 0.7}
        coeffs[j] = c
    return FormalFunction(space, domain, k, trunc, coeffs)


def brute_product(u, v, trunc):
    """Per-point convolution of y-polynomials, independent of mul()."""
    out = {}
    for j1, c1 in u.coeffs.items():
        for j2, c2 in v.coeffs.items():
            j = tuple(a + b for a, b in zip(j1, j2))
            if degree(j) > trunc:
                continue
            for p in set(c1) & set(c2):
                out[(j, p)] = out.get((j, p), QC(0)) + c1[p] * c2[p]
    return {key: val for key, val in out.items() if val}


def test_construction_validates():
    u = DS.whole()
    with pytest.raises(TruncationError):
        FormalFunction(DS, u, 1, 1, {(2,): {"a": 1}})
    with pytest.raises(ValueError):
        FormalFunction(DS, u, 2, 1, {(1,): {"a": 1}})
    with pytest.raises(DomainMismatchError):
        FormalFunction(DS, OpenSet(DS, ["a"]), 1, 1, {(0,): {"b": 1}})
    with pytest.raises(ValueError):
        FormalFunction(DS, u, 1, -1)
    with pytest.raises(DomainMismatchError):
        FormalFunction(DS, SL.whole(), 1, 1)
    # zero coefficients are dropped, zero function has no keys
    f = FormalFunction(DS, u, 1, 2, {(1,): {"a": 0}})
    assert f.is_exactly_zero()
    assert FormalFunction.zero(DS, u, 1, 2).coeffs == {}


def test_add_and_mul_truncate_to_minimum_guarantee():
    u = DS.whole()
    a = FormalFunction(DS, u, 1, 3, {(3,): {"a": 1}, (0,): {"a": 1}})
    b = FormalFunction(DS, u, 1, 1, {(1,): {"a": 2}})
    s = a.add(b)
    assert s.trunc == 1
    assert s.coeff((0,)) == {"a": QC(1)}
    assert s.coeff((3,)) == {}
    p = a.mul(b)
    assert p.trunc == 1
    assert p.coeff((1,)) == {"a": QC(2)}


def test_cauchy_product_matches_convolution_oracle():
    rng = random.Random(41)
    for _ in range(120):
        k = rng.randint(1, 2)
        t1, t2 = rng.randint(0, 3), rng.randint(0, 3)
        u = rand_function(rng, DS, DS.whole(), k, t1)
        v = rand_function(rng, DS, DS.whole(), k, t2)
        got = u.mul(v)
        want = brute_product(u, v, min(t1, t2))
        flat = {(j, p): val for j, c in got.coeffs.items()
                for p, val in c.items()}
        assert flat == want


def test_mul_commutes_and_distributes():
    rng = random.Random(43)
    for _ in range(60):
        u = rand_function(rng, DS, DS.whole(), 1, 2)
        v = rand_function(rng, DS, DS.whole(), 1, 2)
        w = rand_function(rng, DS, DS.whole(), 1, 2)
        assert u.mul(v) == v.mul(u)
        assert u.mul(v.add(w)) == u.mul(v).add(u.mul(w))
        one = FormalFunction.constant(DS, DS.whole(), 1, 2)
        assert u.mul(one) == u


def test_scale_and_domain_checks():
    u = rand_function(random.Random(47), DS, DS.whole(), 1, 2)
    half = u.scale(Fraction(1, 2))
    for j, c in u.coeffs.items():
        for p, v in c.items():
            assert half.coeff(j)[p] == v * QC(Fraction(1, 2))
    other = FormalFunction.zero(DS, OpenSet(DS, ["a"]), 1, 2)
    with pytest.raises(DomainMismatchError):
        u.add(other)


def test_restrict_discrete_drops_outside_labels():
    u = FormalFunction(DS, DS.whole(), 1, 1, {(0,): {"a": 1, "c": 2}})
    v = OpenSet(DS, ["a", "b"])
    r = u.restrict(v)
    assert r.domain == v
    assert r.coeff((0,)) == {"a": QC(1)}
    with pytest.raises(DomainMismatchError):
        r.restrict(OpenSet(DS, ["a", "c"]))


def test_ev_reads_the_y_constant_coefficient():
    u = FormalFunction(DS, DS.whole(), 1, 2, {(0,): {"a": 3}, (1,): {"a": 7}})
    assert u.ev("a") == QC(3)
    assert u.ev("b") == QC(0)
    with pytest.raises(DomainMismatchError):
        u.restrict(OpenSet(DS, ["a"])).ev("b")


def test_jet_discrete_is_factorial_times_coefficient():
    rng = random.Random(53)
    for _ in range(60):
        k = rng.randint(1, 2)
        u = rand_function(rng, DS, DS.whole(), k, 3)
        for j in enumerate_upto(k, 3):
            for p in DS.points:
                want = mi_factorial(j) * u.coeff(j).get(p, QC(0))
                assert u.jet(p, (), j) == want
    u = rand_function(rng, DS, DS.whole(), 1, 2)
    with pytest.raises(TruncationError):
        u.jet("a", (), (3,))
    with pytest.raises(BackendError):
        u.jet("a", (1,), (0,))


def test_jet_smooth_takes_x_derivatives():
    u = FormalFunction(SL, SL.whole(), 1, 2, {(2,): pow_(X, 3)})
    # 2! * d^2/dx^2 x^3 = 2 * 6x
    assert u.jet(Fraction(1, 2), (2,), (2,)) == QC(6)
    assert u.jet(Fraction(0), (0,), (2,)) == QC(0)
    with pytest.raises(ValueError):
        u.jet(Fraction(0), (0,), (1, 1))


def test_json_roundtrip_both_backends():
    rng = random.Random(59)
    u = rand_function(rng, DS, DS.whole(), 2, 2)
    back = FormalFunction.from_json(DS, DS.whole(), 2, u.to_json())
    assert back == u
    v = FormalFunction(SL, SL.whole(), 1, 2,
                       {(0,): pow_(X, 2), (2,): Const(Fraction(1, 2))})
    back = FormalFunction.from_json(SL, SL.whole(), 1, v.to_json())
    assert back == v
    with pytest.raises(ValueError):
        FormalFunction.from_json(DS, DS.whole(), 1, {"coeffs": {}})


def test_supported_function_infers_discrete_support():
    f = SupportedFormalFunction(DS, DS.whole(), 1, 1,
                                {(0,): {"a": 1}, (1,): {"b": 2}})
    assert f.support == frozenset({"a", "b"})
    with pytest.raises(SupportError):
        SupportedFormalFunction(DS, DS.whole(), 1, 1, {(0,): {"a": 1}},
                                support=frozenset({"b"}))
    with pytest.raises(SupportError):
        SupportedFormalFunction(SL, SL.whole(), 1, 1, {(0,): X})


def test_supported_function_restrict_intersects_support():
    f = SupportedFormalFunction(DS, DS.whole(), 1, 1, {(0,): {"a": 1, "c": 1}})
    r = f.restrict(OpenSet(DS, ["a", "b"]))
    assert r.support == frozenset({"a"})


def test_extend_by_zero_checks():
    small = OpenSet(DS, ["a", "b"])
    f = SupportedFormalFunction(DS, small, 1, 1, {(0,): {"a": 1}})
    g = f.ext(DS.whole())
    assert g.domain == DS.whole()
    assert g.coeff((0,)) == {"a": QC(1)}
    with pytest.raises(DomainMismatchError):
        f.ext(OpenSet(DS, ["a"]))
    # a smooth witness must be compact to extend
    u = OpenSet(SL, [(-5, 5)])
    h = cutoff(SL, u, 1, 1, RSet.closed_pairs([(0, 0)]),
               RSet.closed_pairs([(-1, 1)]))
    wide = SupportedFormalFunction(SL, u, 1, 1, h.coeffs,
                                   support=RSet.closed_pairs([(0, float("inf"))]))
    with pytest.raises(SupportError):
        wide.ext(SL.whole())


def test_indicator_cutoff_and_product():
    f = cutoff(DS, DS.whole(), 1, 2, ["a", "b"], ["a", "b"])
    assert f.plateau == frozenset({"a", "b"})
    assert f.ev("a") == QC(1)
    assert f.ev("c") == QC(0)
    u = FormalFunction(DS, DS.whole(), 1, 2, {(0,): {"a": 2, "c": 3}, (1,): {"b": 5}})
    p = cutoff_product(f, u)
    assert p.coeff((0,)) == {"a": QC(2)}
    assert p.coeff((1,)) == {"b": QC(5)}
    assert p.support == frozenset({"a", "b"})
    with pytest.raises(SupportError):
        cutoff(DS, OpenSet(DS, ["a"]), 1, 1, ["b"], ["b"])
    with pytest.raises(BackendError):
        cutoff(SL, SL.whole(), 1, 1, ["a"], ["a"])


def test_bump_cutoff_plateau_is_exactly_one():
    u = OpenSet(SL, [(-3, 3)])
    f = cutoff(SL, u, 1, 2, RSet.closed_pairs([(-1, 1)]),
               RSet.closed_pairs([(-2, 2)]))
    assert f.support == RSet.closed_pairs([(-2, 2)])
    assert f.plateau == RSet.closed_pairs([(-1, 1)])
    assert f.ev(Fraction(0)) == 1
    assert f.ev(Fraction(5, 2)) == QC(0)
    with pytest.raises(SupportError):
        cutoff(SL, OpenSet(SL, [(-1, 1)]), 1, 1, RSet.closed_pairs([(-1, 1)]),
               RSet.closed_pairs([(-2, 2)]))
    with pytest.raises(BackendError):
        cutoff(DS, DS.whole(), 1, 1, RSet.closed_pairs([(-1, 1)]),
               RSet.closed_pairs([(-2, 2)]))


def test_cutoff_is_the_backend_coefficient_on_its_regions():
    rng = random.Random(41)
    for _ in range(40):
        a, b, c, d = sorted(Fraction(rng.randint(-40, 40), rng.randint(1, 4))
                            for _ in range(4))
        if not a < b < c < d:
            continue
        f = cutoff(SL, SL.whole(), 1, 2, RSet.closed_pairs([(b, c)]),
                   RSet.closed_pairs([(a, d)]))
        e, supp, plateau = bump(a, b, c, d)
        assert list(f.coeffs) == [(0,)] and f.coeffs[(0,)] is e
        assert (f.support, f.plateau) == (supp, plateau)
        labels = [p for p in DS.points if rng.randint(0, 1)]
        f = cutoff(DS, DS.whole(), 1, 2, labels, labels)
        assert f.coeffs == ({(0,): {p: QC(1) for p in labels}} if labels
                            else {})
        assert f.support == f.plateau == frozenset(labels)
    with pytest.raises(SupportError):
        cutoff(DS, DS.whole(), 1, 1, ["a", "b"], ["a"])
    with pytest.raises(SupportError):
        cutoff(SL, SL.whole(), 1, 1, RSet.closed_pairs([(-1, 3)]),
               RSet.closed_pairs([(-2, 2)]))
    with pytest.raises(SupportError):
        cutoff(SL, OpenSet(SL, [(-2, 2)]), 1, 1, RSet.closed_pairs([(-1, 1)]),
               RSet.closed_pairs([(-2, 2)]))
    for plateau in (RSet.closed_pairs([(-1, 0), (Fraction(1, 2), 1)]),
                    RSet.open_pairs([(-1, 1)]), RSet()):
        with pytest.raises(ValueError):
            cutoff(SL, SL.whole(), 1, 1, plateau, RSet.closed_pairs([(-2, 2)]))
    with pytest.raises(BackendError):
        cutoff(SL, SL.whole(), 1, 1, ["a"], ["a", "b"])
    with pytest.raises(BackendError):
        cutoff(DS, DS.whole(), 1, 1, RSet.closed_pairs([(-1, 1)]),
               RSet.closed_pairs([(-2, 2)]))


def test_cutoff_product_smooth_keeps_witness():
    u = OpenSet(SL, [(-3, 3)])
    f = cutoff(SL, SL.whole(), 1, 2, RSet.closed_pairs([(-1, 1)]),
               RSet.closed_pairs([(-2, 2)]))
    g = FormalFunction(SL, u, 1, 2, {(0,): X, (2,): Const(1)})
    p = cutoff_product(f, g)
    assert p.domain == SL.whole()
    assert p.support == RSet.closed_pairs([(-2, 2)])
    assert p.ev(Fraction(0)) == QC(0)  # x * 1 at 0
    with pytest.raises(SupportError):
        cutoff_product(f, FormalFunction(SL, OpenSet(SL, [(-1, 1)]), 1, 2, {(0,): X}))
