"""Base densities: discrete weight maps and smooth expression densities."""

import random
from fractions import Fraction

import pytest

from formalcalc.basedensity import BaseDensity
from formalcalc.errors import BackendError, DomainMismatchError
from formalcalc.expr import ONE, X, Const, bump, mul, pow_
from formalcalc.scalars import QC
from formalcalc.spaces import Discrete, OpenSet, RSet, SmoothLine

DS = Discrete(["a", "b", "c", "d"])
SL = SmoothLine()


def rand_weights(rng):
    return {p: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for p in DS.points if rng.random() < 0.7}


def test_discrete_construction_drops_zeros_and_checks_labels():
    d = BaseDensity.discrete(DS, {"a": 1, "b": 0, "c": Fraction(-1, 2)})
    assert d.weights == {"a": QC(1), "c": QC(Fraction(-1, 2))}
    assert d.support == frozenset({"a", "c"})
    with pytest.raises(DomainMismatchError):
        BaseDensity.discrete(DS, {"z": 1})


def test_discrete_algebra_matches_dict_oracle():
    rng = random.Random(31)
    for _ in range(200):
        wa, wb = rand_weights(rng), rand_weights(rng)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        a = BaseDensity.discrete(DS, wa)
        b = BaseDensity.discrete(DS, wb)
        got = a.add(b).scale(c)
        for p in DS.points:
            want = (wa.get(p, Fraction(0)) + wb.get(p, Fraction(0))) * c
            assert got.weights.get(p, QC(0)) == QC(want)


def test_discrete_mul_coeff():
    d = BaseDensity.discrete(DS, {"a": 2, "b": 3})
    f = {"a": QC(Fraction(1, 2)), "c": QC(7)}
    got = d.mul_coeff(f)
    assert got.weights == {"a": QC(1)}


def test_discrete_integrate_sums_over_open_set():
    d = BaseDensity.discrete(DS, {"a": 1, "b": Fraction(1, 2), "d": -2})
    u = OpenSet(DS, ["a", "b", "c"])
    assert d.integrate(u) == QC(Fraction(3, 2))
    assert d.integrate(DS.whole()) == QC(Fraction(-1, 2))
    assert d.restrict(u).weights == {"a": QC(1), "b": QC(Fraction(1, 2))}
    with pytest.raises(DomainMismatchError):
        d.integrate(SL.whole())


def test_discrete_has_no_x_derivative():
    with pytest.raises(BackendError):
        BaseDensity.discrete(DS, {"a": 1}).diff()


def test_discrete_json_roundtrip():
    d = BaseDensity.discrete(DS, {"a": Fraction(1, 3), "c": -2})
    back = BaseDensity.from_json(DS, d.to_json())
    assert back == d
    with pytest.raises(ValueError):
        BaseDensity.from_json(DS, [1, 2])


def test_smooth_polynomial_integral_is_exact_and_clipped_to_witness():
    # integration clips to the stated support witness
    d = BaseDensity.smooth(SL, ONE, RSet.closed_pairs([(0, 2)]))
    assert d.integrate(SL.whole()) == QC(2)
    u = OpenSet(SL, [(1, 10)])
    assert d.integrate(u) == QC(1)


def test_smooth_restrict_intersects_bound():
    d = BaseDensity.smooth(SL, X, RSet.closed_pairs([(-1, 3)]))
    r = d.restrict(OpenSet(SL, [(0, 2)]))
    assert r.bound == RSet.open_pairs([(0, 2)])
    assert r.integrate(SL.whole()) == QC(2)


def test_smooth_add_unions_witnesses():
    # summands genuinely vanish outside their witnesses, so the sum of
    # expressions over the union witness is the pointwise sum
    ea, sa, _ = bump(0, 1, 1, 2)
    eb, sb, _ = bump(4, 5, 5, 6)
    a = BaseDensity.smooth(SL, ea, sa)
    b = BaseDensity.smooth(SL, eb, sb)
    s = a.add(b)
    assert s.bound == sa.union(sb)
    ia = a.integrate(SL.whole())
    ib = b.integrate(SL.whole())
    assert abs(s.integrate(SL.whole()) - (ia + ib)) < 1e-9
    left = OpenSet(SL, [(-10, 3)])
    assert abs(s.integrate(left) - ia) < 1e-9
    assert BaseDensity.zero(SL).add(b) == b
    assert a.add(BaseDensity.zero(SL)) == a


def test_smooth_scale_and_mul_coeff():
    d = BaseDensity.smooth(SL, X, RSet.closed_pairs([(0, 1)]))
    assert d.scale(QC(Fraction(0))).is_exactly_zero()
    assert d.scale(2).integrate(SL.whole()) == QC(1)
    assert d.mul_coeff(X).integrate(SL.whole()) == QC(Fraction(1, 3))
    assert d.mul_coeff(Const(0)).is_exactly_zero()
    # scaling is multiplying by the constant: a zero coefficient gives
    # the zero density, its witness dropped, whatever the scalar
    z = BaseDensity.smooth(SL, Const(0), RSet.closed_pairs([(0, 1)]))
    assert z.scale(2) == z.mul_coeff(Const(2)) == BaseDensity.zero(SL)


def test_smooth_diff_of_polynomial():
    d = BaseDensity.smooth(SL, pow_(X, 3), RSet.closed_pairs([(0, 2)]))
    assert d.diff().integrate(SL.whole()) == QC(8)
    assert d.diff(2).integrate(SL.whole()) == QC(12)


def test_smooth_bump_density_quadrature():
    e, supp, _ = bump(-2, -1, 1, 2)
    d = BaseDensity.smooth(SL, mul(e, X), supp)
    got = d.integrate(SL.whole())
    assert abs(got) < 1e-9  # odd integrand
    half = d.integrate(OpenSet(SL, [(0, 5)]))
    assert half.real > 0.5


def test_smooth_zero_checks():
    assert BaseDensity.zero(SL).is_exactly_zero()
    assert BaseDensity.smooth(SL, X, RSet()).is_exactly_zero()
    assert not BaseDensity.smooth(SL, X, RSet.point(Fraction(1))).weights


def test_smooth_json_roundtrip():
    e, supp, _ = bump(0, 1, 1, 2)
    d = BaseDensity.smooth(SL, e, supp)
    back = BaseDensity.from_json(SL, d.to_json())
    assert back == d
    with pytest.raises(ValueError):
        BaseDensity.from_json(SL, {"expr": "x"})
