"""The coefficient algebra each base space supplies, and the Leibniz
expansion shared by module actions and operator composition."""

import random
from fractions import Fraction

import pytest

from formalcalc.basedensity import BaseDensity
from formalcalc.diffops import DensityDiffOp
from formalcalc.errors import BackendError
from formalcalc.expr import X, Const, bump, mul, pow_
from formalcalc.functions import FormalFunction
from formalcalc.multiindex import enumerate_upto, mi
from formalcalc.scalars import QC
from formalcalc.spaces import Discrete, SmoothLine

DS = Discrete(["a", "b", "c", "d"])
SL = SmoothLine()


def rand_weights(rng):
    return {p: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for p in DS.points if rng.random() < 0.6}


def test_precompose_then_rho_is_rho_then_module_action():
    # both sides expand the same Leibniz terms; on the discrete backend
    # the canonical forms must agree exactly
    rng = random.Random(401)
    for _ in range(150):
        k = rng.randint(1, 2)
        star = rng.randint(0, 2)
        terms = {}
        for l in enumerate_upto(k, star):
            tau = BaseDensity.discrete(DS, rand_weights(rng))
            if rng.random() < 0.7 and not tau.is_exactly_zero():
                terms[(mi(()), l)] = tau
        op = DensityDiffOp(DS, DS.whole(), k, terms)
        coeffs = {j: rand_weights(rng)
                  for j in enumerate_upto(k, rng.randint(star, 3))
                  if rng.random() < 0.7}
        f = FormalFunction(DS, DS.whole(), k, max(star, 3), coeffs)
        assert op.precompose_function(f).rho() == op.rho().module_action(f)


def _sample(space):
    if space == DS:
        return {"a": QC(Fraction(1, 2)), "c": QC(-3)}
    e, _, _ = bump(0, 1, 2, 3)
    return mul(e, pow_(X, 2))


@pytest.mark.parametrize("space", [DS, SL], ids=["discrete", "smoothline"])
def test_coefficient_backend_laws(space):
    c = _sample(space)
    assert space.from_json(space.to_json(c)) == c
    zero = space.zero()
    assert space.is_zero(zero)
    assert space.add(c, zero) == c and space.add(zero, c) == c
    assert space.is_zero(space.scale(c, 0))
    assert space.is_zero(space.mul(c, zero))
    assert space.diff(c, 0) == c
    if space == DS:
        with pytest.raises(BackendError):
            space.diff(c, 1)
    else:
        assert space.diff(pow_(X, 2), 1) == mul(Const(2), X)


# -- the sparse discrete algebra against a dense sum over every label ---------

D8 = Discrete(["p%d" % i for i in range(8)])


def _rand_qc(rng):
    def part():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    re, im = part(), part() if rng.random() < 0.5 else 0
    return QC(re, im) if re or im else QC(1)


def _sparse_pair(rng, overlap):
    """Two weight maps on D8 with disjoint, overlapping or equal supports."""
    labels = list(D8.points)
    rng.shuffle(labels)
    if overlap == "disjoint":
        cut = rng.randint(0, 8)
        sa, sb = labels[:cut], labels[cut:]
        sa, sb = sa[:rng.randint(0, len(sa))], sb[:rng.randint(0, len(sb))]
    elif overlap == "equal":
        sa = sb = labels[:rng.randint(0, 8)]
    else:
        sa = labels[:rng.randint(1, 6)]
        sb = labels[rng.randint(0, len(sa) - 1):rng.randint(len(sa), 8)]
    return ({p: _rand_qc(rng) for p in sa}, {p: _rand_qc(rng) for p in sb})


def _dense_product(a, b, p):
    # schoolbook parts of a(p) * b(p), a missing label counting as 0
    (ar, ai), (br, bi) = [(c[p].re, c[p].im) if p in c
                          else (Fraction(0), Fraction(0)) for c in (a, b)]
    return ar * br - ai * bi, ar * bi + ai * br


@pytest.mark.parametrize("overlap", ["disjoint", "overlapping", "equal"])
def test_discrete_pair_mul_integrate_match_dense_sums(overlap):
    rng = random.Random("dense/" + overlap)
    for _ in range(200):
        a, b = _sparse_pair(rng, overlap)
        if overlap == "disjoint":
            assert not a.keys() & b.keys()
        elif overlap == "equal":
            assert a.keys() == b.keys()
        dense = {p: _dense_product(a, b, p) for p in D8.points}
        got, = D8.integrate_all([(D8.mul(a, b), D8.whole().region)])
        assert (got.re, got.im) == (sum(v[0] for v in dense.values()),
                                    sum(v[1] for v in dense.values()))
        prod = D8.mul(a, b)
        assert {p: (v.re, v.im) for p, v in prod.items()} == {
            p: v for p, v in dense.items() if v != (0, 0)}
        assert all(prod.values())
        region = frozenset(p for p in D8.points if rng.random() < 0.5)
        total, = D8.integrate_all([(a, region)])
        assert (total.re, total.im) == (
            sum((a[p].re for p in region if p in a), Fraction(0)),
            sum((a[p].im for p in region if p in a), Fraction(0)))
