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
