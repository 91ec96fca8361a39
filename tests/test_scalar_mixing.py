"""Point-term arithmetic against the mixing rule it used to spell out.

Point-term coefficients are QC or complex values. They are multiplied
by ints, QC values and flattened mpmath values, added to each other and
tested for zero through QC's and complex's own operators. The three
functions below are that rule as distributions.py once wrote it, kept
as the oracle: the operators must give the same value, of the same
type, with the same bits (signed zeros, infinities and NaNs included).
"""

import math
import random
import struct
from fractions import Fraction

import mpmath

from formalcalc.distributions import BaseDistribution, PointTerm, _fin
from formalcalc.scalars import QC
from formalcalc.spaces import SmoothLine


def _scalar_mul(a, b):
    if isinstance(a, QC) and isinstance(b, QC):
        return a * b
    if isinstance(a, QC) and isinstance(b, int):
        return a * b
    if isinstance(b, QC) and isinstance(a, int):
        return b * a
    return complex(a) * complex(b)


def _scalar_add(a, b):
    if isinstance(a, QC) and isinstance(b, QC):
        return a + b
    return complex(a) + complex(b)


def _is_zero_scalar(c) -> bool:
    if isinstance(c, QC):
        return not c
    return c == 0


def _frac(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def _part(rng):
    return rng.choice([0.0, -0.0, math.inf, -math.inf, 1e-310,
                       rng.uniform(-5, 5), rng.uniform(-1e300, 1e300)])


def _coefficient(rng):
    """A point-term coefficient: QC (zero, real, complex) or complex."""
    kind = rng.randrange(4)
    if kind == 0:
        return QC(0)
    if kind == 1:
        return QC(_frac(rng))
    if kind == 2:
        return QC(_frac(rng), _frac(rng))
    return complex(_part(rng), _part(rng))


def _factor(rng):
    """(what the rule was given, what the operators are given): a
    coefficient, an int, or an mpmath value that _fin flattens."""
    kind = rng.randrange(4)
    if kind == 0:
        c = _coefficient(rng)
        return c, c
    if kind == 1:
        n = rng.choice([0, 1, -2])
        return n, n
    v = (mpmath.mpf(rng.uniform(-5, 5)) if kind == 2 else
         mpmath.mpc(rng.uniform(-5, 5), rng.choice([0, -0.0, 1.5])))
    return v, _fin(v)


def _bits(v):
    """A value's type and exact content, with floats as their bytes."""
    if isinstance(v, QC):
        return QC, v.re, v.im
    return type(v), struct.pack("<dd", v.real, v.imag)


def test_operators_match_the_mixing_rule_bit_for_bit():
    rng = random.Random(20261018)
    for _ in range(4000):
        a = _coefficient(rng)
        raw, given = _factor(rng)
        product = a * given
        assert _bits(product) == _bits(_scalar_mul(a, raw)), (a, raw)
        # the rule delegates these to QC, which must keep them exact
        if isinstance(a, QC) and isinstance(raw, (QC, int)):
            assert isinstance(product, QC), (a, raw)
        b = _coefficient(rng)
        total = a + b
        assert _bits(total) == _bits(_scalar_add(a, b)), (a, b)
        for v in (a, product, total):
            assert (not v) == _is_zero_scalar(v), v


def test_point_term_scale_multiplies_by_the_scalar_as_given():
    # an int or a Fraction keeps the coefficient exact, and an mpmath
    # scalar (which the rule flattened) gives a complex, as a float does
    third = Fraction(1, 3)
    w = BaseDistribution(SmoothLine(), terms=[PointTerm(0, 0, third)])
    for s, want in ((-2, QC(-2 * third)), (Fraction(1, 2), QC(third / 2)),
                    (0.5, complex(QC(third)) * 0.5),
                    (mpmath.mpf(2), complex(QC(third)) * 2)):
        c = w.scale(s).terms[0].c
        assert type(c) is type(want) and c == want, s


def _operand(rng):
    """Anything QC subtraction meets: exact (int, Fraction, QC) or
    inexact (float, complex, mpmath), signed zeros and non-finite
    values included."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice([0, 1, -3, 10 ** 20])
    if kind == 1:
        return _frac(rng)
    if kind == 2:
        return rng.choice([math.nan, _part(rng)])
    if kind == 3:
        return mpmath.mpf(_part(rng))
    if kind == 4:
        return mpmath.mpc(rng.uniform(-5, 5), rng.choice([0, -0.0, 1.5]))
    return _coefficient(rng)


def _exact(v):
    return type(v), v.n, v.m, v.d


def _inexact(v):
    """The type and the repr of each part, so that signed zeros count."""
    return type(v), repr(v.real), repr(v.imag)


def test_subtraction_mixes_as_addition_does_both_ways():
    rng = random.Random(20261021)
    for _ in range(6000):
        a, b = _coefficient(rng), _operand(rng)
        if not isinstance(a, QC):
            continue
        if isinstance(b, (int, Fraction, QC)):
            br, bi = (b.re, b.im) if isinstance(b, QC) else (b, 0)
            for got, want in ((a - b, QC(a.re - br, a.im - bi)),
                              (b - a, QC(br - a.re, bi - a.im))):
                assert _exact(got) == _exact(want), (a, b)
        else:
            assert _inexact(a - b) == _inexact(complex(a) - b), (a, b)
            assert _inexact(b - a) == _inexact(b - complex(a)), (a, b)
