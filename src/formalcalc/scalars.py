"""Exact complex rational scalars.

The discrete backend and the exact evaluation paths of the smooth
backend produce QC values: Gaussian rationals (n + m i)/d held as one
integer triple. QC's operators hold the package's one mixing rule: a
QC with a QC, an int or a Fraction stays exact, and a QC with a float
or a complex is complex arithmetic on complex(QC). Point-term
coefficients, which are QC or complex, meet through these operators
and nowhere else, so exactness is preserved by construction exactly
as long as every operand is exact.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

_HASH_IMAG = sys.hash_info.imag
_HASH_MASK = (1 << sys.hash_info.width) - 1


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError("rational %r has a zero denominator" % v) from None
    if isinstance(v, float):
        # read floats through their decimal string so JSON literals like
        # 0.1 mean 1/10, not the nearest binary double
        return Fraction(str(v))
    raise TypeError("cannot interpret %r as a rational" % (v,))


class QC:
    """Complex number (n + m i)/d with integer n, m and d.

    The triple is canonical: d > 0 and gcd(n, m, d) == 1, so two QCs
    are equal exactly when their triples are, and each operator is
    integer arithmetic with one gcd per result (Henrici, JACM 3(1),
    1956; Knuth, TAOCP Vol. 2, 4.5.1). The parts re and im are
    Fractions, built on first read and then kept.

    A QC is never mutated, so arithmetic may return an operand as its
    result: adding zero or multiplying by 1 gives the other operand
    back, and multiplying by zero gives QC_ZERO.
    """

    __slots__ = ("n", "m", "d", "_re", "_im")

    def __init__(self, re=0, im=0):
        re, im = _frac(re), _frac(im)
        b, e = re.denominator, im.denominator
        n, m, d = re.numerator * e, im.numerator * b, b * e
        g = gcd(n, m, d)
        self.n, self.m, self.d = n // g, m // g, d // g

    @property
    def re(self) -> Fraction:
        try:
            return self._re
        except AttributeError:
            self._re = r = Fraction(self.n, self.d)
            return r

    @property
    def im(self) -> Fraction:
        try:
            return self._im
        except AttributeError:
            self._im = r = Fraction(self.m, self.d)
            return r

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not QC:
            if not isinstance(other, (int, Fraction)):
                return complex(self) + other
            other = _lift(other)
        a, b, c = self.n, self.m, self.d
        n, m, d = other.n, other.m, other.d
        if not (n or m):
            return self
        if not (a or b):
            return other
        return qc_triple(a * d + n * c, b * d + m * c, c * d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not QC:
            if not isinstance(other, (int, Fraction)):
                return complex(self) * other
            other = _lift(other)
        a, b, c = self.n, self.m, self.d
        n, m, d = other.n, other.m, other.d
        if not (a or b) or not (n or m):
            return QC_ZERO
        if n == d and not m:
            return self
        return qc_triple(a * n - b * m, a * m + b * n, c * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not QC:
            if not isinstance(other, (int, Fraction)):
                return complex(self) / other
            other = _lift(other)
        n, m, d = other.n, other.m, other.d
        if not (n or m):
            raise ZeroDivisionError("division by exact zero")
        a, b = self.n, self.m
        return qc_triple(d * (a * n + b * m), d * (b * n - a * m),
                        self.d * (n * n + m * m))

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _lift(other) / self
        return other / complex(self)

    def __neg__(self):
        return _make(-self.n, -self.m, self.d)

    def __pos__(self):
        return self

    # -- comparisons and conversions -----------------------------------

    def __eq__(self, other):
        if other.__class__ is not QC and isinstance(other, (int, Fraction)):
            other = _lift(other)
        if other.__class__ is QC:
            return (self.n == other.n and self.m == other.m
                    and self.d == other.d)
        if isinstance(other, (float, complex)):
            return self.re == other.real and self.im == other.imag
        return NotImplemented

    def __hash__(self):
        # mirror Python's numeric hash so QC(3) hashes like 3 and
        # QC(1, 2) hashes like complex(1, 2), whose sum wraps to a
        # signed machine word
        h = (hash(self.re) + _HASH_IMAG * hash(self.im)) & _HASH_MASK
        if h > _HASH_MASK >> 1:
            h -= _HASH_MASK + 1
        return -2 if h == -1 else h

    def __bool__(self):
        return bool(self.n or self.m)

    def __abs__(self):
        return abs(complex(self))

    def __complex__(self):
        # int / int is correctly rounded, so this is float() of each
        # reduced part
        return complex(self.n / self.d, self.m / self.d)

    def __repr__(self):
        if not self.m:
            return "QC(%s)" % (self.re,)
        return "QC(%s, %s)" % (self.re, self.im)

    def __str__(self):
        if not self.m:
            return rat_str(self.re)
        sign = "-" if self.m < 0 else "+"
        return "%s%s%si" % (rat_str(self.re), sign, rat_str(abs(self.im)))

    @property
    def is_real(self) -> bool:
        return not self.m


_new = object.__new__


def _make(n: int, m: int, d: int) -> QC:
    """Trusted constructor: (n, m, d) is already canonical."""
    v = _new(QC)
    v.n, v.m, v.d = n, m, d
    return v


def qc_triple(n: int, m: int, d: int) -> QC:
    """The QC (n + m i)/d, for ints with d > 0."""
    g = gcd(n, m, d)
    return _make(n // g, m // g, d // g)


def _lift(v) -> QC:
    """An int or a Fraction as a QC."""
    if isinstance(v, int):
        return _make(v, 0, 1)
    return _make(v.numerator, 0, v.denominator)


QC_ZERO = QC(0)
QC_ONE = QC(1)


def qc_map_add(a: dict, b: dict) -> dict:
    """a + b of sparse maps key -> nonzero QC; a cancelled key is dropped."""
    out = dict(a)
    for key, v in b.items():
        w = out.get(key, QC_ZERO) + v
        if w:
            out[key] = w
        elif key in out:
            del out[key]
    return out


def qc_map_mul(a: dict, b: dict, times) -> dict:
    """a * b of sparse maps key -> nonzero QC, where times(ka, kb) is
    the key of a product of terms; a cancelled key is dropped."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = times(ka, kb)
            w = out.get(key, QC_ZERO) + va * vb
            if w:
                out[key] = w
            elif key in out:
                del out[key]
    return out


def qc(v) -> QC:
    """Coerce an exact value (int, Fraction, str, pair, QC) to QC."""
    if isinstance(v, QC):
        return v
    if isinstance(v, (int, Fraction)):
        return _lift(v)
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise TypeError("complex literal needs exactly two entries")
        return QC(_frac(v[0]), _frac(v[1]))
    return QC(_frac(v))


def rat_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


def rat_from_json(v) -> Fraction:
    """Rational from a JSON literal: int, 'p/q' string, or decimal float."""
    return _frac(v)


def rat_to_json(f: Fraction):
    if f.denominator == 1:
        return f.numerator
    return rat_str(f)


def qc_from_json(v) -> QC:
    """QC from a JSON literal: number, 'p/q', or [re, im] pair."""
    return qc(v)


def qc_to_json(v: QC):
    if v.im == 0:
        return rat_to_json(v.re)
    return [rat_to_json(v.re), rat_to_json(v.im)]
