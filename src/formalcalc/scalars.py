"""Exact complex rational scalars.

The discrete backend and the exact evaluation paths of the smooth
backend produce QC values: complex numbers whose real and imaginary
parts are fractions.Fraction. Arithmetic between QC values is exact.
Mixing a QC with a float, complex, or mpmath value falls back to
ordinary inexact complex arithmetic, so exactness is preserved by
construction exactly as long as every operand is exact.
"""

from __future__ import annotations

import sys
from fractions import Fraction

_HASH_IMAG = sys.hash_info.imag
_HASH_MASK = (1 << sys.hash_info.width) - 1


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, float):
        # read floats through their decimal string so JSON literals like
        # 0.1 mean 1/10, not the nearest binary double
        return Fraction(str(v))
    raise TypeError("cannot interpret %r as a rational" % (v,))


class QC:
    """Complex number with exact rational real and imaginary parts.

    A QC is never mutated, so arithmetic may return an operand as its
    result: adding QC_ZERO or multiplying by 1 gives the other operand
    back, and multiplying by QC_ZERO gives QC_ZERO. The imaginary part
    of a real QC is the shared Fraction _ZERO, which every constructor
    sets, so a real operand is told by identity and real arithmetic
    does one Fraction operation per part it needs. A zero imaginary
    part held in any other Fraction (from a pickle, say) is still
    correct, only slower.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _nz(_frac(im))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, QC):
            if other is QC_ZERO:
                return self
            if self is QC_ZERO:
                return other
            a, b = self.im, other.im
            return _qc(self.re + other.re,
                       a if b is _ZERO else b if a is _ZERO else _nz(a + b))
        if isinstance(other, (int, Fraction)):
            return _qc(self.re + other, self.im)
        return complex(self) + other

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QC):
            if other is QC_ZERO:
                return self
            a, b = self.im, other.im
            return _qc(self.re - other.re,
                       a if b is _ZERO else _nz(a - b))
        if isinstance(other, (int, Fraction)):
            return _qc(self.re - other, self.im)
        return complex(self) - other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QC):
            if self is QC_ZERO or other is QC_ZERO:
                return QC_ZERO
            ar, ai, br, bi = self.re, self.im, other.re, other.im
            if ai is _ZERO:
                if bi is _ZERO:
                    return _qc(ar * br)
                return _qc(ar * br, _nz(ar * bi))
            if bi is _ZERO:
                return _qc(ar * br, _nz(ai * br))
            return _qc(ar * br - ai * bi, _nz(ar * bi + ai * br))
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            if not other:
                return QC_ZERO
            a = self.im
            return _qc(self.re * other, a if a is _ZERO else a * other)
        return complex(self) * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QC(other)
        if isinstance(other, QC):
            ar, ai, br, bi = self.re, self.im, other.re, other.im
            if bi is _ZERO:
                if not br:
                    raise ZeroDivisionError("division by exact zero")
                return _qc(ar / br, ai if ai is _ZERO else _nz(ai / br))
            d = br * br + bi * bi
            if d == 0:
                raise ZeroDivisionError("division by exact zero")
            return _qc((ar * br + ai * bi) / d, _nz((ai * br - ar * bi) / d))
        return complex(self) / other

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QC(other) / self
        return other / complex(self)

    def __neg__(self):
        a = self.im
        return _qc(-self.re, a if a is _ZERO else -a)

    def __pos__(self):
        return self

    def conjugate(self):
        a = self.im
        return self if a is _ZERO else _qc(self.re, -a)

    # -- comparisons and conversions -----------------------------------

    def __eq__(self, other):
        if isinstance(other, QC):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction, float)):
            return self.im == 0 and self.re == other
        if isinstance(other, complex):
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
        return bool(self.re) or bool(self.im)

    def __abs__(self):
        return abs(complex(self))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return "QC(%s)" % (self.re,)
        return "QC(%s, %s)" % (self.re, self.im)

    def __str__(self):
        if self.im == 0:
            return rat_str(self.re)
        sign = "-" if self.im < 0 else "+"
        return "%s%s%si" % (rat_str(self.re), sign, rat_str(abs(self.im)))

    @property
    def is_real(self) -> bool:
        return self.im == 0


_ZERO = Fraction(0)
_new = object.__new__


def _nz(f: Fraction) -> Fraction:
    """f, or the shared _ZERO when f is zero."""
    return f if f else _ZERO


def _qc(re: Fraction, im: Fraction = _ZERO) -> QC:
    """Trusted constructor: both parts are Fractions, and a zero
    imaginary part is _ZERO."""
    v = _new(QC)
    v.re = re
    v.im = im
    return v


QC_ZERO = QC(0)
QC_ONE = QC(1)


def qc(v) -> QC:
    """Coerce an exact value (int, Fraction, str, pair, QC) to QC."""
    if isinstance(v, QC):
        return v
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


def to_complex(v) -> complex:
    """Flatten a QC or any numeric value to a Python complex."""
    if isinstance(v, QC):
        return complex(v)
    return complex(v)
