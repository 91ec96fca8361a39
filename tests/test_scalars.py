import pickle
import random
from fractions import Fraction

import pytest

from formalcalc.scalars import (QC, QC_ONE, QC_ZERO, qc, qc_from_json,
                                qc_to_json, rat_str, to_complex)


def test_constructor_normalizes():
    assert qc(3) == QC(Fraction(3))
    assert qc("1/2") == QC(Fraction(1, 2))
    assert qc([1, 2]) == QC(Fraction(1), Fraction(2))
    assert qc(QC(Fraction(5))) == QC(Fraction(5))


def test_field_axioms_match_python_complex():
    rng = random.Random(0)
    for _ in range(300):
        a = QC(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        b = QC(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        # complex arithmetic is the independent oracle; float conversion
        # does not commute with exact arithmetic, so compare to 1e-9
        for got, ref in [(a + b, complex(a) + complex(b)),
                         (a - b, complex(a) - complex(b)),
                         (a * b, complex(a) * complex(b))]:
            assert abs(complex(got) - ref) < 1e-9 * (1 + abs(ref))
        if b:
            q = a / b
            assert q * b == a


def test_exact_division_roundtrip():
    a = QC(Fraction(3, 7), Fraction(-2, 5))
    b = QC(Fraction(1, 3), Fraction(4))
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / QC_ZERO


def test_truthiness_and_constants():
    assert not QC_ZERO
    assert QC_ONE
    assert QC(Fraction(0), Fraction(1))


def test_abs_and_complex():
    v = QC(Fraction(3), Fraction(4))
    assert abs(v) == pytest.approx(5.0)
    assert to_complex(v) == 3 + 4j


def test_json_roundtrip():
    vals = [QC(Fraction(2)), QC(Fraction(1, 3)), QC(Fraction(0), Fraction(1)),
            QC(Fraction(-5, 2), Fraction(7, 3))]
    for v in vals:
        assert qc_from_json(qc_to_json(v)) == v


def test_rat_str():
    assert rat_str(Fraction(4)) == "4"
    assert rat_str(Fraction(-3, 2)) == "-3/2"


# -- exact oracle for the arithmetic fast paths --------------------------------

def _parts(v):
    """(re, im) Fractions of an int or QC operand."""
    if isinstance(v, int):
        return Fraction(v), Fraction(0)
    return v.re, v.im


def _schoolbook(op, a, b):
    (ar, ai), (br, bi) = _parts(a), _parts(b)
    if op == "+":
        return ar + br, ai + bi
    if op == "-":
        return ar - br, ai - bi
    if op == "*":
        return ar * br - ai * bi, ar * bi + ai * br
    d = br * br + bi * bi
    if d == 0:
        return None
    return (ar * br + ai * bi) / d, (ai * br - ar * bi) / d


def _rand_frac(rng):
    # denominators of 1, 2 and 4 keep many values exact as floats, so the
    # hash and == agreement with complex is checked on them
    return Fraction(rng.randint(-6, 6) or 1, rng.choice([1, 1, 2, 4, 3]))


def _operand(rng):
    kind = rng.randrange(8)
    if kind == 0:
        return QC_ZERO
    if kind == 1:
        a = QC(_rand_frac(rng), _rand_frac(rng))
        return a - a                           # a computed zero
    if kind == 2:
        return QC(_rand_frac(rng))             # real
    if kind == 3:
        return QC(0, _rand_frac(rng))          # pure imaginary
    if kind == 4:
        return rng.choice([0, 1, -1])
    if kind == 5:
        # a round trip through pickle leaves a zero imaginary part that
        # is not the shared one; the slow path must still be exact
        return pickle.loads(pickle.dumps(QC(_rand_frac(rng))))
    return QC(_rand_frac(rng), _rand_frac(rng))


def _apply(op, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b


def test_arithmetic_matches_the_schoolbook_formulas_part_for_part():
    rng = random.Random(4)
    seen = set()
    for _ in range(4000):
        a, b = _operand(rng), _operand(rng)
        if not isinstance(a, QC) and not isinstance(b, QC):
            continue
        before = [(v, v.re, v.im) for v in (a, b) if isinstance(v, QC)]
        before_parts = [(re, im, Fraction(re), Fraction(im))
                        for _, re, im in before]
        for op in "+-*/":
            want = _schoolbook(op, a, b)
            if want is None:
                with pytest.raises(ZeroDivisionError):
                    _apply(op, a, b)
                continue
            got = _apply(op, a, b)
            assert type(got) is QC
            assert type(got.re) is Fraction and type(got.im) is Fraction
            assert (got.re, got.im) == want, (op, a, b)
            assert bool(got) == (want != (0, 0))
            assert got.is_real == (want[1] == 0)
            c = complex(got)
            exact = Fraction(c.real) == want[0] and Fraction(c.imag) == want[1]
            assert (got == c) == exact
            if exact:
                assert hash(got) == hash(c)
            if want[1] == 0:
                assert got == want[0] and hash(got) == hash(want[0])
            seen.add((op, type(a).__name__, type(b).__name__))
        # operands are never mutated: same part objects, same values
        for (v, re, im), (_, _, re0, im0) in zip(before, before_parts):
            assert v.re is re and v.im is im
            assert (v.re, v.im) == (re0, im0)
    assert len(seen) == 4 * 3  # every operator with QC/QC, QC/int, int/QC


def test_negation_and_conjugate_are_exact():
    rng = random.Random(5)
    for _ in range(300):
        a = _operand(rng)
        if not isinstance(a, QC):
            continue
        assert ((-a).re, (-a).im) == (-a.re, -a.im)
        assert (a.conjugate().re, a.conjugate().im) == (a.re, -a.im)


def test_known_results_return_an_operand():
    a = QC(Fraction(2, 3), Fraction(-1, 5))
    assert QC_ZERO + a is a and a + QC_ZERO is a and a - QC_ZERO is a
    assert a * QC_ZERO is QC_ZERO and QC_ZERO * a is QC_ZERO
    assert a * 1 is a and 1 * a is a
    assert a * 0 == 0 and 0 * a == 0


def test_str_signs_the_imaginary_part():
    assert str(QC(1, 2)) == "1+2i"
    assert str(QC(1, -2)) == "1-2i"
    assert str(QC(0, 3)) == "0+3i"
    assert str(QC(Fraction(1, 2), Fraction(3, 4))) == "1/2+3/4i"
    assert str(QC(Fraction(-1, 2))) == "-1/2"
