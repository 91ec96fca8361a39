import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from formalcalc.scalars import (QC, QC_ONE, QC_ZERO, qc, qc_from_json,
                                qc_to_json, rat_str)


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
    assert complex(v) == 3 + 4j


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


def _complex_bits(make):
    """The bits of both parts of make(), or "overflow" when it raises."""
    try:
        z = make()
    except OverflowError:
        return "overflow"
    return z.real.hex(), z.imag.hex()


def _rand_part(rng):
    """A rational from a tiny subnormal to beyond the float range, often
    zero, and negative parts that round to -0.0."""
    if rng.random() < 0.2:
        return Fraction(0)
    num = rng.choice([-1, 1]) * rng.randrange(1, 2 ** rng.randint(1, 1100))
    return Fraction(num, rng.randrange(1, 2 ** rng.randint(1, 2200)))


def test_complex_matches_float_of_both_parts_bit_for_bit():
    rng = random.Random(1018)
    outcomes = set()
    for _ in range(3000):
        re, im = _rand_part(rng), _rand_part(rng)
        v = QC(re, im)
        got = _complex_bits(lambda: complex(v))
        assert got == _complex_bits(lambda: complex(float(re), float(im))), v
        outcomes.add("overflow" if got == "overflow" else
                     ("-0.0" if "-0x0.0p+0" in got else
                      "zero" if "0x0.0p+0" in got else "finite"))
    # tiny negative parts round to -0.0, and huge ones overflow
    assert outcomes == {"overflow", "-0.0", "zero", "finite"}
    assert _complex_bits(lambda: complex(QC(Fraction(-1, 10 ** 400)))) \
        == ("-0x0.0p+0", "0x0.0p+0")


# -- the canonical integer triple ----------------------------------------------

def _triple(v):
    return v.n, v.m, v.d


def _is_canonical(v):
    return (type(v) is QC and all(type(x) is int for x in _triple(v))
            and v.d > 0 and math.gcd(v.n, v.m, v.d) == 1)


def test_every_result_is_a_canonical_triple():
    rng = random.Random(20)
    made = [QC(), QC(3), QC(Fraction(6, 4), Fraction(-9, 6)), QC(0, "-2/4"),
            qc([2, "4/6"]), qc(Fraction(10, 4)), qc(-7), qc("0.5"),
            qc_from_json(["-3/9", 0]), QC_ZERO, QC_ONE]
    for _ in range(4000):
        a, b = _operand(rng), _operand(rng)
        if not isinstance(a, QC) and not isinstance(b, QC):
            continue
        made += [-v for v in (a, b) if isinstance(v, QC)]
        for op in "+-*/":
            try:
                made.append(_apply(op, a, b))
            except ZeroDivisionError:
                pass
    for v in made:
        assert _is_canonical(v), (v, _triple(v))
        assert (v.n, v.m) == (v.re * v.d, v.im * v.d)


def test_equality_is_equality_of_triples():
    rng = random.Random(21)

    def small():
        return Fraction(rng.randint(-2, 2), rng.randint(1, 2))

    # a small value range, reached also through arithmetic, so that many
    # pairs are equal without being the same object
    pool = []
    for _ in range(150):
        a, b = QC(small(), small()), QC(small(), small() * 0)
        pool += [a, b, a + b - b, a * b, (a * b) / b if b else a, -(-a)]
    equal = 0
    for x in pool:
        for y in pool[:120]:
            same = _triple(x) == _triple(y)
            assert (x == y) == same == ((x.re, x.im) == (y.re, y.im))
            if same:
                assert hash(x) == hash(y)
                equal += x is not y
    assert equal > 1000


def test_pickle_and_copy_keep_the_value():
    rng = random.Random(22)
    for i in range(300):
        v = QC(_rand_frac(rng), _rand_frac(rng) if i % 2 else 0) * QC(i % 5)
        if i % 3:
            v.re, v.im                        # parts read before the copy
        copies = [copy.copy(v), copy.deepcopy(v)]
        copies += [pickle.loads(pickle.dumps(v, proto))
                   for proto in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for w in copies:
            assert _is_canonical(w) and _triple(w) == _triple(v)
            assert w == v and hash(w) == hash(v)
            assert (w.re, w.im) == (v.re, v.im)


def test_parts_are_built_once():
    rng = random.Random(23)
    for _ in range(200):
        a, b = _operand(rng), _operand(rng)
        if not isinstance(a, QC):
            continue
        for v in (a, a + b, a * b, -a):
            re, im = v.re, v.im
            assert type(re) is Fraction and type(im) is Fraction
            assert v.re is re and v.im is im
