"""The typed program's three cheap statement forms against their oracles.

A real power of 2 to 100 is float products in the order of CPython's
complex power, with that power as the fallback once they are not
finite; every kernel of one argument reads one exp(-1/t); a real root
leaves the program as a float. Each must give what the complex
statement it replaced gives: a power `(complex(b) ** n).real` (a
zero's sign aside, which the typed contract allows), a kernel the real
part of the untyped program's value, bit for bit.
"""

import math
import random
from fractions import Fraction

from formalcalc.expr import (
    X,
    Add,
    Const,
    Kern,
    Mul,
    Pow,
    _compile,
    _float_program,
    _postorder,
    bump,
    diff,
)
from formalcalc.quadrature import integrate_expr, integrate_exprs
from formalcalc.scalars import QC
from test_built_once import fresh
from test_compiled import UNDERFLOW, bits


def bases():
    """Signed zeros, subnormals, every power of ten a float holds,
    infinities, NaN, and seeded mantissas at seeded scales."""
    rng = random.Random(29)
    out = [0.0, 5e-324, 2.2250738585072014e-308 / 3, math.inf, math.nan]
    out += [10.0 ** k for k in range(-323, 309)]
    out += [rng.uniform(1, 10) * 10.0 ** rng.randint(-320, 300)
            for _ in range(300)]
    out += [rng.uniform(0.5, 2) for _ in range(100)]
    return out + [-b for b in out]


def power_outcome(f, b):
    try:
        return f(b)
    except OverflowError as exc:
        return type(exc)


def same(got, want):
    """Equal values (so a zero of either sign), both NaN, or one
    exception type."""
    if isinstance(want, type):
        return got is want
    return type(got) is float and (got == want or got != got and want != want)


def test_a_real_power_is_the_complex_power_of_its_base():
    met = set()
    for n in range(2, 101):
        # the text as the cache-free helper runs it: complex, exp and
        # the constants in its namespace, the fallback defined by the text
        f = fresh(Pow(X, n), typed=True)
        for b in bases():
            want = power_outcome(lambda v: (complex(v) ** n).real, b)
            got = power_outcome(f, b)
            assert same(got, want), (n, b, got, want)
            met.add(want if isinstance(want, type) else
                    "nan" if want != want else
                    "signed zero" if want == 0.0 and math.copysign(1, got)
                    != math.copysign(1, want) else float)
    # the fallback runs for overflow and NaN, and the two may part in
    # a zero's sign only
    assert met == {float, OverflowError, "nan", "signed zero"}


def test_a_typed_power_text_reads_only_the_complex_power_in_its_fallback():
    source, _ = _float_program(Pow(Add(X, Const(1)), 13), typed=True)
    fallback, body = source.split("def _f(x):\n")
    assert fallback == ("def _p13(v0):\n    v0 = (complex(v0) ** 13).real\n"
                        "    return v0\n")
    assert "complex(" not in body and "**" not in body
    # 13 = 0b1101: x * x^4 * x^8, two squarings between
    assert body.count(" * ") == 5


def test_an_overflowing_power_raises_through_its_fallback():
    big = Mul(Pow(Mul(X, Const(10 ** 200)), 2), Pow(X, 7))
    for f in (fresh(big, typed=True), _compile(big, typed=True)):
        assert power_outcome(f, 1.0) is OverflowError
        assert power_outcome(f, 1e-200) == 0.0
        assert math.isnan(power_outcome(f, math.nan))


def kernel_roots(arg):
    return [Kern(arg, m) for m in range(5)]


def test_every_kernel_order_of_one_argument_reads_one_exp():
    # t = x, and t = x read from x + i
    real_arg = X
    complex_arg = Add(X, Const(QC(0, 1)))
    roots = kernel_roots(real_arg) + kernel_roots(complex_arg)
    union = list(dict.fromkeys(n for r in roots for n in _postorder(r)))
    typed_text, _ = _float_program(union, typed=True, roots=roots)
    complex_text, _ = _float_program(union, roots=roots)
    assert typed_text.count("exp(") == 2
    assert complex_text.count("exp(") == 10
    typed, untyped = fresh(union, True, roots), fresh(union, False, roots)
    rng = random.Random(31)
    points = [*UNDERFLOW, *(-t for t in UNDERFLOW)]
    points += [rng.uniform(-2, 4) for _ in range(200)]
    points += [0.0, -0.0, 1e154, 1e200, math.inf, -math.inf, math.nan]
    met = set()
    for x in points:
        try:
            want = [bits(complex(v.real)) for v in untyped(x)]
        except OverflowError:
            # t ** m past the float range, in both
            want = OverflowError
        try:
            got = [bits(complex(v)) for v in typed(x)]
            assert all(type(v) is float for v in typed(x))
        except OverflowError:
            got = OverflowError
        assert got == want, x
        if want is OverflowError:
            met.add(want)
        elif x == x:
            met.add("subnormal" if 0 < want[0][0][0] < 2.2250738585072014e-308
                    else float)
    assert met == {float, "subnormal", OverflowError}


def test_real_roots_are_floats_and_their_integrals_complex():
    e, _, _ = bump(-1, 0, 0, 1)
    d = diff(e, 2)
    assert type(_compile(d, typed=True)(0.5)) is float
    i = Const(QC(0, 1))
    union = list(dict.fromkeys([*_postorder(e), *_postorder(d), i]))
    assert [type(v) for v in _compile(union, typed=True, roots=[e, d, i])(
        0.5)] == [float, float, complex]
    ranges = [(Fraction(-1), Fraction(1))]
    assert type(integrate_expr(d, ranges)) is complex
    assert [type(v) for v in integrate_exprs([(e, ranges), (d, ranges)])] \
        == [complex, complex]
