"""The float program's typed statement forms against their oracles.

A real power of any exponent is the float power; every kernel of one
argument reads one exp(-1/t); a real root leaves the program as a
float. Each must give, bit for bit, what its oracle gives: a power the
float `b ** n` (the C library's pow), a kernel its node-by-node value
(`tree_ev_f`).
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
from formalcalc.quadrature import _RULE, integrate_expr, integrate_exprs
from formalcalc.scalars import QC
from test_built_once import fresh
from test_compiled import UNDERFLOW, bits, tree_ev_f


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
        v = f(b)
    except OverflowError as exc:
        return type(exc)
    return type(v), bits(v)


def test_a_real_power_is_the_float_power_of_its_base():
    met = set()
    for n in range(2, 121):
        # the text as the cache-free helper runs it: exp and the
        # constants in its namespace
        f = fresh(Pow(X, n))
        for b in bases():
            want = power_outcome(lambda v: v ** n, b)
            assert power_outcome(f, b) == want, (n, b)
            met.add(want if isinstance(want, type) else
                    "nan" if want[1][0] == ("nan",) else
                    "inf" if math.isinf(want[1][0][0]) else
                    "-0.0" if want[1][0] == (0.0, -1.0) else float)
    assert met == {float, OverflowError, "nan", "inf", "-0.0"}


def test_a_typed_power_text_reads_only_the_float_power():
    source, _ = _float_program(Pow(Add(X, Const(1)), 13))
    # one function, no fallback defined ahead of it
    assert source.startswith("def _f(x):\n")
    assert source.count("def ") == 1
    assert "complex(" not in source
    # the power is one float `**`, not a chain of products
    assert source.count(" ** 13") == 1 and " * " not in source


def test_an_overflowing_power_raises():
    big = Mul(Pow(Mul(X, Const(10 ** 200)), 2), Pow(X, 7))
    for f in (fresh(big), _compile(big)):
        assert power_outcome(f, 1.0) is OverflowError
        assert power_outcome(f, 1e-200) == (float, bits(0.0))
        assert math.isnan(f(math.nan))


def kernel_roots(arg):
    return [Kern(arg, m) for m in range(5)]


def test_every_kernel_order_of_one_argument_reads_one_exp():
    # t = x, and t = x read from x + i
    real_arg = X
    complex_arg = Add(X, Const(QC(0, 1)))
    roots = kernel_roots(real_arg) + kernel_roots(complex_arg)
    union = list(dict.fromkeys(n for r in roots for n in _postorder(r)))
    text, _ = _float_program(union, roots=roots)
    assert text.count("exp(") == 2
    program = fresh(union, roots)
    rng = random.Random(31)
    points = [*UNDERFLOW, *(-t for t in UNDERFLOW)]
    points += [rng.uniform(-2, 4) for _ in range(200)]
    points += [0.0, -0.0, 1e154, 1e200, math.inf, -math.inf, math.nan]
    met = set()
    for x in points:
        try:
            want = [bits(tree_ev_f(r, x)) for r in roots]
        except OverflowError:
            # t ** m past the float range, in both
            want = OverflowError
        try:
            got = [bits(complex(v)) for v in program(x)]
            assert all(type(v) is float for v in program(x))
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
    assert type(_compile(d)(0.5)) is float
    i = Const(QC(0, 1))
    union = list(dict.fromkeys([*_postorder(e), *_postorder(d), i]))
    assert [type(v) for v in _compile(union, roots=[e, d, i])(
        0.5)] == [float, float, complex]
    # the panel form sums a real root's rules in float
    ks, gs = _compile(union, roots=[e, d, i], rule=_RULE)(0.0, 0.5)
    assert [type(v) for v in ks] == [type(v) for v in gs] \
        == [float, float, complex]
    ranges = [(Fraction(-1), Fraction(1))]
    assert type(integrate_expr(d, ranges)) is complex
    assert [type(v) for v in integrate_exprs([(e, ranges), (d, ranges)])] \
        == [complex, complex]
