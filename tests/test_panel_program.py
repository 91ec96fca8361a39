"""The panel form of a program against its x-program's rows.

`quadrature._adaptive` makes one program call per panel: the panel form
runs the panel's 15 abscissas and sums each root's Kronrod and Gauss
rules itself. `rules` below is the sum it replaced, kept as the oracle:
the union x-program's 15 rows, each root's column summed term by term
in node order from 0j. On every seeded group and panel the two must
agree bit for bit, signed zeros, inf and NaN included, or raise the
same exception with the same message; a real root's sums are floats
and a complex root's complex.
"""

import functools
import math
import operator
import random

from formalcalc.errors import QuadratureError
from formalcalc.expr import _compile, _kernel_zeros, _polynomial, _postorder
from formalcalc.quadrature import (_RULE, _WG, _WK, _XK, _cut,
                                   integrate_callable, integrate_expr)
from test_adaptive_reference import HUGE, POLE
from test_compiled import bits, rand_tree, real_nodes


def rules(program, mid, half):
    """Each root's (Kronrod, Gauss) sums on a panel, from its x-program."""
    rows = [program(mid + half * t) for t in _XK]
    columns = list(zip(*rows))
    return ([functools.reduce(operator.add, map(operator.mul, _WK, c), 0j)
             for c in columns],
            [functools.reduce(operator.add, map(operator.mul, _WG, c[1::2]),
                              0j) for c in columns])


def outcome(f, *args, types=None):
    """The roots' sums as `bits`, or the exception's type and message;
    given types, each root's two sums must be of its type."""
    try:
        ks, gs = f(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    assert types is None or [type(k) for k in ks] == [
        type(g) for g in gs] == types
    return [bits(k) for k in ks], [bits(g) for g in gs]


def group(rng):
    """2 to 6 drawn integrands, 1/x and an overflow to inf among them:
    the union's x-program, its panel form, and each root's type."""
    pool = []
    members = [rand_tree(rng, rng.randint(1, 5), pool)
               for _ in range(rng.randint(2, 6))]
    for odd in (POLE, HUGE):
        members.insert(rng.randrange(len(members) + 1), odd)
    union = list(dict.fromkeys(n for e in members for n in _postorder(e)))
    real = real_nodes(union)
    return (_compile(union, roots=members),
            _compile(union, roots=members, rule=_RULE),
            [float if e in real else complex for e in members])


def rand_panel(rng):
    """(mid, half) as `_adaptive` makes them, of a range in [-3, 9], of
    one out to +-1e200, of one 1e-15 to 1e-3 wide, or centred on a zero
    of either sign."""
    kind = rng.randrange(4)
    if kind == 0:
        lo, hi = sorted((rng.uniform(-3, 9), rng.uniform(-3, 9)))
    elif kind == 1:
        lo, hi = sorted((rng.uniform(-1e200, 1e200),
                         rng.uniform(-1e200, 1e200)))
    elif kind == 2:
        lo = rng.uniform(-3, 9)
        hi = lo + 10 ** rng.uniform(-15, -3)
    else:
        a = rng.choice([1.0, 3.0, 1e-10])
        lo, hi = -a, a
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    if kind == 3 and rng.random() < 0.5:
        mid = -0.0
    return mid, half


def parts(values):
    """What values met: inf, NaN, a negative zero part."""
    met = set()
    for z in values:
        for p in (z.real, z.imag):
            if p != p:
                met.add("nan")
            elif math.isinf(p):
                met.add("inf")
            elif p == 0.0 and math.copysign(1.0, p) < 0:
                met.add("-0.0")
    return met


def test_the_panel_form_sums_the_rows_of_the_x_program():
    # a sum from 0j or 0.0 is never -0.0, so a negative zero is met in
    # the rows; inf and NaN in both
    rng = random.Random(30)
    met, row_types, sum_types = set(), set(), set()
    for _ in range(60):
        program, panel, types = group(rng)
        sum_types |= set(types)
        for _ in range(20):
            mid, half = rand_panel(rng)
            want = outcome(rules, program, mid, half)
            assert outcome(panel, mid, half, types=types) == want, (mid, half)
            if isinstance(want[0], type):
                met.add(want[0])
                continue
            rows = [program(mid + half * t) for t in _XK]
            ks, gs = rules(program, mid, half)
            met |= {"rows " + m for m in parts(v for r in rows for v in r)}
            met |= {"sums " + m for m in parts(ks + gs)}
            row_types |= {type(v) for r in rows for v in r}
    assert met == {ZeroDivisionError, OverflowError, "rows inf", "rows nan",
                   "rows -0.0", "sums inf", "sums nan"}
    assert row_types == sum_types == {float, complex}


def alone(integrate, *args):
    try:
        return bits(integrate(*args))
    except (ArithmeticError, QuadratureError) as exc:
        return type(exc), str(exc)


def test_a_lone_integral_is_the_callable_integral_of_its_x_program():
    rng = random.Random(31)
    met = set()
    for _ in range(300):
        e = rand_tree(rng, rng.randint(1, 6), [])
        nodes = _postorder(e)
        if _polynomial(nodes):
            continue
        a = rng.choice([3.0, 1e200])
        lo, hi = sorted((rng.uniform(-a, a), rng.uniform(-a, a)))
        # an integral is walked over its range cut at its kernel zeros
        want = alone(integrate_callable, _compile(e),
                     _cut([(lo, hi)], _kernel_zeros(nodes)), 1e-10, 3000)
        assert alone(integrate_expr, e, [(lo, hi)], 1e-10, 3000) == want, e
        met.add(complex if isinstance(want[0], tuple) else want[0])
    assert met == {complex, ZeroDivisionError, OverflowError,
                   QuadratureError}
