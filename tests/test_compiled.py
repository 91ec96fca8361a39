"""The compiled float program against node-by-node typed evaluation.

`tree_ev_f` evaluates the tree node by node, children first, and types
each node by its structure alone: x, a kernel, a real constant and a
node whose children are all real are floats, any other node a complex.
It stays here as the oracle. On every seeded integrand and point, and
in every integral, the program must give what the tree gives bit for
bit: the same type, the same value with its zero's sign, NaN where the
tree is NaN, or the same exception.
"""

import math
import random
import re
from fractions import Fraction

import pytest

from formalcalc.expr import (
    X,
    Add,
    Const,
    Div,
    Kern,
    Mul,
    Pow,
    Var,
    bump,
    diff,
    ev_f,
    _compile,
    _float_program,
    _postorder,
)
from formalcalc.errors import QuadratureError
from formalcalc.quadrature import integrate_callable
from formalcalc.scalars import QC


# the attributes that hold a node's children
CHILDREN = ("a", "b", "num", "den", "base", "arg")


def real_nodes(nodes):
    """The structurally real nodes of a `_postorder` list: x, a kernel,
    a real constant, and a node whose children are all real."""
    real = set()
    for n in nodes:
        if (n.v.is_real if isinstance(n, Const) else isinstance(n, Kern)
                or all(getattr(n, k) in real for k in CHILDREN
                       if hasattr(n, k))):
            real.add(n)
    return real


def tree_program(e):
    """x -> e's float64 value, evaluated one node at a time, children
    first and left to right (`_postorder`), each distinct node once, a
    real node (`real_nodes`) in float arithmetic and any other in
    complex."""
    nodes = _postorder(e)
    real = real_nodes(nodes)

    def f(x):
        v = {}
        for n in nodes:
            v[n] = _tree_node(n, x, v, n in real)
        return v[e]
    return f


def tree_ev_f(e, x):
    """e's value at x (`tree_program`)."""
    return tree_program(e)(x)


def _tree_node(e, x, v, real):
    """e's value at x, its children's read from v: a float if e is real,
    else a complex."""
    if isinstance(e, Const):
        return float(e.v.re) if real else complex(e.v)
    if isinstance(e, Var):
        return float(x)
    if isinstance(e, Add):
        return v[e.a] + v[e.b]
    if isinstance(e, Mul):
        return v[e.a] * v[e.b]
    if isinstance(e, Div):
        return v[e.num] / v[e.den]
    if isinstance(e, Pow):
        return v[e.base] ** e.n
    if isinstance(e, Kern):
        t = v[e.arg].real
        if t <= 0.0:
            return 0.0
        w = math.exp(-1.0 / t)
        if w == 0.0:
            return 0.0
        return w / t ** e.m
    raise TypeError("unknown expression node %r" % (e,))


def bits(z):
    """((real, its sign), (imag, its sign)); NaN parts compare equal."""
    def part(v):
        return ("nan",) if v != v else (v, math.copysign(1.0, v))
    return part(z.real), part(z.imag)


def outcome(f, *args):
    """f's value as its type and `bits`, or the type of what it raised."""
    try:
        v = f(*args)
    except ArithmeticError as exc:
        return type(exc)
    return type(v), bits(v)


def rand_const(rng):
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.3 else 0
    return Const(QC(re, im))


def rand_tree(rng, depth, pool):
    """Raw nodes, so zero denominators and signed zeros are reachable.

    Reuses earlier subtrees from `pool` to make shared subterms, and
    rebuilds equal ones as separate objects.
    """
    if depth == 0 or rng.random() < 0.15:
        r = rng.random()
        if pool and r < 0.3:
            return rng.choice(pool)
        return X if r < 0.65 else rand_const(rng)
    kind = rng.choice("+*/pks")
    if kind == "+":
        e = Add(rand_tree(rng, depth - 1, pool), rand_tree(rng, depth - 1, pool))
    elif kind == "*":
        e = Mul(rand_tree(rng, depth - 1, pool), rand_tree(rng, depth - 1, pool))
    elif kind == "/":
        e = Div(rand_tree(rng, depth - 1, pool), rand_tree(rng, depth - 1, pool))
    elif kind == "p":
        e = Pow(rand_tree(rng, depth - 1, pool), rng.randint(0, 4))
    elif kind == "k":
        e = Kern(rand_tree(rng, depth - 1, pool), rng.randint(0, 3))
    else:
        # a copy of an earlier subtree as a new object
        if not pool:
            return X
        src = rng.choice(pool)
        e = Add(src, Const(0)) if rng.random() < 0.5 else Mul(Const(-1), src)
    pool.append(e)
    return e


def bump_family():
    out = []
    for a, b, c, d in ((-2, -1, 1, 2), (0, Fraction(1, 3), Fraction(1, 2), 1),
                       (Fraction(-1, 7), 0, 0, Fraction(1, 5))):
        e, _, _ = bump(a, b, c, d)
        for order in range(5):
            out.append((diff(e, order), (float(a), float(d))))
    return out


# points where exp(-1/t) is normal, subnormal and underflowed to 0
UNDERFLOW = (1 / 700, 1 / 740, 1 / 745, 1 / 746, 1 / 800, 1e-300, 5e-324)


def test_bumps_and_derivatives_match_tree_evaluation_bit_for_bit():
    rng = random.Random(5)
    for e, (lo, hi) in bump_family():
        f = _compile(e)
        pts = [rng.uniform(lo - 0.5, hi + 0.5) for _ in range(20)]
        pts += [lo + t for t in UNDERFLOW] + [hi - t for t in UNDERFLOW]
        pts += [lo, hi, 0.0, -0.0]
        for x in pts:
            assert outcome(f, x) == outcome(tree_ev_f, e, x), (e, x)


def test_random_integrands_match_tree_evaluation_where_finite():
    # and where not finite: bit for bit at every point
    rng = random.Random(17)
    met = set()
    for _ in range(400):
        pool = []
        e = rand_tree(rng, rng.randint(1, 6), pool)
        f = _compile(e)
        for x in [rng.uniform(-3, 3) for _ in range(12)] + [
                0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-3, -1e-3, 1e300, -1e300,
                *UNDERFLOW]:
            want = outcome(tree_ev_f, e, x)
            assert outcome(f, x) == want, (e, x)
            if isinstance(want, type):
                met.add(want)
                continue
            kind, parts = want
            met.add(kind)
            met |= {"nan" for p in parts if p == ("nan",)}
            met |= {"-0.0" for p in parts if p == (0.0, -1.0)}
    # the seeded sample reaches zero divisors, overflow, NaN, negative
    # zeros, and both types
    assert met == {ZeroDivisionError, OverflowError, "nan", "-0.0", float,
                   complex}


def test_ev_f_is_the_compiled_program():
    e, _, _ = bump(-1, 0, 0, 1)
    d = diff(e, 2)
    for x in (-0.75, -0.25, 0.0, 0.3, 0.9):
        assert bits(ev_f(d, x)) == bits(tree_ev_f(d, x))
    assert ev_f(Const(QC(Fraction(1, 2), 3)), 7.0) == 0.5 + 3j


def test_zero_denominator_raises_on_both():
    e = Div(X, Add(X, Const(-1)))
    with pytest.raises(ZeroDivisionError):
        tree_ev_f(e, 1.0)
    with pytest.raises(ZeroDivisionError):
        _compile(e)(1.0)


def test_exceptions_come_in_left_to_right_order():
    # the left operand overflows before the right one divides by zero
    big = Pow(Mul(X, Const(10 ** 200)), 2)
    e = Add(big, Div(Const(1), Add(X, Const(-1))))
    assert outcome(tree_ev_f, e, 1.0) is OverflowError
    assert outcome(_compile(e), 1.0) is OverflowError


def distinct_subterms(e):
    seen, out, stack = set(), set(), [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.add(node)
        stack.extend(getattr(node, k) for k in CHILDREN if hasattr(node, k))
    return out


def test_program_shares_equal_subterms():
    e, _, _ = bump(-2, -1, 1, 2)
    d4 = diff(e, 4)
    source, consts = _float_program(d4)
    # a node's assignment is a v<i>, or a w<i> for an order-0 kernel
    assert source.startswith("def _f(x):\n")
    statements = len(re.findall(r"^    [vw]\d+ = ", source, re.M))
    distinct = distinct_subterms(d4)
    assert statements <= len(distinct)
    assert statements + len(consts) == len(distinct)
    # one constant name per distinct value
    assert len(set(consts.values())) == len(consts)


def test_deep_chain_compiles_without_recursion():
    e = X
    for _ in range(5000):
        e = Add(e, X)
    assert _compile(e)(0.5) == 2500.5


def integral(f, ranges):
    try:
        return bits(integrate_callable(f, ranges, 1e-10, 3000))
    except (ArithmeticError, QuadratureError) as exc:
        return type(exc)


def test_typed_program_integrates_to_the_same_bits():
    # real and complex constants, zero divisors and unconverged panels
    rng = random.Random(23)
    seen = set()
    for _ in range(400):
        e = rand_tree(rng, rng.randint(1, 6), [])
        lo, hi = sorted((rng.uniform(-3, 9), rng.uniform(-3, 9)))
        want = integral(tree_program(e), [(lo, hi)])
        got = integral(_compile(e), [(lo, hi)])
        assert got == want, (e, lo, hi)
        seen.add(want if isinstance(want, type) else complex)
    assert seen == {complex, ZeroDivisionError, QuadratureError}
    for e, (lo, hi) in bump_family():
        assert (integral(_compile(e), [(lo, hi)])
                == integral(tree_program(e), [(lo, hi)])), e
    # and on ranges out to +-1e200, where subterms overflow to inf
    seen = set()
    for _ in range(100):
        e = rand_tree(rng, rng.randint(1, 6), [])
        lo, hi = sorted((rng.uniform(-1e200, 1e200),
                         rng.uniform(-1e200, 1e200)))
        want = integral(tree_program(e), [(lo, hi)])
        assert integral(_compile(e), [(lo, hi)]) == want, (e, lo, hi)
        seen.add(want if isinstance(want, type) else complex)
    assert OverflowError in seen


def test_typed_bump_programs_are_float_programs():
    # every statement of a real program is in float arithmetic
    for e, _ in bump_family():
        source, consts = _float_program(e)
        assert all(type(v) is float for v in consts.values())
        assert "complex(" not in source and ".real" not in source


def test_typed_power_overflow_raises():
    big = Pow(Mul(X, Const(10 ** 200)), 2)
    with pytest.raises(OverflowError):
        _compile(big)(1.0)
    # past the 100th power CPython's complex power is polar and leaves
    # an imaginary part; a real power of any exponent is the float power
    assert (complex(-1.1) ** 101).imag != 0.0
    assert outcome(_compile(Pow(X, 101)), -1.1) == outcome(
        lambda x: x ** 101, -1.1)
    e = Mul(Pow(Add(X, Const(-2)), 101), Pow(Add(X, Const(-3)), 101))
    f = _compile(e)
    for x in (0.9, 0.5, -0.1):
        assert outcome(f, x) == outcome(tree_ev_f, e, x)
