"""Interned expressions: one live node per structure.

Every way of building a node (the smart constructors, the node classes
themselves and the parser) returns the one live node of its structure,
so `==` and `hash` are object identity and cost nothing, whatever the
depth. The table of live nodes holds them weakly.
"""

import copy
import gc
import pickle
import random
import tracemalloc
from fractions import Fraction

from formalcalc import expr
from formalcalc.expr import (
    ONE,
    ZERO,
    Add,
    Const,
    Div,
    Kern,
    Mul,
    Pow,
    Var,
    X,
    add,
    bump,
    diff,
    div,
    kern,
    mul,
    parse_sexpr,
    pow_,
    sub,
    to_sexpr,
    _postorder,
)
from formalcalc.scalars import QC
from formalcalc.spaces import RSet


def rand_smart(rng, depth):
    """A quotient-free tree built only through the smart constructors,
    so its printed form parses back to the same structure."""
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.6:
            return X
        if r < 0.9:
            return Const(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        return Const(QC(rng.randint(-3, 3), rng.randint(1, 3)))
    kind = rng.choice("+-*pk")
    if kind == "+":
        return add(rand_smart(rng, depth - 1), rand_smart(rng, depth - 1))
    if kind == "-":
        return sub(rand_smart(rng, depth - 1), rand_smart(rng, depth - 1))
    if kind == "*":
        return mul(rand_smart(rng, depth - 1), rand_smart(rng, depth - 1))
    if kind == "p":
        return pow_(rand_smart(rng, depth - 1), rng.randint(0, 4))
    # a kernel of a real argument
    return kern(add(X, rand_smart(rng, depth - 1)) if rng.random() < 0.5
                else mul(X, X), rng.randint(0, 3))


def deep_chain(depth):
    e = X
    for _ in range(depth - 1):
        e = Add(e, X)
    return e


def test_constants_are_keyed_by_exact_value():
    assert Const(1) is Const(Fraction(1)) is Const(QC(1)) is ONE
    assert Const(0) is Const(QC(0, 0)) is ZERO
    assert Const((1, 2)) is Const(QC(1, 2))
    assert Const(Fraction(2, 4)) is Const(Fraction(1, 2))
    assert Const(QC(1, 2)) is not Const(QC(1, -2))
    assert Const(QC(1)) is not Const(QC(0, 1))


def test_direct_construction_interns():
    assert Var() is X
    assert Add(X, ONE) is Add(X, Const(1))
    assert Add(X, ONE) is not Add(ONE, X)
    assert Mul(X, X) is Mul(Var(), Var())
    assert Pow(X, 3) is Pow(X, 3) and Pow(X, 3) is not Pow(X, 4)
    assert Kern(X, 2) is Kern(X, 2) and Kern(X, 2) is not Kern(X, 1)
    assert Mul(X, X) is not Add(X, X)


def test_smart_constructors_intern():
    assert X + 1 is add(X, Const(1)) is Add(X, ONE)
    assert mul(kern(X), X) is Mul(Kern(X, 0), X)
    assert sub(X, X) is Add(X, Mul(Const(-1), X))
    e, _, _ = bump(-2, -1, 1, 2)
    twin, _, _ = bump(Fraction(-2), -1, Fraction(1), 2)
    assert e is twin
    assert diff(e, 2) is diff(twin, 2)
    assert div(X, add(mul(X, X), ONE)) is div(X, mul(X, X) + 1)


def test_a_quotient_keeps_its_first_region():
    den = add(mul(X, X), ONE)
    unit = RSet.closed_pairs([(0, 1)])
    q = Div(X, den, unit)
    assert Div(X, den, None) is q and q.region is unit


def test_parsing_returns_the_live_node():
    rng = random.Random(41)
    for _ in range(300):
        e = rand_smart(rng, rng.randint(1, 6))
        assert parse_sexpr(to_sexpr(e)) is e, e
    flat = "(+ %s)" % " ".join(["x"] * 300)
    assert parse_sexpr(flat) is parse_sexpr(flat) is deep_chain(300)
    e, _, _ = bump(-3, -2, 1, 2)
    assert parse_sexpr(to_sexpr(e)) is e


def test_copies_and_pickles_are_the_live_node():
    e, _, _ = bump(-2, -1, 1, 2)
    for node in (X, ONE, Const(QC(1, 2)), Pow(X, 3), Kern(X, 1), e, diff(e)):
        assert copy.copy(node) is node and copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node
    assert copy.copy(Add(X, ONE)).b is ONE and Add(X, ONE).b is ONE


def test_dropped_nodes_leave_the_table():
    gc.collect()
    before = len(expr._LIVE)
    nodes = [Kern(X, 10**6 + m) for m in range(10**4)]
    assert len(expr._LIVE) >= before + 10**4
    del nodes
    gc.collect()
    assert len(expr._LIVE) <= before


def test_deep_twins_compare_and_hash_without_allocating():
    e, twin = deep_chain(5000), deep_chain(5000)
    tracemalloc.start()
    try:
        assert e == twin and hash(e) == hash(twin)
        assert e != Add(twin, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_derivatives_are_one_node_per_structure():
    e, _, _ = bump(-2, -1, 1, 2)
    assert len(_postorder(diff(e, 7))) < 2_000
