"""Derivatives kept on their nodes against the walk that rebuilt them.

`oracle` below is `expr.diff` as it was before a node kept its first
derivative, kept word for word: each order folds `_diff_visit` over
every node of the tree. `expr.diff` walks only the nodes whose
derivative is not kept yet and keeps what it builds on them. A
derivative is a pure function of an interned node, so on every
expression and at every order both must return the very same node,
whatever was differentiated before.
"""

import gc
import random
from collections import Counter
from fractions import Fraction

import pytest

from formalcalc import expr
from formalcalc.expr import (Add, Const, X, _diff_visit, _fold, _postorder,
                             add, kern, mul, pow_, window_bump)
from formalcalc.spaces import SmoothLine
from test_certificates import rand_cover
from test_interning import rand_dag

SL = SmoothLine()


def oracle(e, order=1):
    for _ in range(order):
        e = _fold(_postorder(e), _diff_visit)
    return e


def quadratic(rng):
    return add(mul(rng.randint(-3, 3), mul(X, X)),
               add(mul(Fraction(rng.randint(-8, 8), 4), X), rng.randint(-2, 2)))


def seeded(kind, seed):
    """A seeded expression of one of three kinds: a random DAG of at least
    8 nodes, a window bump times a quadratic, or a quotient of a
    partition of unity."""
    rng = random.Random(seed)
    while kind == "dag":
        e = rand_dag(rng, 5, [])
        if len(_postorder(e)) >= 8:
            return e
    if kind == "bump":
        lo = Fraction(rng.randint(-16, 16), 4)
        e, _, _ = window_bump(lo, lo + Fraction(rng.randint(1, 16), 4))
        return mul(e, quadratic(rng))
    whole, parts = rand_cover(rng)
    return rng.choice(SL.partition(whole, parts))[0]


@pytest.mark.parametrize("kind", ["dag", "bump", "quotient"])
@pytest.mark.parametrize("seed", range(8))
def test_diff_returns_the_node_the_full_walk_builds(kind, seed):
    rng = random.Random(1000 + seed)
    e = seeded(kind, seed)
    want = {k: oracle(e, k) for k in range(5)}
    # a subterm differentiated first leaves its derivatives kept
    # (identity is taken before assert: a wrong node's printed form can
    # be exponential in the size of its DAG)
    sub, k = rng.choice(_postorder(e)), rng.randint(1, 4)
    same = expr.diff(sub, k) is oracle(sub, k)
    assert same, (kind, seed, "subterm", k)
    orders = [0, 1, 2, 3, 4]
    rng.shuffle(orders)
    for k in orders + orders[::-1]:
        same = expr.diff(e, k) is want[k]
        assert same, (kind, seed, k)


def test_a_ladder_visits_each_node_once(monkeypatch):
    # orders 1, 2, 3 and then 1 to 3 again differentiate each node of e,
    # e' and e'' that no earlier test differentiated, and each only once
    c = Fraction(1, 7919)
    e = mul(kern(add(X, -c)), pow_(add(X, c), 3))
    nodes = set()
    for k in range(3):
        nodes.update(_postorder(oracle(e, k)))
    todo = {n for n in nodes if n._d is None}
    visits = Counter()

    def visit(node, *d):
        visits[node] += 1
        return _diff_visit(node, *d)
    monkeypatch.setattr(expr, "_diff_visit", visit)
    for k in (1, 2, 3, 1, 2, 3):
        same = expr.diff(e, k) is oracle(e, k)
        assert same, k
    assert len(todo) > 10 and set(visits) == todo
    assert set(visits.values()) == {1}


def test_a_node_keeps_its_derivatives_only_while_it_lives():
    # e and its ladder are built on the fresh constant c: every node they
    # add to the table of live nodes leaves it with e
    gc.collect()
    before = set(expr._LIVE.keys())
    c = Fraction(1, 104729)
    e = mul(kern(add(X, -c), 1), pow_(add(X, c), 2))
    chain = [expr.diff(e, k) for k in range(5)]
    assert len(set(chain)) == 5 and not set(expr._LIVE.keys()) <= before
    del e, chain
    gc.collect()
    assert set(expr._LIVE.keys()) <= before


def test_a_deep_chain_differentiates_without_recursion():
    # x + x + ... + x, 10^5 nodes deep: the walk is a loop, not a recursion
    e = X
    for _ in range(10 ** 5 - 1):
        e = Add(e, X)
    assert expr.diff(e) is Const(10 ** 5)
    assert expr.diff(e, 2) is expr.ZERO
