"""Interned expressions: one live node per structure.

Every way of building a node (the smart constructors, the node classes
themselves and the parser) returns the one live node of its structure,
so `==` and `hash` are object identity and cost nothing, whatever the
depth. The table of live nodes holds them weakly, and so does the table
of the regions each denominator node was proven positive on.
"""

import copy
import gc
import pickle
import random
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from formalcalc import expr, suites
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
    window_bump,
    _postorder,
)
from formalcalc.errors import CertificateError
from formalcalc.scalars import QC
from formalcalc.scenario import Scenario
from formalcalc.sheaf import build_pou
from formalcalc.spaces import RSet, SmoothLine

SMOOTH = Path(__file__).resolve().parent.parent / "scenarios" \
    / "smooth_demo.json"


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


def test_smart_constructors_take_plain_numbers():
    den = add(mul(X, X), ONE)
    assert add(X, 1) is add(X, Const(1)) and add(2, X) is add(Const(2), X)
    assert add(1, 2) is Const(3) and add(X, 0) is X
    assert mul(2, X) is mul(Const(2), X) and mul(X, 0) is ZERO
    assert mul(X, Fraction(1, 3)) is mul(X, Const(Fraction(1, 3)))
    assert sub(X, 1) is sub(X, Const(1)) and sub(1, X) is sub(Const(1), X)
    assert kern(1) is kern(Const(1)) and kern(-1) is ZERO
    assert kern(2, 1) is kern(Const(2), 1)
    assert div(X, 2) is div(X, Const(2)) and div(1, den) is div(ONE, den)
    assert pow_(3, 2) is pow_(Const(3), 2) is Const(9)
    assert pow_(QC(0, 1), 1) is Const(QC(0, 1))
    assert to_sexpr(add(X, 1)) == "(+ x 1)"
    assert to_sexpr(mul(2, kern(1))) == "(* 2 (s 1))"


def test_a_field_its_class_does_not_declare_is_refused():
    # a quotient is its numerator and denominator, its proof is kept
    # beside the denominator: a leftover region argument cannot make a
    # second live node of one structure
    den = add(mul(X, X), ONE)
    q = Div(X, den)
    for bad in (lambda: Div(X, den, RSet.closed_pairs([(0, 1)])),
                lambda: Div(X, den, None), lambda: Div(X),
                lambda: Add(X, X, X), lambda: Var(X)):
        with pytest.raises(TypeError):
            bad()
    assert Div(X, den) is q and not hasattr(q, "region")


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


def rand_dag(rng, depth, pool):
    """A node built from the node classes directly, drawing on a pool of
    earlier subterms; small constants and exponents keep equal
    structures common across seeds."""
    if pool and rng.random() < 0.3:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.2:
        return X if rng.random() < 0.5 else Const(rng.randint(-2, 2))
    kind = rng.choice("+*/pk")
    a = rand_dag(rng, depth - 1, pool)
    if kind == "+":
        node = Add(a, rand_dag(rng, depth - 1, pool))
    elif kind == "*":
        node = Mul(a, rand_dag(rng, depth - 1, pool))
    elif kind == "/":
        node = Div(a, rand_dag(rng, depth - 1, pool))
    elif kind == "p":
        node = Pow(a, rng.randint(2, 3))
    else:
        node = Kern(a, rng.randint(0, 1))
    pool.append(node)
    return node


def structural_key(e, memo):
    """Node kind, constant value, n or m and the children's keys."""
    k = memo.get(id(e))
    if k is None:
        t = type(e)
        if t is Const:
            k = (t, e.v.re, e.v.im)
        elif t is Var:
            k = (t,)
        elif t in (Add, Mul):
            k = (t, structural_key(e.a, memo), structural_key(e.b, memo))
        elif t is Div:
            k = (t, structural_key(e.num, memo), structural_key(e.den, memo))
        elif t is Pow:
            k = (t, structural_key(e.base, memo), e.n)
        else:
            k = (t, structural_key(e.arg, memo), e.m)
        memo[id(e)] = k
    return k


def test_identity_matches_structural_keys_across_seeds():
    # two seeds build their DAGs independently; a node of one is the node
    # of the other exactly when their structures agree
    sides = []
    for seed in (71, 72):
        rng = random.Random(seed)
        pool = []
        dags = [rand_dag(rng, rng.randint(1, 4), pool) for _ in range(120)]
        nodes = list({id(n): n for d in dags for n in _postorder(d)}.values())
        sides.append(nodes[:250])
    memo = {}
    equal, compound, unequal = 0, 0, 0
    for a in sides[0]:
        ka = structural_key(a, memo)
        for b in sides[1]:
            same = ka == structural_key(b, memo)
            assert (a is b) == same, (a, b)
            equal += same
            compound += same and not isinstance(a, (Const, Var))
            unequal += not same
    assert equal > 15 and compound > 5 and unequal > 10000


# -- one certificate per (denominator node, region) ---------------------------


def count_certificates(monkeypatch):
    """The (denominator, region) pairs certify_positive is asked to prove
    from now on, in order."""
    asked = []
    prove = expr.certify_positive

    def counted(e, region):
        asked.append((e, region))
        prove(e, region)
    monkeypatch.setattr(expr, "certify_positive", counted)
    return asked


def test_a_repeated_quotient_is_certified_once(monkeypatch):
    asked = count_certificates(monkeypatch)
    den = add(pow_(X, 2), Const(Fraction(1, 7919)))
    assert div(X, den) is div(X, den)
    assert div(ONE, den) is not div(X, den)   # another numerator, same proof
    assert [e for e, _ in asked] == [den]
    del asked[:]
    lo, hi = Fraction(-2, 7919) - 2, Fraction(3)
    assert window_bump(lo, hi) == window_bump(lo, hi)
    # a rising and a falling edge, each proven once
    assert len(asked) == 2 and asked[0][0] is not asked[1][0]


def test_a_failing_denominator_raises_on_every_call(monkeypatch):
    asked = count_certificates(monkeypatch)
    den = add(X, Const(Fraction(1, 7907)))
    for _ in range(3):
        with pytest.raises(CertificateError):
            div(ONE, den)
    assert len(asked) == 3 and den not in expr._CERTIFIED


def test_a_proof_is_not_reused_for_another_region(monkeypatch):
    asked = count_certificates(monkeypatch)
    den = add(X, Const(2 + Fraction(1, 7901)))
    near = RSet.open_pairs([(-1, 1)])
    div(ONE, den, region=near)
    div(ONE, den, region=near)
    with pytest.raises(CertificateError):
        div(ONE, den, region=RSet.open_pairs([(-3, 3)]))
    div(ONE, den, region=RSet.open_pairs([(0, 1)]))
    assert len(asked) == 3
    assert expr._CERTIFIED[den] == {near, RSet.open_pairs([(0, 1)])}


def test_a_proof_holds_on_every_region_inside_its_own():
    den = add(X, Const(2 + Fraction(1, 7877)))
    near = RSet.open_pairs([(-1, 1)])
    assert not expr.certified(den, near)
    div(ONE, den, region=near)
    assert expr.certified(den, near)
    assert expr.certified(den, RSet.closed_pairs([(0, Fraction(1, 2))]))
    assert not expr.certified(den, RSet.open_pairs([(-1, 2)]))
    assert not expr.certified(add(den, X), near)


def test_a_proof_goes_with_its_denominator():
    gc.collect()
    before = len(expr._CERTIFIED)
    den = add(pow_(X, 2), Const(Fraction(1, 7883)))
    q = div(X, den)
    gone = weakref.ref(den)
    assert den in expr._CERTIFIED and len(expr._CERTIFIED) == before + 1
    del q, den
    gc.collect()
    assert gone() is None and len(expr._CERTIFIED) <= before


def test_every_quotient_built_is_certified_on_its_own_region(monkeypatch):
    # a quotient is built by div, which certifies its denominator, or is
    # derived from a certified one (a derivative's den^2); so each one the
    # smooth demo and a round of every line suite build is proven again.
    # Edges kept by earlier tests would keep their derivatives too, and
    # those would not be built again here: start without them
    expr.rising_edge.cache_clear()
    expr.falling_edge.cache_clear()
    gc.collect()
    built = {}
    intern = expr._intern

    def kept(cls, key, fields):
        node = intern(cls, key, fields)
        if cls is Div:
            built[id(node)] = node
        return node
    monkeypatch.setattr(expr, "_intern", kept)
    sc = Scenario.load(SMOOTH)
    build_pou(sc.cover("C"), sc.k, sc.trunc)
    args = {"mv": (1,), "glue": (1, 1), "cosheaf": (1, 1), "flabby": (1,),
            "duality": (1, 2, 1), "jets": (1, 2)}
    for name in suites.SUITE_NAMES:
        extra = {} if name == "jets" else {"rounds": 1}
        suite = getattr(suites, "suite_" + name)
        assert suite(SmoothLine(), *args[name], 0, 1e-8, **extra)["pass"]
    assert len(built) > 10
    for q in built.values():
        # a derivative's den^2 is positive where den is
        den = q.den
        while den not in expr._CERTIFIED:
            den = den.base
        for region in expr._CERTIFIED[den]:
            expr.certify_positive(q.den, region)
