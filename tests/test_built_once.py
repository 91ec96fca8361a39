"""Built once per process: program code objects and plateau edges.

A float64 program is written and compiled once per shape: its constants
are read by name from the namespace each run of `_compile` gets, so
integrands of one shape share one code object and keep their own
values, and a shape seen before skips the writer. A plateau
edge is kept per exact endpoint pair, so its node, and the proof `div`
holds for its denominator, outlive the task that built them. A
refusal is never kept.

Every test starts from empty caches, so its counts do not depend on
the tests run before it in the same process.
"""

import gc
import math
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from formalcalc import expr, spaces, suites
from formalcalc.errors import CertificateError
from formalcalc.expr import (
    Const,
    Div,
    _compile,
    _float_program,
    _postorder,
    falling_edge,
    parse_sexpr,
    rising_edge,
)
from formalcalc.quadrature import integrate_exprs
from formalcalc.scalars import QC
from formalcalc.scenario import Scenario
from formalcalc.sheaf import build_pou
from formalcalc.spaces import RSet, SmoothLine

SMOOTH = Path(__file__).resolve().parent.parent / "scenarios" \
    / "smooth_demo.json"

# four shapes, each under two sets of constants: a kernel of x - a, one
# of a - x, a complex power beside a kernel of order 2, and a quotient;
# the first and last, and the middle two, have texts of equal length in
# lines
SHAPES = [
    "(* (s (+ x -1)) (+ x 2))",
    "(* (s (+ x -3)) (+ x 5))",
    "(* (s (+ 1 (* -1 x))) (+ x 2))",
    "(* (s (+ 3 (* -1 x))) (+ x 7/2))",
    "(+ (pow (+ x (complex 1 2)) 3) (sm (+ x 1/2) 2))",
    "(+ (pow (+ x (complex -1 1/3)) 3) (sm (+ x 5/2) 2))",
    "(/ (s x) (+ (pow x 2) 1))",
    "(/ (s x) (+ (pow x 2) 7))",
]
POINTS = [-2.5, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 7.25]
# pairs of integrands whose shapes differ only in one field the program
# text reads: a power's exponent, a kernel's order, a constant's realness
SIBLINGS = {
    "Pow.n": ("(pow (+ x 1) 2)", "(pow (+ x 1) 3)"),
    "Kern.m": ("(sm (+ x 1) 1)", "(sm (+ x 1) 2)"),
    "Const realness": ("(s (+ x 1))", "(s (+ x (complex 1 1)))"),
}


@pytest.fixture
def counted(monkeypatch):
    """Empty the caches, and record from now on each text compiled and
    each (denominator, region) certify_positive is asked to prove."""
    for cache in (expr._code, rising_edge, falling_edge):
        cache.cache_clear()
    gc.collect()
    calls = {"compile": [], "certify": []}
    prove = expr.certify_positive

    def compiling(source, *args):
        calls["compile"].append(source)
        return compile(source, *args)

    def certifying(den, region):
        calls["certify"].append((den, region))
        prove(den, region)
    monkeypatch.setattr(expr, "compile", compiling, raising=False)
    monkeypatch.setattr(expr, "certify_positive", certifying)
    return calls


def fresh(e, roots=None):
    """e's program compiled from its own text, past every cache."""
    source, consts = _float_program(e, roots)
    namespace = {"exp": math.exp, **consts}
    exec(compile(source, "<fresh>", "exec"), namespace)
    return namespace["_f"]


def body(f):
    """What a program's code runs: its bytecode, constants and names."""
    return f.__code__.co_code, f.__code__.co_consts, f.__code__.co_names


def outcome(f, x):
    """f(x) as text, so that signed zeros and NaNs compare bit for bit,
    or the type of what it raised."""
    try:
        return repr(f(x))
    except ArithmeticError as exc:
        return type(exc).__name__


def test_integrands_of_one_shape_make_one_compile(counted):
    a = parse_sexpr(SHAPES[0])
    b = parse_sexpr(SHAPES[1])
    fa, fb = _compile(a), _compile(b)
    assert len(counted["compile"]) == 1
    assert fa.__code__ is fb.__code__
    assert fa(2.0) != fb(2.0)
    _compile(a)
    assert len(counted["compile"]) == 1
    info = expr._code.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


@pytest.fixture
def written(monkeypatch, counted):
    """Empty the caches, and record from now on each shape the program
    writer is asked to write."""
    shapes = []
    write = expr._write_program

    def writing(shape, panel):
        shapes.append(shape)
        return write(shape, panel)
    monkeypatch.setattr(expr, "_write_program", writing)
    return shapes


def test_a_repeated_shape_skips_the_writer(written):
    a = parse_sexpr(SHAPES[0])
    b = parse_sexpr(SHAPES[1])
    assert _compile(a)(2.0) != _compile(b)(2.0)
    assert len(written) == 1
    # the kernel zeros are 1 and 1: one group, so one union program,
    # written when the group is first integrated and never again
    items = [(parse_sexpr(s), [(Fraction(-4), Fraction(4))])
             for s in (SHAPES[0], SHAPES[2])]
    cold = list(integrate_exprs(items))
    assert len(written) == 2
    assert list(integrate_exprs(items)) == cold
    assert len(written) == 2


@pytest.mark.parametrize("field", sorted(SIBLINGS))
def test_shape_siblings_get_their_own_programs(field):
    # each sibling's program, lone and rooted, is the code of its own
    # text, whichever sibling was compiled first
    for text in SIBLINGS[field]:
        e = parse_sexpr(text)
        for roots in (None, [e]):
            f, own = _compile(e, roots), fresh(e, roots)
            assert body(f) == body(own), (text, roots)
            for x in POINTS:
                assert outcome(f, x) == outcome(own, x)


def test_each_program_has_the_bits_of_its_own_text(counted):
    trees = [parse_sexpr(s) for s in SHAPES]
    for e in trees:
        for roots in (None, [e], [_postorder(e)[1], e]):
            cached, own = _compile(e, roots), fresh(e, roots)
            for x in POINTS:
                assert outcome(cached, x) == outcome(own, x)
    # half the trees repeat a shape: one compile per shape, and each
    # shape here has a text of its own
    texts = {_float_program(e, roots)[0]
             for e in trees
             for roots in (None, [e], [_postorder(e)[1], e])}
    assert len(counted["compile"]) == len(texts) == 12


def test_rooted_and_lone_programs_never_share_a_code_object(counted):
    trees = [parse_sexpr(s) for s in SHAPES] + [Const(QC(1, 2))]
    for e in trees:
        codes = [_compile(e, roots).__code__ for roots in (None, [e])]
        assert len({id(c) for c in codes}) == 2
    assert _compile(trees[-1])(0.0) == 1 + 2j
    assert _compile(trees[-1], [trees[-1]])(0.0) == (1 + 2j,)


def test_a_group_integrates_to_the_same_bits_cold_and_warm(counted):
    # the four kernel zeros are 1, 3, 1 and 3: cut there, the integrals
    # form two groups, whose union programs differ in text (the first
    # group's members share the subterm x + 2)
    items = [(parse_sexpr(s), [(Fraction(-4), Fraction(4))])
             for s in SHAPES[:4]]
    cold = integrate_exprs(items)
    assert len(counted["compile"]) == 2
    warm = integrate_exprs(items)
    assert len(counted["compile"]) == 2
    assert [repr(complex(v)) for v in cold] == [repr(complex(v))
                                                  for v in warm]


def test_an_edge_and_its_proof_outlive_their_first_result(counted):
    a, b = Fraction(5, 17), Fraction(41, 17)
    first = weakref.ref(rising_edge(a, b))
    gc.collect()
    again = rising_edge(a, b)
    assert first() is again and type(again) is Div
    assert len(counted["certify"]) == 1
    assert expr.certified(again.den, RSet.whole())
    down = falling_edge(a, b)
    assert falling_edge(a, b) is down
    assert len(counted["certify"]) == 2


def test_equal_endpoints_share_one_entry(counted):
    assert rising_edge(1, 2) is rising_edge(Fraction(1), Fraction(2))
    assert falling_edge(Fraction(3), 4) is falling_edge(3, Fraction(4))
    assert rising_edge.cache_info().currsize == 1
    assert falling_edge.cache_info().currsize == 1
    assert len(counted["certify"]) == 2


def test_a_refused_edge_is_refused_every_time(counted):
    narrow = (-2, -2 + Fraction(1, 1024))
    for _ in range(2):
        with pytest.raises(CertificateError):
            rising_edge(*narrow)
        with pytest.raises(ValueError):
            rising_edge(2, 1)
        with pytest.raises(ValueError):
            falling_edge(1, 1)
    assert len(counted["certify"]) == 2
    assert rising_edge.cache_info().currsize == 0
    assert falling_edge.cache_info().currsize == 0


def test_every_edge_returned_holds_its_proof(monkeypatch, counted):
    # the smooth demo's partition and one line round of each suite: each
    # edge, built or read from the cache, is a quotient whose proof div
    # holds, and which is proven again on its own region
    returned = []

    def recording(edge):
        def wrapper(*ends):
            returned.append(edge(*ends))
            return returned[-1]
        return wrapper
    for module in (expr, spaces):
        monkeypatch.setattr(module, "rising_edge", recording(rising_edge))
        monkeypatch.setattr(module, "falling_edge", recording(falling_edge))
    sc = Scenario.load(SMOOTH)
    build_pou(sc.cover("C"), sc.k, sc.trunc)
    args = {"mv": (1,), "glue": (1, 1), "cosheaf": (1, 1), "flabby": (1,),
            "duality": (1, 2, 1), "jets": (1, 2)}
    for name in suites.SUITE_NAMES:
        extra = {} if name == "jets" else {"rounds": 1}
        suite = getattr(suites, "suite_" + name)
        assert suite(SmoothLine(), *args[name], 0, 1e-8, **extra)["pass"]
    hits = rising_edge.cache_info().hits + falling_edge.cache_info().hits
    assert hits > 10 and len(returned) > hits
    proofs = set()
    for q in returned:
        # an edge is proven on the whole line
        assert type(q) is Div and expr.certified(q.den, RSet.whole())
        proofs.add((q.den, RSet.whole()))
    # no edge is proven twice, and the cache returns most of them
    asked = Counter(p for p in counted["certify"] if p in proofs)
    assert set(asked.values()) == {1} and len(proofs) < len(returned)
    for den, region in proofs:
        expr.certify_positive(den, region)
