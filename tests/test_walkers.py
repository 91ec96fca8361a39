"""The fold over an expression against the recursive walkers it replaced.

`tree_ev`, `tree_ibounds`, `tree_diff1` and `tree_sexpr` are the
recursive evaluation, interval bounds, derivative and printing that
`expr` had before every walk became one fold over `_postorder`, and
`tree_eq` is the structural equality its nodes compared through their
keys. They stay here as oracles: on seeded random DAGs with shared
subterms the fold must give the same values, the same bounds bit for
bit, the same printed derivative and the same equalities, or raise the
same exception.
"""

import random
from fractions import Fraction

from mpmath import mp, mpf

from formalcalc.errors import BackendError, CertificateError
from formalcalc.expr import (
    NEG_INF,
    ONE,
    POS_INF,
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
    diff,
    ev,
    ibounds,
    mul,
    pow_,
    sub,
    to_sexpr,
    _div_unchecked,
    _hi_widen,
    _lo_widen,
    _pmul,
    _postorder,
    _sm_f,
    _vadd,
    _vdiv,
    _vmul,
    _vpow,
)
from formalcalc.scalars import QC, QC_ZERO, rat_str

from test_compiled import rand_tree


def tree_ev(e, x):
    """Recursive exact / mpmath evaluation."""
    if isinstance(e, Const):
        return e.v
    if isinstance(e, Var):
        if isinstance(x, (int, Fraction)):
            return QC(x)
        return mpf(x)
    if isinstance(e, Add):
        return _vadd(tree_ev(e.a, x), tree_ev(e.b, x))
    if isinstance(e, Mul):
        return _vmul(tree_ev(e.a, x), tree_ev(e.b, x))
    if isinstance(e, Div):
        return _vdiv(tree_ev(e.num, x), tree_ev(e.den, x))
    if isinstance(e, Pow):
        return _vpow(tree_ev(e.base, x), e.n)
    if isinstance(e, Kern):
        t = tree_ev(e.arg, x)
        if isinstance(t, QC):
            if not t.is_real:
                raise BackendError("kernel argument is not real")
            if t.re <= 0:
                return QC_ZERO
            tm = mpf(t.re.numerator) / mpf(t.re.denominator)
        else:
            # an mpc of any mpmath context: the package keeps its own
            if hasattr(t, "_mpc_"):
                if t.imag != 0:
                    raise BackendError("kernel argument is not real")
                t = t.real
            if t <= 0:
                return QC_ZERO
            tm = t
        return mp.exp(-1 / tm) / (tm ** e.m if e.m else 1)
    raise TypeError("unknown expression node %r" % (e,))


def tree_ibounds(e, lo, hi):
    """Recursive conservative real bounds over [lo, hi]."""
    if isinstance(e, Const):
        if not e.v.is_real:
            raise CertificateError("non-real constant inside a certified denominator")
        v = float(e.v.re)
        return (_lo_widen(v), _hi_widen(v))
    if isinstance(e, Var):
        return (lo, hi)
    if isinstance(e, Add):
        a = tree_ibounds(e.a, lo, hi)
        b = tree_ibounds(e.b, lo, hi)
        return (_lo_widen(a[0] + b[0]), _hi_widen(a[1] + b[1]))
    if isinstance(e, Mul):
        a = tree_ibounds(e.a, lo, hi)
        b = tree_ibounds(e.b, lo, hi)
        cands = [_pmul(a[i], b[j]) for i in (0, 1) for j in (0, 1)]
        return (_lo_widen(min(cands)), _hi_widen(max(cands)))
    if isinstance(e, Div):
        a = tree_ibounds(e.num, lo, hi)
        b = tree_ibounds(e.den, lo, hi)
        if b[0] <= 0.0 <= b[1]:
            return (NEG_INF, POS_INF)
        cands = []
        for x in a:
            for y in b:
                if y == 0.0:
                    continue
                if (x == POS_INF or x == NEG_INF) and (y == POS_INF or y == NEG_INF):
                    continue
                if x == 0.0:
                    cands.append(0.0)
                elif y == POS_INF or y == NEG_INF:
                    cands.append(0.0)
                else:
                    cands.append(x / y)
        if a[0] == NEG_INF or a[1] == POS_INF:
            cands.extend([NEG_INF, POS_INF])
        return (_lo_widen(min(cands)), _hi_widen(max(cands)))
    if isinstance(e, Pow):
        a = tree_ibounds(e.base, lo, hi)
        n = e.n
        if n % 2 == 1:
            vals = (a[0] ** n if a[0] != NEG_INF else NEG_INF,
                    a[1] ** n if a[1] != POS_INF else POS_INF)
            return (_lo_widen(vals[0]), _hi_widen(vals[1]))
        mag = max(abs(a[0]), abs(a[1]))
        top = POS_INF if mag == POS_INF else mag ** n
        if a[0] <= 0.0 <= a[1]:
            bot = 0.0
        else:
            low = min(abs(a[0]), abs(a[1]))
            bot = low ** n
        return (_lo_widen(bot), _hi_widen(top))
    if isinstance(e, Kern):
        u1, u2 = tree_ibounds(e.arg, lo, hi)
        if u2 <= 0.0:
            return (0.0, 0.0)
        m = e.m
        if m == 0:
            lo_v = _sm_f(u1, 0) if u1 > 0.0 else 0.0
            hi_v = _sm_f(u2, 0)
            return (_lo_widen(lo_v), _hi_widen(hi_v))
        peak = 1.0 / m
        if u2 <= peak:
            lo_v = _sm_f(u1, m) if u1 > 0.0 else 0.0
            hi_v = _sm_f(u2, m)
        elif u1 >= peak:
            lo_v = _sm_f(u2, m)
            hi_v = _sm_f(u1, m)
        else:
            lo_v = 0.0 if u1 <= 0.0 else min(_sm_f(u1, m), _sm_f(u2, m))
            hi_v = _sm_f(peak, m)
        return (_lo_widen(lo_v), _hi_widen(hi_v))
    raise TypeError("unknown expression node %r" % (e,))


def tree_diff1(e):
    """Recursive first derivative, rebuilt along every path."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE
    if isinstance(e, Add):
        return add(tree_diff1(e.a), tree_diff1(e.b))
    if isinstance(e, Mul):
        return add(mul(tree_diff1(e.a), e.b), mul(e.a, tree_diff1(e.b)))
    if isinstance(e, Div):
        num = sub(mul(tree_diff1(e.num), e.den), mul(e.num, tree_diff1(e.den)))
        return _div_unchecked(num, pow_(e.den, 2))
    if isinstance(e, Pow):
        return mul(mul(Const(e.n), pow_(e.base, e.n - 1)), tree_diff1(e.base))
    if isinstance(e, Kern):
        inner = add(Kern(e.arg, e.m + 2), mul(Const(-e.m), Kern(e.arg, e.m + 1)))
        return mul(inner, tree_diff1(e.arg))
    raise TypeError("unknown expression node %r" % (e,))


def tree_sexpr(e):
    """Recursive S-expression printing."""
    if isinstance(e, Const):
        v = e.v
        if v.im == 0:
            return rat_str(v.re)
        return "(complex %s %s)" % (rat_str(v.re), rat_str(v.im))
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Add):
        return "(+ %s %s)" % (tree_sexpr(e.a), tree_sexpr(e.b))
    if isinstance(e, Mul):
        return "(* %s %s)" % (tree_sexpr(e.a), tree_sexpr(e.b))
    if isinstance(e, Div):
        return "(/ %s %s)" % (tree_sexpr(e.num), tree_sexpr(e.den))
    if isinstance(e, Pow):
        return "(pow %s %d)" % (tree_sexpr(e.base), e.n)
    if isinstance(e, Kern):
        if e.m == 0:
            return "(s %s)" % tree_sexpr(e.arg)
        return "(sm %s %d)" % (tree_sexpr(e.arg), e.m)
    raise TypeError("unknown expression node %r" % (e,))


def tree_eq(a, b):
    """Equal node kinds, constant values, n or m and children, compared
    recursively; the region of a quotient is not compared."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Const):
        return (a.v.re, a.v.im) == (b.v.re, b.v.im)
    if isinstance(a, Var):
        return True
    if isinstance(a, (Add, Mul)):
        return tree_eq(a.a, b.a) and tree_eq(a.b, b.b)
    if isinstance(a, Div):
        return tree_eq(a.num, b.num) and tree_eq(a.den, b.den)
    if isinstance(a, Pow):
        return tree_eq(a.base, b.base) and a.n == b.n
    return tree_eq(a.arg, b.arg) and a.m == b.m


def outcome(f, *args):
    """A comparable result: exact values as they are, mpmath values and
    floats by repr (so NaN and signed zeros compare), else the exception
    type."""
    try:
        v = f(*args)
    except Exception as exc:
        return type(exc)
    if isinstance(v, tuple):
        return tuple(map(repr, v))
    return v if isinstance(v, QC) else repr(v)


# No point just right of 0: there a kernel of a kernel, such as
# (sm (s (* x x x)) 2) at 0.001, asks mpmath for exp(-1/t) with t near
# 10^-434294482, which does not finish in minutes, fold or recursion.
RATIONAL_POINTS = (0, 1, -2, Fraction(1, 3), Fraction(-3, 2))
FLOAT_POINTS = (0.0, -0.0, 0.3, -1.7, 2.5)
INTERVALS = ((0.0, 1.0), (-2.0, 0.5), (0.25, 0.25), (1e-3, 7.0),
             (NEG_INF, POS_INF), (0.0, POS_INF))


def seeded_dags(seed, count=200):
    """Random DAGs drawing on one pool of earlier subterms, so they share
    subterms within and across each other; an equal-seeded twin rebuilds
    every one of them from new objects."""
    rng = random.Random(seed)
    pool = []
    return [rand_tree(rng, rng.randint(2, 6), pool) for _ in range(count)]


def test_values_and_bounds_match_the_recursive_walkers():
    raised = set()
    for e in seeded_dags(23):
        for x in RATIONAL_POINTS + FLOAT_POINTS:
            with mp.workdps(30):
                want = outcome(tree_ev, e, x)
            assert outcome(ev, e, x) == want, (e, x)
            if isinstance(want, type):
                raised.add(want)
        for lo, hi in INTERVALS:
            want = outcome(tree_ibounds, e, lo, hi)
            assert outcome(ibounds, e, lo, hi) == want, (e, lo, hi)
            if isinstance(want, type):
                raised.add(want)
    # the seeded sample reaches zero divisors, non-real kernel arguments
    # and non-real constants inside bounds
    assert {ZeroDivisionError, BackendError, CertificateError} <= raised


def test_printing_and_derivatives_match_the_recursive_walkers():
    for e in seeded_dags(29):
        assert to_sexpr(e) == tree_sexpr(e)
        want = outcome(lambda: tree_sexpr(tree_diff1(e)))
        assert outcome(lambda: to_sexpr(diff(e))) == want, e


def test_equality_and_hash_match_structural_keys():
    equal_pairs = 0
    for e, twin in zip(seeded_dags(31), seeded_dags(31)):
        assert e == twin and hash(e) == hash(twin)
        left, right = _postorder(e)[:15], _postorder(twin)[:15]
        for a in left:
            for b in right:
                want = tree_eq(a, b)
                assert (a == b) == want and (a != b) != want, (a, b)
                if want:
                    assert hash(a) == hash(b)
                    equal_pairs += 1
        q = Div(e, add(X, Const(3)))
        r = Div(twin, add(X, Const(3)))
        assert q == r and hash(q) == hash(r)
        assert e != to_sexpr(e) and e != Add(e, ZERO)
    assert equal_pairs > 500
