"""Definite integration of smooth expressions over bounded intervals.

Polynomial integrands are integrated exactly through their
antiderivative. Everything else is written, from the same walk of its
nodes, as the panel form of the typed float64 program of
`expr._compile`: one statement per distinct subterm, real ones in float
arithmetic. Adaptive Gauss-Kronrod (G7, K15) quadrature makes one
program call per panel: the program runs the panel's 15 abscissas and
sums its own Kronrod and Gauss rules, a real integrand's in float. A
program text is compiled once per process, and integrands of one shape
share it, each with its own constants. Each sum is bit for bit one
started at 0j, so an integral is a complex, and while values stay
finite it is bit for bit that of the complex `expr.compile_f`
(`integrate_callable`, which sums a callable's rules in Python, is that
sum). Quadrature runs with an absolute tolerance (default 1e-10) and a
hard budget of 10**6 integrand evaluations per integral. Failure to
converge within the budget raises QuadratureError, and so does the
first panel whose error estimate is not finite (a NaN or infinite
integrand value, or an estimate past the float range): such a panel is
refused at once, not bisected until the budget is gone. One rule still
passes a value without its tolerance: a panel narrower than 1e-14 is
accepted whatever its (finite) error estimate, so an integrand with a
steep enough feature can come back less accurate than asked, and
nothing says so.

While the outermost call of a check decorated with `shares_integrals`
runs, integrate_expr makes each distinct integral (interned node,
bounds with their types, abs_tol, budget: all its result depends on)
once and returns that result for a repeat (it raises a group
member's stored QuadratureError). The memo ends with the outermost call.

Integrals that are asked for together are made as groups: the
non-polynomial ones over equal (bounds, abs_tol, budget) compile one
program with a value per member, and one adaptive loop walks the
union of their meshes, one program call per panel: every member
keeps its own accept-or-split decisions, its panels and its bits. A
member whose quadrature fails raises its error in its turn, as alone,
with no second run; a member that the union program failed (another
member's subterm may raise) is integrated alone. A group of one is
integrated alone. `integrate_exprs(items)` asks for such groups: the
items the running check's memo lacks (outside a check, a memo of the
call's own) are made as groups, the rest read from the memo. Its items
are the terms of a pairing, or of every pairing of a probe family
(`functions.read_pairings`).
"""

from __future__ import annotations

import contextvars
import functools
import math
from fractions import Fraction
from operator import add, mul

from .errors import QuadratureError
from .expr import (Expr, _compile, _poly_coeffs, _polynomial, _postorder,
                   poly_definite_integral)
from .scalars import QC_ZERO

DEFAULT_ABS_TOL = 1e-10
DEFAULT_BUDGET = 10 ** 6

# Kronrod 15-point nodes on [-1, 1]; the odd positions are the embedded
# Gauss 7-point rule.
_XK = (
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0,
    0.2077849550078985, 0.4058451513773972, 0.5860872354676911,
    0.7415311855993945, 0.8648644233597691, 0.9491079123427585,
    0.9914553711208126,
)
_WK = (
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
    0.2044329400752989, 0.1903505780647854, 0.1690047266392679,
    0.1406532597155259, 0.1047900103222502, 0.0630920926299786,
    0.0229353220105292,
)
_WG = (
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
)
# (abscissa, Kronrod weight, Gauss weight or 0.0) in node order: the
# rule a panel program sums
_RULE = tuple(zip(_XK, _WK, (0.0, *(w for g in _WG for w in (g, 0.0)))))


def integrate_callable(f, ranges, abs_tol=DEFAULT_ABS_TOL,
                       budget=DEFAULT_BUDGET) -> complex:
    """Adaptive quadrature of a float64 callable: `_adaptive` of the
    panel whose one root is f, each rule summed term by term in node
    order from 0j."""
    def panel(mid, half):
        ys = [f(mid + half * t) for t in _XK]
        return ((functools.reduce(add, map(mul, _WK, ys), 0j),),
                (functools.reduce(add, map(mul, _WG, ys[1::2]), 0j),))
    out, = _adaptive(panel, 1, ranges, abs_tol, budget)
    return _read(out)


def _adaptive(panel, n, ranges, abs_tol, budget):
    """The n outcomes of the adaptive quadratures of a panel program's
    roots: a complex, or the exception the member met (the program's may
    be another member's). panel(mid, half) returns the roots' Kronrod
    and Gauss sums on [mid - half, mid + half] (`expr._float_program`).
    One walk of the bisection tree, depth first and right half first,
    one program call per panel; each member splits, accepts and spends
    its budget on its own, in the order it would."""
    total_len = 0.0
    segs = []
    for lo, hi in ranges:
        flo, fhi = float(lo), float(hi)
        if flo >= fhi:
            continue
        if flo == float("-inf") or fhi == float("inf"):
            return [QuadratureError("quadrature range is unbounded")
                    for _ in range(n)]
        segs.append((flo, fhi))
        total_len += fhi - flo
    out = [0j] * n
    evals = [0] * n
    stack = [(lo, hi, range(n)) for lo, hi in segs]
    while stack:
        lo, hi, members = stack.pop()
        live = []
        for i in members:
            if type(out[i]) is not complex:
                continue  # it failed on an earlier panel
            if evals[i] + 15 > budget:
                out[i] = QuadratureError(
                    "evaluation budget %d exhausted with segment [%g, %g] "
                    "unresolved" % (budget, lo, hi))
            else:
                evals[i] += 15
                live.append(i)
        if not live:
            continue
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        try:
            ks, gs = panel(mid, half)
        except ArithmeticError as e:
            for i in live:
                out[i] = e
            continue
        share = abs_tol * (hi - lo) / total_len
        split = []
        for i in live:
            k, g = ks[i], gs[i]
            val, err = half * k, abs(half * (k - g))
            if not math.isfinite(err):
                out[i] = QuadratureError("integrand is not finite on "
                                         "segment [%g, %g]" % (lo, hi))
            elif (err <= share or err <= 1e-16 * max(1.0, abs(val))
                  or hi - lo < 1e-14):
                out[i] += val
            else:
                split.append(i)
        if split:
            stack.append((lo, mid, split))
            stack.append((mid, hi, split))
    return out


# (node, typed bounds, abs_tol, budget) -> result, while a check runs
_shared = contextvars.ContextVar("shared_integrals", default=None)


def shares_integrals(check):
    """Decorate a check so that integrate_expr integrates each distinct
    integral once while the check's outermost call runs. A nested call
    joins the running check's memo."""
    @functools.wraps(check)
    def scoped(*args, **kw):
        if _shared.get() is not None:
            return check(*args, **kw)
        token = _shared.set({})
        try:
            return check(*args, **kw)
        finally:
            _shared.reset(token)
    return scoped


def integrate_expr(e: Expr, ranges, abs_tol=DEFAULT_ABS_TOL,
                   budget=DEFAULT_BUDGET):
    """Integrate an expression over a list of (lo, hi) bounds.

    Polynomials with exact bounds integrate exactly to a QC; other
    integrands return a complex from adaptive quadrature. Inside a
    check that shares its integrals, a repeat returns the stored result.
    """
    memo = _shared.get()
    if memo is None:
        return _integrate(e, ranges, abs_tol, budget)
    key = _key(e, ranges, abs_tol, budget)
    if key not in memo:
        memo[key] = _integrate(e, ranges, abs_tol, budget)
    return _read(memo[key])


def integrate_exprs(items, abs_tol=DEFAULT_ABS_TOL, budget=DEFAULT_BUDGET):
    """[integrate_expr(e, ranges, abs_tol, budget) for e, ranges in items],
    the non-polynomial integrals over equal bounds made by one program
    (module docstring). Inside a check they join its memo; outside one a
    memo of the call's own makes equal items once."""
    memo = _shared.get()
    if memo is None:
        memo = {}
    keyed = [(_key(e, ranges, abs_tol, budget), ranges) for e, ranges in items]
    _make_groups(memo, {key: ranges for key, ranges in keyed
                        if key not in memo})
    out = []
    for key, ranges in keyed:
        if key not in memo:
            # polynomial, or its group's program raised: made alone
            memo[key] = _integrate(key[0], ranges, abs_tol, budget)
        out.append(_read(memo[key]))
    return out


def _read(stored):
    """A memo entry's result; a stored exception is raised."""
    if isinstance(stored, Exception):
        raise stored
    return stored


def _key(e, ranges, abs_tol, budget):
    """The memo key of an integral: all its result depends on. Fraction(1)
    and 1.0 are equal, but only the first bounds a polynomial integral."""
    return (e, tuple((type(lo), lo, type(hi), hi) for lo, hi in ranges),
            abs_tol, budget)


def _make_groups(memo, pending):
    """Put into memo the non-polynomial integrals of pending ({key:
    ranges}), one program per group of equal (bounds, abs_tol, budget).
    A failed member's entry is its QuadratureError, for _read to raise;
    a member whose program raised gets none, to be made alone."""
    groups = {}
    for key, ranges in pending.items():
        nodes = _postorder(key[0])
        if not _polynomial(nodes):
            groups.setdefault(key[1:], []).append((key, ranges, nodes))
    for (_, abs_tol, budget), members in groups.items():
        if len(members) == 1:
            continue  # nothing to share: made alone
        # each member's postorder, first occurrences kept, is a postorder
        # of the union: every node still follows its children
        union = list(dict.fromkeys(n for *_, nodes in members for n in nodes))
        panel = _compile(union, typed=True,
                         roots=[key[0] for key, _, _ in members], rule=_RULE)
        outcomes = _adaptive(panel, len(members), members[0][1], abs_tol,
                             budget)
        for (key, _, _), out in zip(members, outcomes):
            if not isinstance(out, ArithmeticError):
                # a value, or the QuadratureError the member met alone;
                # an ArithmeticError may be another member's: made alone
                memo[key] = out


def _integrate(e: Expr, ranges, abs_tol, budget):
    nodes = _postorder(e)
    coeffs = _poly_coeffs(nodes)
    if coeffs is not None:
        if not coeffs:
            return QC_ZERO
        acc = QC_ZERO
        for lo, hi in ranges:
            if not (isinstance(lo, (int, Fraction)) and isinstance(hi, (int, Fraction))):
                raise QuadratureError("a polynomial integrand needs exact (int "
                                      "or Fraction) bounds, not %r" % ((lo, hi),))
            if lo >= hi:
                continue
            acc = acc + poly_definite_integral(coeffs, Fraction(lo), Fraction(hi))
        return acc
    out, = _adaptive(_compile(nodes, typed=True, roots=[e], rule=_RULE), 1,
                     ranges, abs_tol, budget)
    return _read(out)
