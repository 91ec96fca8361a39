"""Definite integration of smooth expressions over bounded intervals.

Polynomial integrands are integrated exactly through their
antiderivative. Everything else is compiled once, from the same walk
of its nodes, into the typed float64 program of `expr._compile`: one
statement per distinct subterm, real ones in float arithmetic. While
values stay finite, its integral is bit for bit that of the complex
`expr.compile_f`. Adaptive Gauss-Kronrod (G7, K15) quadrature calls
that program once per node. Quadrature runs with an absolute tolerance
(default 1e-10) and a hard budget of 10**6 integrand evaluations per
integral. Failure to converge within the budget raises QuadratureError,
and so does the first panel whose error estimate is not finite (a NaN
or infinite integrand value, or an estimate past the float range):
such a panel is refused at once, not bisected until the budget is
gone. One rule still passes a value without its tolerance: a panel
narrower than 1e-14 is accepted whatever its (finite) error estimate,
so an integrand with a steep enough feature can come back less
accurate than asked, and nothing says so.

While the outermost call of a check decorated with `shares_integrals`
runs, integrate_expr makes each distinct integral (interned node,
bounds with their types, abs_tol, budget: all its result depends on)
once and returns that result for a repeat. A QuadratureError is not
stored, and the memo ends with the outermost call.

Integrals that are asked for together are made as groups: the
non-polynomial ones over equal (bounds, abs_tol, budget) compile one
program with a value per member. Each member keeps its own adaptive
quadrature, bit for bit, and reads its value from the group's table
per abscissa, so a node that several members' meshes share is
evaluated once. A member whose quadrature fails raises its error in
its turn, as alone; a member that the union program failed (another
member's subterm may raise) is integrated alone. A group of one is
integrated alone. Two entries ask for such groups:

- `integrate_exprs(items)`, the terms of one pairing: the items the
  running check's memo lacks (outside a check, a memo of the call's
  own) are made as groups, the rest read from the memo.
- `planned(run)`, inside a check, calls run twice. In the plan pass
  integrate_expr and integrate_exprs record each integral the memo
  lacks and return QC_ZERO; the recorded integrals are made as groups,
  and the real pass finds them in the memo.
"""

from __future__ import annotations

import contextvars
import functools
import math
from fractions import Fraction

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


def _gk15(f, lo: float, hi: float):
    """One Gauss-Kronrod panel: (kronrod value, |kronrod - gauss|)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    k = 0j
    g = 0j
    for i, t in enumerate(_XK):
        v = f(mid + half * t)
        k += _WK[i] * v
        if i % 2 == 1:
            g += _WG[i // 2] * v
    return half * k, abs(half * (k - g))


def integrate_callable(f, ranges, abs_tol=DEFAULT_ABS_TOL,
                       budget=DEFAULT_BUDGET) -> complex:
    """Adaptive quadrature of a float64 callable over bounded ranges."""
    total_len = 0.0
    segs = []
    for lo, hi in ranges:
        flo, fhi = float(lo), float(hi)
        if flo >= fhi:
            continue
        if flo == float("-inf") or fhi == float("inf"):
            raise QuadratureError("quadrature range is unbounded")
        segs.append((flo, fhi))
        total_len += fhi - flo
    if not segs:
        return 0j
    evals = 0
    acc = 0j
    stack = list(segs)
    while stack:
        lo, hi = stack.pop()
        if evals + 15 > budget:
            raise QuadratureError("evaluation budget %d exhausted with "
                                  "segment [%g, %g] unresolved" % (budget, lo, hi))
        val, err = _gk15(f, lo, hi)
        evals += 15
        if not math.isfinite(err):
            raise QuadratureError("integrand is not finite on segment "
                                  "[%g, %g]" % (lo, hi))
        share = abs_tol * (hi - lo) / total_len
        if err <= share or err <= 1e-16 * max(1.0, abs(val)) or hi - lo < 1e-14:
            acc += val
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid))
            stack.append((mid, hi))
    return acc


# (node, typed bounds, abs_tol, budget) -> result, while a check runs
_shared = contextvars.ContextVar("shared_integrals", default=None)
# the same keys -> their ranges, while a plan pass records them
_plan = contextvars.ContextVar("planned_integrals", default=None)


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
    check that shares its integrals, a repeat returns the stored
    result. In the plan pass of `planned` an integral not yet stored
    is only recorded and reads QC_ZERO; the group of integrals over its
    bounds is then made by one program before the real pass reads it.
    """
    memo = _shared.get()
    if memo is None:
        return _integrate(e, ranges, abs_tol, budget)
    key = _key(e, ranges, abs_tol, budget)
    if key not in memo:
        plan = _plan.get()
        if plan is not None:
            plan[key] = ranges
            return QC_ZERO
        memo[key] = _integrate(e, ranges, abs_tol, budget)
    return memo[key]


def integrate_exprs(items, abs_tol=DEFAULT_ABS_TOL, budget=DEFAULT_BUDGET):
    """[integrate_expr(e, ranges, abs_tol, budget) for e, ranges in items],
    the non-polynomial integrals over equal bounds made by one program
    (module docstring). Inside a check they join its memo; outside one a
    memo of the call's own makes equal items once."""
    if _plan.get() is not None:
        return [integrate_expr(e, ranges, abs_tol, budget)
                for e, ranges in items]
    memo = _shared.get()
    if memo is None:
        memo = {}
    keyed = [(_key(e, ranges, abs_tol, budget), ranges) for e, ranges in items]
    failed = _make_groups(memo, {key: ranges for key, ranges in keyed
                                 if key not in memo})
    out = []
    for key, ranges in keyed:
        if key not in memo:
            if key in failed:
                raise failed[key]
            # polynomial, or its group's program raised: made alone
            memo[key] = _integrate(key[0], ranges, abs_tol, budget)
        out.append(memo[key])
    return out


def _key(e, ranges, abs_tol, budget):
    """The memo key of an integral: all its result depends on. Fraction(1)
    and 1.0 are equal, but only the first bounds a polynomial integral."""
    return (e, tuple((type(lo), lo, type(hi), hi) for lo, hi in ranges),
            abs_tol, budget)


def planned(run):
    """run() after a plan pass has put the integrals it asks for into
    the running check's memo, one program per group (module docstring);
    just run() outside such a check."""
    memo = _shared.get()
    if memo is None:
        return run()
    plan = {}
    token = _plan.set(plan)
    try:
        run()
    except Exception:
        # planning stops here; the real pass meets the error again
        pass
    finally:
        _plan.reset(token)
    _make_groups(memo, plan)
    return run()


def _make_groups(memo, pending):
    """Put into memo the non-polynomial integrals of pending ({key:
    ranges}), one program per group of equal (bounds, abs_tol, budget).
    Returns {key: QuadratureError} for members whose quadrature failed;
    a member whose program raised is in neither, to be made alone."""
    groups = {}
    for key, ranges in pending.items():
        nodes = _postorder(key[0])
        if not _polynomial(nodes):
            groups.setdefault(key[1:], []).append((key, ranges, nodes))
    failed = {}
    for members in groups.values():
        if len(members) == 1:
            continue  # nothing to share: made alone
        # each member's postorder, first occurrences kept, is a postorder
        # of the union: every node still follows its children
        union = list(dict.fromkeys(n for *_, nodes in members for n in nodes))
        program = _compile(union, typed=True,
                           roots=[key[0] for key, _, _ in members])
        values = {}
        last = len(members) - 1
        for i, (key, ranges, _) in enumerate(members):
            rows = _TABLE_VALUES // len(members) if i < last else 0
            try:
                memo[key] = integrate_callable(
                    _component(program, values, i, rows), ranges, *key[2:])
            except QuadratureError as e:
                # it read only its own values: alone it raises the same
                failed[key] = e
            except ArithmeticError:
                pass  # perhaps another member's subterm: made alone
    return failed


# a group's table stops growing at this many values (rows times
# members): it bounds the table of a member that runs to the end of its
# budget; the largest table of the benchmark workloads, over seeds 1, 13
# and 9001, holds 42,390 values
_TABLE_VALUES = 1 << 18


def _component(program, values, i, rows):
    """Member i's integrand: its entry of the program's tuple at x. The
    tuple is kept in values while they hold fewer than rows, for a later
    member of the group to read."""
    def f(x):
        row = values.get(x)
        if row is None:
            row = program(x)
            if len(values) < rows:
                values[x] = row
        return row[i]
    return f


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
    return integrate_callable(_compile(nodes, typed=True), ranges, abs_tol, budget)
