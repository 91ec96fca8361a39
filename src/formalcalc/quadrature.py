"""Definite integration of smooth expressions over bounded intervals.

Polynomial integrands are integrated exactly through their
antiderivative. Everything else is compiled once into a straight-line
float64 program (`expr.compile_f`: one statement per distinct subterm)
and goes to adaptive Gauss-Kronrod (G7, K15) quadrature, which calls
that program once per node. Quadrature runs with an absolute tolerance
(default 1e-10) and a hard budget of 10**6 integrand evaluations per
integral. Failure to converge within the budget raises QuadratureError.
One rule still passes a value without its tolerance: a panel narrower
than 1e-14 is accepted whatever its error estimate, so an integrand
with a steep enough feature can come back less accurate than asked,
and nothing says so.

While the outermost call of a check decorated with `shares_integrals`
runs, integrate_expr makes each distinct integral (interned node,
bounds with their types, abs_tol, budget: all its result depends on)
once and returns that result for a repeat. A QuadratureError is not
stored, and the memo ends with the outermost call.
"""

from __future__ import annotations

import contextvars
import functools
from fractions import Fraction

from .errors import QuadratureError
from .expr import Expr, compile_f, poly_coeffs, poly_definite_integral
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

    Polynomials with finite bounds integrate exactly to a QC; other
    integrands return a complex from adaptive quadrature. Inside a
    check that shares its integrals, a repeat returns the stored result.
    """
    memo = _shared.get()
    if memo is None:
        return _integrate(e, ranges, abs_tol, budget)
    # Fraction(1) and 1.0 are equal keys, but only the first bounds a
    # polynomial integral
    key = (e, tuple((type(lo), lo, type(hi), hi) for lo, hi in ranges),
           abs_tol, budget)
    if key not in memo:
        memo[key] = _integrate(e, ranges, abs_tol, budget)
    return memo[key]


def _integrate(e: Expr, ranges, abs_tol, budget):
    coeffs = poly_coeffs(e)
    if coeffs is not None:
        if not coeffs:
            return QC_ZERO
        acc = QC_ZERO
        for lo, hi in ranges:
            if not (isinstance(lo, (int, Fraction)) and isinstance(hi, (int, Fraction))):
                raise QuadratureError("polynomial integrand over an unbounded range")
            if lo >= hi:
                continue
            acc = acc + poly_definite_integral(coeffs, Fraction(lo), Fraction(hi))
        return acc
    return integrate_callable(compile_f(e), ranges, abs_tol, budget)
