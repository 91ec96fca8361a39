"""Definite integration of smooth expressions over bounded intervals.

Polynomial integrands are integrated exactly through their
antiderivative. Everything else is written, from the same walk of its
nodes, as the panel form of the float64 program of `expr._compile`:
each distinct subterm computed once, a subterm read once written
inside its reader, real ones in float arithmetic.
Adaptive Gauss-Kronrod (G7, K15) quadrature makes one program call per
panel: the program runs the panel's 15 abscissas and sums its own
Kronrod and Gauss rules, a real integrand's in float. A program is
written and compiled once per shape (`expr._shape`) in a process, and
integrands of one shape share it, each with its own constants. The
loop adds each accepted panel to a sum started at 0j, so an integral
is a complex, bit for bit the one `integrate_callable` (which sums a
callable's rules in Python, from 0j) makes of the integrand's program.
Quadrature runs with an absolute tolerance (default 1e-10) and a hard
budget of 10**6 integrand evaluations per integral. Failure to
converge within the budget raises QuadratureError, and so does the
first panel whose error estimate is not finite (a NaN or infinite
integrand value, or an estimate past the float range): such a panel is
refused at once, not bisected until the budget is gone.
One rule still passes a value without its tolerance: a panel narrower
than 1e-14 is accepted whatever its (finite) error estimate, so an
integrand with a steep enough feature can come back less accurate than
asked, and nothing says so.

A flat kernel exp(-1/t) is smooth but not analytic where t = 0, and
bisection spends its panels there. So a non-polynomial integral's
ranges are cut, in float, at the zeros of its real affine kernel
arguments that lie strictly inside them (`expr._kernel_zeros`, which
a kernel node keeps), and the segments are walked as its ranges
(QUADPACK's QAGP takes break points for the same reason). The cuts
are per member: they depend on its own integrand alone, and a panel's
share of the tolerance is its width over the total length, which
cutting keeps.

Integrals are made in batches (`integrate_exprs`; `integrate_expr` is
a batch of one), each distinct integral (interned node, bounds with
their types, abs_tol, budget: all its result depends on) once per
batch. The non-polynomial ones over equal (cut ranges, abs_tol,
budget) form a group: one program with a value per member, and one
adaptive loop that walks the union of their meshes, one program call
per panel: every member keeps its own accept-or-split decisions, its
panels and its bits. The walk fails fast: a member whose quadrature
fails keeps its error, as alone, with no second run, and every later
member of its group is stopped. A member that the union program failed
(another member's subterm may raise) stops nothing and is made again
as a group of one. All of a batch is made at once, and a failed item
raises only when it is read. Its items are the terms of a pairing, or
of every section a check reads against its family
(`functions.read_pairings`). A batch is read in entry order up to its
first error, so what a stopped member holds is an error that is never
read.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import add, mul

from .errors import QuadratureError
from .expr import (Expr, _compile, _kernel_zeros, _poly_coeffs, _polynomial,
                   _postorder, poly_definite_integral)
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
    and Gauss sums on [mid - half, mid + half] (`expr._write_program`).
    One walk of the bisection tree, depth first and right half first,
    one program call per panel; each member splits, accepts and spends
    its budget on its own, in the order it would alone, until one's
    quadrature fails: that stops every later member (`_fail`). A panel's
    ArithmeticError stops no member, since it may be another's."""
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
                _fail(out, i, QuadratureError(
                    "evaluation budget %d exhausted with segment [%g, %g] "
                    "unresolved" % (budget, lo, hi)))
                break
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
                _fail(out, i, QuadratureError(
                    "integrand is not finite on segment [%g, %g]" % (lo, hi)))
                break
            if (err <= share or err <= 1e-16 * max(1.0, abs(val))
                    or hi - lo < 1e-14):
                out[i] += val
            else:
                split.append(i)
        if split:
            stack.append((lo, mid, split))
            stack.append((mid, hi, split))
    return out


def _fail(out, i, error):
    """Store member i's quadrature error, and stop every later member:
    a batch is read in entry order up to its first error."""
    out[i] = error
    out[i + 1:] = [QuadratureError("not integrated: an earlier member of "
                                   "its group failed")] * (len(out) - i - 1)


def integrate_expr(e: Expr, ranges, abs_tol=DEFAULT_ABS_TOL,
                   budget=DEFAULT_BUDGET):
    """Integrate an expression over a list of (lo, hi) bounds: a batch
    of one (`integrate_exprs`).

    Polynomials with exact bounds integrate exactly to a QC; other
    integrands return a complex from adaptive quadrature.
    """
    return next(integrate_exprs([(e, ranges)], abs_tol, budget))


def integrate_exprs(items, abs_tol=DEFAULT_ABS_TOL, budget=DEFAULT_BUDGET):
    """An iterator over the integrals of e over ranges, for e, ranges in
    items. Every integral is made by the call, each distinct one once,
    the non-polynomial ones over equal bounds by one program (module
    docstring); a failed one raises only when the iterator reaches it.
    Read it in order up to its first error: after that one, an integral
    of the failed one's group is not made, and raises no error of its own."""
    # each item's key is hashed once: pending maps it to (place, ranges),
    # and memo each place to its integral
    memo, pending = {}, {}
    places = [pending.setdefault(_key(e, r, abs_tol, budget), (len(pending), r))[0]
              for e, r in items]
    _make_groups(memo, pending)
    return map(_read, [memo[i] for i in places])


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
    """Put into memo[i] each integral of pending ({key: (i, ranges)}),
    polynomials exact, the others one program per group of equal (cut
    ranges, abs_tol, budget); a failed one's entry is its error."""
    groups = {}
    for key, (i, ranges) in pending.items():
        nodes = _postorder(key[0])
        if not _polynomial(nodes):
            cut = _cut(ranges, _kernel_zeros(nodes))
            groups.setdefault((cut, *key[2:]), []).append((i, cut, nodes))
            continue
        try:
            memo[i] = _integrate(nodes, ranges)
        except (ArithmeticError, ValueError, QuadratureError) as e:
            memo[i] = e  # past the degree cap too: raised in its turn
    for (_, abs_tol, budget), members in groups.items():
        for member, out in zip(members, _walk(members, abs_tol, budget)):
            # a value, the QuadratureError the member met alone, or the
            # stop after an earlier member's; an ArithmeticError of a
            # larger group may be another member's: made again as a
            # group of one, which keeps its own
            if isinstance(out, ArithmeticError) and len(members) > 1:
                out, = _walk([member], abs_tol, budget)
            memo[member[0]] = out


def _cut(ranges, zeros):
    """The ranges in float, each cut at the zeros strictly inside it: the
    segments `_adaptive` walks. A zero that rounds to an end of its range
    would cut off a segment that floats to nothing, so it is left out."""
    zs = sorted({float(z) for z in zeros})
    out = []
    for lo, hi in ranges:
        lo, hi = float(lo), float(hi)
        ends = [lo, *(z for z in zs if lo < z < hi), hi]
        out.extend(zip(ends, ends[1:]))
    return tuple(out)


def _walk(members, abs_tol, budget):
    """The outcomes of one adaptive walk of the members' union program
    over their common cut ranges."""
    # each member's postorder, first occurrences kept, is a postorder of
    # the union: every node still follows its children
    union = list(dict.fromkeys(n for *_, nodes in members for n in nodes))
    try:
        panel = _compile(union, roots=[nodes[-1] for *_, nodes in members],
                         rule=_RULE)
    except ArithmeticError as e:  # a constant past the float range
        return [e] * len(members)
    return _adaptive(panel, len(members), members[0][1], abs_tol, budget)


def _integrate(nodes, ranges):
    """The exact integral of a polynomial, given its `_postorder` list."""
    coeffs = _poly_coeffs(nodes)
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
