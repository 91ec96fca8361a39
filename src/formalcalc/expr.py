"""Smooth expression trees over the real line.

Closure grammar: exact complex rational constants, the coordinate x,
sums, products, certified quotients, nonnegative integer powers, and
composition with the flat kernel family

    s_m(t) = exp(-1/t) / t^m   for t > 0,      0 for t <= 0.

s_0 is the plain smoothstep kernel s. The family is closed under
differentiation, s_m' = s_{m+2} - m*s_{m+1}, which is why the kernel
node carries the integer m: the derivative of s(e) would otherwise
need the quotient s(e)/e^2, whose denominator vanishes at e = 0.

Serialized form is a prefix S-expression: x, a rational literal (an
integer, p/q, or a decimal read exactly, in ASCII digits), or a
compound form whose head, argument kinds and builder are an entry of
`_FORMS`, the grammar's one statement: `parse_sexpr` reads it and
`to_sexpr` prints it, (+ ...) and (* ...) as nested binary nodes.
(sm e m) appears only in derivatives of kernels, (complex re im) only
when a coefficient was scaled by a non-real scalar.

Evaluation at a rational point is exact (a QC) until a kernel with a
positive argument or an inexact operand enters; from there on values
are mpmath floats carried at 30 significant digits, so kernel tails
never underflow and plateau ratios of equal values divide to exactly 1.

Float64 evaluation compiles the expression once into a straight-line
function of x (`_compile`; `ev_f` is its one-point entry) that computes
each distinct subterm once, a subterm read once inside its reader. A
real subterm (x, a kernel, a real constant, or one whose children are
all real) is computed in float arithmetic and any other in complex
arithmetic, by one expression per node kind, so a real power is the
float power, whose bits are the C library's `pow`; a real value is
returned as a float. A kernel argument's orders share its exp(-1/t).
Quadrature runs its panel form: one call per panel runs the panel's
abscissas and sums each root's Kronrod and Gauss rules, a real root's
in float. A program is written and compiled once per shape (`_shape`)
and reads its constants by name, so integrands of one shape share it.

Nodes are interned where they are built (`Expr.__new__`): one
structure is one live object, so `==` and `hash` are object identity
and printing is for output only.

`_fold` over `_postorder` is the one walk: evaluation, bounds,
derivatives, printing, `poly_coeffs` and the program visit each
distinct node once, children first, so only the parser recurses. A
node keeps its first derivative while it lives (`diff`): d/dx is taken
once per node, the derivative of a shared subterm is shared, and a
later order or a larger tree walks only the nodes not yet
differentiated.

Quotient denominators are certified positive at construction by exact
adaptive interval bisection over the region where the quotient will be
evaluated (the whole line by default), and the proof is kept beside
the denominator node (`certified`), not on the quotient. The bisection
starts from the region cut at the midpoints between consecutive zeros
of the denominator's real affine kernel arguments (`_seeds`): an edge
s(x - a) + s(b - x) is proved on one piece each side of (a + b)/2.
Those zeros have one reader, `_kernel_zeros`, and a kernel node keeps
its argument's zero once read, as it keeps its derivative; quadrature
cuts an integral's ranges at the same zeros.

Two lists of (coefficient, bound) terms are proved equal on the pieces
of their bounds (`equal_on_pieces`): on each piece a kernel that is 0
there is 0, a quotient over a denominator certified there is a
fraction, and the difference expands, within a budget, to N/D with N
exactly 0. The rule is sound and incomplete: False means unknown.
"""

from __future__ import annotations

import functools
import math
import operator
import re as _re
import weakref
from collections import Counter
from fractions import Fraction

from mpmath import MPContext

from .errors import BackendError, CertificateError, UndecidedCertificateError
from .scalars import QC, QC_ONE, QC_ZERO, qc, qc_map_add, qc_map_mul, rat_str

# the package's own mpmath context: evaluation carries 30 digits whatever
# precision a caller sets on mpmath's global mp, which it never touches
_MP = MPContext()
_MP.dps = 30
mpf, mpc = _MP.mpf, _MP.mpc

NEG_INF = float("-inf")
POS_INF = float("inf")


# -- nodes ------------------------------------------------------------------

class Expr:
    """A node. Nodes are interned: one structure is one live object, so
    `==` and `hash` are object identity. `_d` keeps the node's first
    derivative once `diff` has taken it, and `_z` a kernel node's zeros
    once `_kernel_zeros` has read them (None before)."""

    __slots__ = ("__weakref__", "_d", "_z")

    def __new__(cls, *fields):
        # __slots__ name the fields in order, and the key is the class
        # and all of them: a field the class does not declare is refused,
        # so no second live node of one structure can be made
        if len(fields) != len(cls.__slots__):
            raise TypeError("%s has the fields %s" % (cls.__name__, cls.__slots__))
        return _intern(cls, (cls, *fields), fields)

    def __reduce__(self):
        # a copy or an unpickled node is the live node of its structure
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __repr__(self):
        return to_sexpr(self)


# structure key -> its one live node; an entry goes when its node dies
_LIVE = weakref.WeakValueDictionary()


def _intern(cls, key, fields):
    node = _LIVE.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, v in zip(cls.__slots__, fields):
            setattr(node, name, v)
        node._d = node._z = None
        _LIVE[key] = node
    return node


class Const(Expr):
    __slots__ = ("v",)

    def __new__(cls, v):
        # keyed by the exact value: a QC's triple is canonical
        v = qc(v)
        return _intern(cls, (cls, v.n, v.m, v.d), (v,))


class Var(Expr):
    __slots__ = ()


class Add(Expr):
    __slots__ = ("a", "b")


class Mul(Expr):
    __slots__ = ("a", "b")


class Div(Expr):
    """Certified quotient: den is proven positive (`certified`)."""

    __slots__ = ("num", "den")


class Pow(Expr):
    __slots__ = ("base", "n")


class Kern(Expr):
    """s_m(arg): exp(-1/arg)/arg^m for arg > 0, zero otherwise."""

    __slots__ = ("arg", "m")


X = Var()
ZERO = Const(0)
ONE = Const(1)


def _as_expr(v):
    if isinstance(v, Expr):
        return v
    return Const(v)


# -- smart constructors ------------------------------------------------------
# each takes a plain number wherever it takes an expression


def add(a, b) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    if type(a) is Const and type(b) is Const:
        return Const(a.v + b.v)
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    return Add(a, b)


def sub(a, b) -> Expr:
    return add(a, mul(Const(-1), b))


def mul(a, b) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    if type(a) is Const and type(b) is Const:
        return Const(a.v * b.v)
    if a is ZERO or b is ZERO:
        return ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    return Mul(a, b)


def pow_(e, n: int) -> Expr:
    n = int(n)
    if n < 0:
        raise ValueError("pow exponent must be nonnegative; use a quotient")
    if n == 0:
        return ONE
    e = _as_expr(e)
    if n == 1:
        return e
    if type(e) is Const:
        return Const(_qc_pow(e.v, n))
    return Pow(e, n)


# largest numerator or denominator, in bits, of an exact power (a folded
# constant or a power evaluated at a rational point) and of every square
# that builds it: about 19,700 decimal digits
MAX_FOLD_BITS = 1 << 16
# smallest kernel argument t that ev takes: exp(-1/t) for 1/t past
# 2^MAX_FOLD_BITS costs mpmath time that grows with 1/t
_KERN_FLOOR = mpf(2) ** -MAX_FOLD_BITS


def _qc_bits(v: QC) -> int:
    return max(v.re.numerator.bit_length(), v.re.denominator.bit_length(),
               v.im.numerator.bit_length(), v.im.denominator.bit_length())


def _qc_pow(a: QC, n: int) -> QC:
    """Exact a**n; ValueError once a factor passes MAX_FOLD_BITS, so
    (pow 2 50000000) is refused at once instead of running for hours."""
    return _squarings(a, n, QC_ONE, operator.mul, _qc_bits)


def _squarings(a, n: int, one, times, bits):
    """a**n by repeated squaring under `times`, raising ValueError once
    bits() of a factor or of the result passes MAX_FOLD_BITS."""
    out = one
    while True:
        if n & 1:
            out = times(out, a)
            if bits(out) > MAX_FOLD_BITS:
                break
        n >>= 1
        if not n:
            return out
        a = times(a, a)
        if bits(a) > MAX_FOLD_BITS:
            break
    raise ValueError("exact power exceeds %d bits" % MAX_FOLD_BITS)


def kern(arg, m: int = 0) -> Expr:
    m = int(m)
    if m < 0:
        raise ValueError("kernel order must be nonnegative")
    arg = _as_expr(arg)
    if type(arg) is Const:
        if not arg.v.is_real:
            raise BackendError("kernel of a non-real constant")
        if arg.v.re <= 0:
            return ZERO
    return Kern(arg, m)


# denominator node -> the regions it was proven positive on; a failed
# proof is never kept, and an entry goes when its node dies
_CERTIFIED = weakref.WeakKeyDictionary()


def div(num, den, region=None) -> Expr:
    """Quotient with a positivity certificate for the denominator.

    `region` is an RSet (or None for the whole line) over which den is
    proven strictly positive by adaptive interval bisection before the
    node is built. A (den, region) pair is proven once while den lives;
    a proof on one region is not reused for another.
    """
    from .spaces import RSet
    num, den = _as_expr(num), _as_expr(den)
    if num is ZERO:
        return ZERO
    if type(den) is Const:
        if not den.v:
            raise ZeroDivisionError("constant zero denominator")
        return mul(Const(QC_ONE / den.v), num)
    if region is None:
        region = RSet.whole()
    if region not in _CERTIFIED.get(den, ()):
        certify_positive(den, region)
        _CERTIFIED.setdefault(den, set()).add(region)
    return Div(num, den)


def certified(den, region) -> bool:
    """Has `div` proven den positive on a region holding this one?"""
    return any(region <= r for r in _CERTIFIED.get(den, ()))


def _div_unchecked(num, den) -> Expr:
    if num is ZERO:
        return ZERO
    return Div(num, den)


def _nonzero_on(den, piece) -> bool:
    """Is den proven nonzero on the piece: certified positive on a region
    holding it, or a power of such a node (diff's den^2)?"""
    if type(den) is Pow:
        return _nonzero_on(den.base, piece)
    return certified(den, piece)


# -- the one walk ------------------------------------------------------------------

_CHILDREN = {Const: (), Var: (), Add: ("a", "b"), Mul: ("a", "b"),
             Div: ("num", "den"), Pow: ("base",), Kern: ("arg",)}


def _postorder(e: Expr, pending: bool = False) -> list:
    """Every distinct node of e once, each after its children; if
    pending, only those reached without passing a node whose derivative
    is kept (`_d`), which is left out as a leaf.

    Children are taken left to right, so the list is the order in which
    a recursive left-to-right walk first finishes each node. Iterative:
    depth is bounded by memory, not by the recursion limit.
    """
    out = []
    seen = set()
    stack = [(e, False)]
    while stack:
        node, done = stack.pop()
        if done:
            out.append(node)
            continue
        if node in seen or pending and node._d is not None:
            continue
        seen.add(node)
        kids = _CHILDREN.get(type(node))
        if kids is None:
            raise TypeError("unknown expression node %r" % (node,))
        stack.append((node, True))
        for k in reversed(kids):
            stack.append((getattr(node, k), False))
    return out


def _fold(nodes: list, visit):
    """The value of the last node of a `_postorder` list, its root.

    Calls visit(node, *child values) once per node, children first, so
    a subterm shared by several parents is visited once and its value
    read by each of them.
    """
    vals = {}
    for node in nodes:
        kids = _CHILDREN[type(node)]
        if not kids:
            v = visit(node)
        elif len(kids) == 1:
            v = visit(node, vals[getattr(node, kids[0])])
        else:
            v = visit(node, vals[getattr(node, kids[0])],
                      vals[getattr(node, kids[1])])
        vals[node] = v
    return v


# -- differentiation -----------------------------------------------------------

def diff(e: Expr, order: int = 1) -> Expr:
    """d^order/dx^order of e. A node keeps its first derivative (`_d`)
    while it lives, so each order walks only the nodes not yet
    differentiated, children first, and stops at those that were."""
    for _ in range(order):
        for node in _postorder(e, pending=True):
            node._d = _diff_visit(node, *(getattr(node, k)._d
                                          for k in _CHILDREN[type(node)]))
        e = e._d
    return e


def _diff_visit(e: Expr, *d) -> Expr:
    """d/dx of e from the derivatives d of its children."""
    kind = type(e)
    if kind is Const:
        return ZERO
    if kind is Var:
        return ONE
    if kind is Add:
        return add(d[0], d[1])
    if kind is Mul:
        return add(mul(d[0], e.b), mul(e.a, d[1]))
    if kind is Div:
        num = sub(mul(d[0], e.den), mul(e.num, d[1]))
        # den^2 is positive wherever den is
        return _div_unchecked(num, pow_(e.den, 2))
    if kind is Pow:
        return mul(mul(Const(e.n), pow_(e.base, e.n - 1)), d[0])
    inner = add(Kern(e.arg, e.m + 2), mul(Const(-e.m), Kern(e.arg, e.m + 1)))
    return mul(inner, d[0])


# -- exact / high-precision evaluation ------------------------------------------

def _mpv(v):
    if isinstance(v, QC):
        if v.im == 0:
            return mpf(v.re.numerator) / mpf(v.re.denominator)
        return mpc(mpf(v.re.numerator) / mpf(v.re.denominator),
                   mpf(v.im.numerator) / mpf(v.im.denominator))
    return v


def _vadd(a, b):
    if isinstance(a, QC) and isinstance(b, QC):
        return a + b
    return _mpv(a) + _mpv(b)


def _vmul(a, b):
    if isinstance(a, QC) and isinstance(b, QC):
        return a * b
    if isinstance(a, QC) and not a:
        return QC_ZERO
    if isinstance(b, QC) and not b:
        return QC_ZERO
    return _mpv(a) * _mpv(b)


def _vdiv(a, b):
    if isinstance(a, QC) and isinstance(b, QC):
        return a / b
    if isinstance(a, QC) and not a:
        return QC_ZERO
    return _mpv(a) / _mpv(b)


def _vpow(a, n):
    if isinstance(a, QC):
        return _qc_pow(a, n)
    return _mpv(a) ** n


def ev(e: Expr, x):
    """Evaluate at a point. Exact QC where possible, else mpmath value.

    x may be an int, Fraction, or float. mpmath results are carried at
    30 significant digits.
    """
    def visit(e, *v):
        kind = type(e)
        if kind is Const:
            return e.v
        if kind is Var:
            if isinstance(x, (int, Fraction)):
                return QC(x)
            return mpf(x)
        if kind is Add:
            return _vadd(*v)
        if kind is Mul:
            return _vmul(*v)
        if kind is Div:
            return _vdiv(*v)
        if kind is Pow:
            return _vpow(v[0], e.n)
        t = v[0]
        if isinstance(t, QC):
            if not t.is_real:
                raise BackendError("kernel argument is not real")
            if t.re <= 0:
                return QC_ZERO
            tm = mpf(t.re.numerator) / mpf(t.re.denominator)
        else:
            if isinstance(t, mpc):
                if t.imag != 0:
                    raise BackendError("kernel argument is not real")
                t = t.real
            if t <= 0:
                return QC_ZERO
            tm = t
        if tm < _KERN_FLOOR:
            raise ValueError("kernel argument below 2^-%d: exp(-1/t) is out "
                             "of reach" % MAX_FOLD_BITS)
        return _MP.exp(-1 / tm) / (tm ** e.m if e.m else 1)
    return _fold(_postorder(e), visit)


def ev_f(e: Expr, x: float) -> complex:
    """Float64 value at one point: e's program (`_compile`), run once."""
    return complex(_compile(e)(x))


# -- the compiled float program ----------------------------------------------------

# one expression per node kind; {0}, {1} are the child values (a name,
# or a subterm read once, in parentheses), {p} is n. A real node (x, a
# kernel, a real constant, or a node whose children are all real) runs
# it in float arithmetic, any other node in complex
_STATEMENT = {
    Add: "{0} + {1}",
    Mul: "{0} * {1}",
    Div: "{0} / {1}",
    Pow: "{0} ** {p}",
}
# a kernel: one w = exp(-1/t) per argument, its order-0 kernel, and the
# order m > 0 read from it
_WEIGHT = "w{0} = 0.0 if (t{0} := {1}) <= 0.0 else exp(-1.0 / t{0})"
_REAL_KERN = "0.0 if w{0} == 0.0 else w{0} / t{0} ** {1}"
# the longest expression written inside its reader: nesting stays far
# within the parser's limits
_INLINE = 400


def _float_program(e, roots=None, panel=False):
    """Source of e's float64 program and the constants it reads: the text
    `_write_program` writes from e's `_shape`, the one `_code` compiles.
    e may be its `_postorder` list."""
    shape, consts = _shape(e, roots)
    return _write_program(shape, panel), consts


def _shape(e, roots=None):
    """e's program shape and its constants, from one pass over its
    `_postorder` list (e may be that list). The shape is (entries,
    roots): per node in list order, its kind, its children's positions
    and a power's n, a kernel's m or a constant's realness; roots are
    the roots' positions, or None for the last node's program alone.
    The constants map c0, c1, ... to the constants' values in list
    order, a float if real, else a complex."""
    nodes = e if isinstance(e, list) else _postorder(e)
    at = {}  # node -> its position
    entries = []
    consts = {}
    for i, node in enumerate(nodes):
        kind = type(node)
        if kind is Const:
            real = node.v.is_real
            consts["c%d" % len(consts)] = (float(node.v.re) if real
                                            else complex(node.v))
            entries.append((Const, real))
        elif kind is Var:
            entries.append((Var,))
        elif kind is Pow:
            entries.append((Pow, at[node.base], node.n))
        elif kind is Kern:
            entries.append((Kern, at[node.arg], node.m))
        elif kind is Div:
            entries.append((Div, at[node.num], at[node.den]))
        else:
            entries.append((kind, at[node.a], at[node.b]))
        at[node] = i
    return (tuple(entries),
            None if roots is None else tuple(at[r] for r in roots)), consts


def _write_program(shape, panel):
    """The source of a `_shape`'s float64 program.

    The source defines `_f(x)`, which reads x as a float and computes
    each distinct non-constant subterm (one entry each) once, reading
    the constants by their names c0, c1, .... A subterm read once is
    written inside its reader; a shared one, a root, a kernel weight or
    order, or one longer than `_INLINE` is a line, written after the
    expressions no reader has taken yet (`_flush`), so every operation,
    its bits and the first exception come in list order. A real node is
    a float and any other a complex, so a real power is the C library's
    `pow`; a kernel reads its argument's `_WEIGHT` (the real part of a
    complex argument). Given roots, `_f` returns the tuple of their
    values instead of the last node's.

    Given roots and panel, the text defines the panel form `_f(mid,
    half)` instead: one program call per quadrature panel. It runs the
    program at x = mid + half * xk for each (xk, wk, wg) of the rule
    `_rule` in order and sums each root's wk * value and, where wg is
    not 0.0, its wg * value; it returns the tuples of those Kronrod and
    Gauss sums, a real root's summed in float from 0.0 and a complex
    root's from 0j. The names the loop reads (constants, exp, `_rule`)
    are its locals, bound as defaults.
    """
    entries, roots = shape
    outs = [len(entries) - 1] if roots is None else list(roots)
    # a node's reads: by each parent, by its kernel weight once, however
    # many orders read it, and twice for a root (the return or the sums)
    reads = Counter(outs * 2)
    reads.update(k for entry in entries if entry[0] is not Kern
                 for k in entry[1:1 + len(_CHILDREN[entry[0]])])
    reads.update({entry[1] for entry in entries if entry[0] is Kern})
    lines = []
    consts = 0
    names = []  # position -> (its name, real)
    pending = {}  # position -> its expression, read once and not taken yet
    weights = {}  # a kernel argument's position -> the i of its w<i>, t<i>
    for i, entry in enumerate(entries):
        kind = entry[0]
        if kind is Const:
            names.append(("c%d" % consts, entry[1]))
            consts += 1
            continue
        if kind is Var:
            names.append(("x", True))
            continue
        args, real = [], True
        for kid in entry[1:1 + len(_CHILDREN[kind])]:
            name, r = names[kid]
            if kid in pending:
                name = "(%s)" % pending.pop(kid)
            args.append(name)
            real = real and r
        if kind is Kern:
            arg, m = entry[1:]
            if arg not in weights:
                # a complex argument is read by its real part
                weights[arg] = i
                _flush(pending, names, lines)
                lines.append(_WEIGHT.format(
                    i, args[0] if real else args[0] + ".real"))
            if not m:
                names.append(("w%d" % weights[arg], True))
                continue
            names.append(("v%d" % i, True))
            statement = _REAL_KERN.format(weights[arg], m)
        else:
            names.append(("v%d" % i, real))
            statement = _STATEMENT[kind].format(*args, p=entry[-1])
            if reads[i] == 1 and len(statement) <= _INLINE:
                pending[i] = statement
                continue
        _flush(pending, names, lines)
        lines.append("v%d = %s" % (i, statement))
    outs = [names[r] for r in outs]
    if not panel:
        out = ", ".join(n for n, _ in outs)
        lines.append("return %s" % (out if roots is None else "(%s,)" % out))
        return "def _f(x):\n    x = float(x)\n" + _block(lines, 1)
    sums = ["k%d = g%d = %s" % (i, i, "0.0" if r else "0j")
            for i, (_, r) in enumerate(outs)]
    lines += ["k%d += wk * %s" % (i, n) for i, (n, _) in enumerate(outs)]
    gauss = ["g%d += wg * %s" % (i, n) for i, (n, _) in enumerate(outs)]
    ks, gs = (", ".join("%s%d" % (s, i) for i in range(len(outs)))
              for s in "kg")
    # names the loop reads are locals, bound once at the def: a local read
    # is cheaper than a global one
    bound = [*("c%d" % j for j in range(consts)), "exp", "_rule"]
    return ("def _f(mid, half, %s):\n" % ", ".join(
                "%s=%s" % (n, n) for n in bound) + _block(sums, 1)
            + "    for xk, wk, wg in _rule:\n        x = mid + half * xk\n"
            + _block(lines, 2) + "        if wg:\n" + _block(gauss, 3)
            + "    return (%s,), (%s,)\n" % (ks, gs))


def _flush(pending, names, lines):
    """Write each expression no reader has taken yet as its own line, in
    order: its operations come before the next line's in the node list."""
    if pending:
        lines.extend("%s = %s" % (names[n][0], t) for n, t in pending.items())
        pending.clear()


def _block(lines, depth):
    """lines as a block of statements indented depth levels."""
    return "".join("    " * depth + line + "\n" for line in lines)


def _compile(e, roots=None, rule=None):
    """e's float64 program, the one `ev_f` and grid scans run, or given
    roots and a rule of (abscissa, Kronrod weight, Gauss weight or 0.0)
    triples the panel form quadrature runs: `_code` of its shape, run in
    a fresh namespace of its constants."""
    shape, consts = _shape(e, roots)
    namespace = {"exp": math.exp, "_rule": rule, **consts}
    exec(_code(shape, rule is not None), namespace)
    return namespace["_f"]


# shapes whose code objects are kept: a benchmark run compiles at most 38
# (smooth-operators at seed 13) and `check all` on the smooth demo 15;
# the largest has 163 nodes and the longest text 78 lines (162 nodes),
# and 256 copies of that one hold about 4.4 MB with their code objects
_CODE_CACHE = 256


@functools.lru_cache(maxsize=_CODE_CACHE)
def _code(shape, panel):
    """The code object of a `_shape`'s program, or of its panel form,
    written (`_write_program`) and compiled once per shape."""
    return compile(_write_program(shape, panel),
                   "<formalcalc.expr program>", "exec")


# -- polynomial fast path ----------------------------------------------------------

# largest degree of any product poly_coeffs expands; with MAX_FOLD_BITS
# on the coefficients of a power, (pow x 50000000) is refused at once
MAX_POLY_DEGREE = 1 << 10


def _poly_mul(a: dict, b: dict) -> dict:
    if max(a, default=0) + max(b, default=0) > MAX_POLY_DEGREE:
        raise ValueError("polynomial degree exceeds %d" % MAX_POLY_DEGREE)
    return qc_map_mul(a, b, operator.add)


def poly_coeffs(e: Expr):
    """dict degree -> QC if the tree is polynomial, else None.

    Kern and Div are never treated as polynomial; a kernel of a positive
    constant is constant but transcendental.
    """
    return _poly_coeffs(_postorder(e))


def _polynomial(nodes: list) -> bool:
    """Whether the root of a `_postorder` list is a polynomial in x."""
    return not any(type(n) is Kern or type(n) is Div for n in nodes)


def _poly_coeffs(nodes: list):
    """poly_coeffs of the root of a `_postorder` list."""
    if not _polynomial(nodes):
        return None
    return _fold(nodes, _poly_visit)


def _poly_visit(n: Expr, *c) -> dict:
    kind = type(n)
    if kind is Const:
        return {} if not n.v else {0: n.v}
    if kind is Var:
        return {1: QC_ONE}
    if kind is Add:
        return qc_map_add(*c)
    if kind is Mul:
        return _poly_mul(*c)
    return _poly_pow(c[0], n.n)


def _poly_pow(base: dict, n: int) -> dict:
    """base**n as _qc_pow, and ValueError past MAX_POLY_DEGREE."""
    if n * max(base, default=0) > MAX_POLY_DEGREE:
        raise ValueError("polynomial degree exceeds %d" % MAX_POLY_DEGREE)
    return _squarings(base, n, {0: QC_ONE}, _poly_mul, lambda p: max(
        map(_qc_bits, p.values()), default=0))


def poly_definite_integral(coeffs: dict, lo: Fraction, hi: Fraction) -> QC:
    """Exact integral of a polynomial over [lo, hi]."""
    acc = QC_ZERO
    qlo, qhi = QC(lo), QC(hi)
    for d, v in coeffs.items():
        acc = acc + v * Fraction(1, d + 1) * (_vpow(qhi, d + 1) - _vpow(qlo, d + 1))
    return acc


# -- interval-arithmetic positivity certificates ---------------------------------

_WID = 1e-12


def _lo_widen(v: float) -> float:
    if v == NEG_INF or v == POS_INF:
        return v
    return v - abs(v) * _WID - 1e-300


def _hi_widen(v: float) -> float:
    if v == NEG_INF or v == POS_INF:
        return v
    return v + abs(v) * _WID + 1e-300


def _pmul(x: float, y: float) -> float:
    if x == 0.0 or y == 0.0:
        return 0.0
    return x * y


def _sm_f(t: float, m: int) -> float:
    """Pointwise s_m for bound computation; t may be +inf."""
    if t <= 0.0:
        return 0.0
    if t == POS_INF:
        return 1.0 if m == 0 else 0.0
    w = math.exp(-1.0 / t)
    if w == 0.0:
        return 0.0
    try:
        return w / t ** m
    except OverflowError:
        return 0.0


def ibounds(e: Expr, lo: float, hi: float):
    """Conservative real bounds of e over [lo, hi].

    Raises CertificateError on non-real constants. Returns widened
    float endpoints; (-inf, inf) is the honest I-don't-know answer.
    """
    return _ibounds(_postorder(e), lo, hi)


def _ibounds(nodes: list, lo: float, hi: float):
    """ibounds of the root of a `_postorder` list."""
    def visit(e, *v):
        kind = type(e)
        if kind is Const:
            if not e.v.is_real:
                raise CertificateError("non-real constant inside a certified "
                                       "denominator")
            c = float(e.v.re)
            return (_lo_widen(c), _hi_widen(c))
        if kind is Var:
            return (lo, hi)
        if kind is Add:
            a, b = v
            return (_lo_widen(a[0] + b[0]), _hi_widen(a[1] + b[1]))
        if kind is Mul:
            a, b = v
            cands = [_pmul(a[i], b[j]) for i in (0, 1) for j in (0, 1)]
            return (_lo_widen(min(cands)), _hi_widen(max(cands)))
        if kind is Div:
            a, b = v
            if b[0] <= 0.0 <= b[1]:
                return (NEG_INF, POS_INF)
            cands = []
            for x in a:
                for y in b:
                    if ((x == POS_INF or x == NEG_INF)
                            and (y == POS_INF or y == NEG_INF)):
                        continue
                    if x == 0.0 or y == POS_INF or y == NEG_INF:
                        cands.append(0.0)
                    else:
                        cands.append(x / y)
            if a[0] == NEG_INF or a[1] == POS_INF:
                # unbounded numerator over a sign-definite denominator
                cands.extend([NEG_INF, POS_INF])
            return (_lo_widen(min(cands)), _hi_widen(max(cands)))
        if kind is Pow:
            a = v[0]
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
        u1, u2 = v[0]
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
    return _fold(nodes, visit)


_CERT_BUDGET = 50_000
_CERT_MIN_WIDTH = Fraction(1, 2 ** 60)


def certify_positive(e: Expr, region) -> None:
    """Prove e > 0 on the region by adaptive interval bisection.

    Raises CertificateError with a witness interval when a piece is
    shown nonpositive, and its UndecidedCertificateError when the proof
    does not close within budget or above the width floor.
    """
    nodes = _postorder(e)
    stack = _seeds(nodes, region)
    steps = 0
    while stack:
        lo, hi = stack.pop()
        steps += 1
        if steps > _CERT_BUDGET:
            raise UndecidedCertificateError(
                "positivity certificate budget exhausted near [%s, %s]"
                % (lo, hi))
        blo, bhi = _ibounds(nodes, float(lo), float(hi))
        if blo > 0.0:
            continue
        if bhi <= 0.0:
            raise CertificateError("denominator is nonpositive on [%s, %s]"
                                   % (lo, hi))
        # inconclusive: split at a finite anchor
        if lo == NEG_INF and hi == POS_INF:
            mid = Fraction(0)
        elif lo == NEG_INF:
            mid = (hi if isinstance(hi, Fraction) else Fraction(hi)) - 1
        elif hi == POS_INF:
            mid = (lo if isinstance(lo, Fraction) else Fraction(lo)) + 1
        else:
            if hi - lo < _CERT_MIN_WIDTH:
                raise UndecidedCertificateError(
                    "cannot certify positivity near [%s, %s]" % (lo, hi))
            mid = (Fraction(lo) + Fraction(hi)) / 2
        stack.append((lo, mid))
        stack.append((mid, hi))


def _seeds(nodes: list, region) -> list:
    """The pieces `certify_positive` starts from: the region's, each cut
    at the midpoints between consecutive zeros of the real affine kernel
    arguments among nodes. Each piece holds at most one such zero, so on
    it every other such argument keeps its sign, away from 0."""
    zeros = sorted(set(_kernel_zeros(nodes)))
    cuts = [(u + v) / 2 for u, v in zip(zeros, zeros[1:])]
    out = []
    for lo, hi, _, _ in region.pieces:
        ends = [lo, *(c for c in cuts if lo < c < hi), hi]
        out.extend(zip(ends, ends[1:]))
    return out


# -- equality on the pieces of term bounds ------------------------------------

# monomial products one comparison (one call) may make: past it the
# comparison is unknown, and the pair is measured, never decided on a cut
# expansion. A density pair makes one comparison per (key, derivative
# stack), so one it cannot prove may spend the budget once per stack
# before it is measured. At 2 to 4 us a product, a comparison that spends
# it takes 10 to 20 ms, about what measuring one split-ext pair costs
# (17 ms); the line's mv and cosheaf suites at seeds 0..19 need at most
# 1,585, and no comparison there, nor of their pairs moved by a bump,
# reaches it
PIECE_BUDGET = 5_000

# the monomial 1, and the fraction 0
_UNIT = frozenset()
_NIL = ({}, {})


class _OutOfBudget(Exception):
    """An expansion passed its monomial budget."""


def equal_on_pieces(a, b) -> bool:
    """Are two lists of (coefficient, bound) terms, each term its
    coefficient on its bound (an RSet) and 0 off it, proved equal?

    The union of the bounds is cut at every endpoint. On each open piece
    between two cuts, the difference of the coefficients of the terms
    whose bounds hold the piece is expanded (`_Piece`); the piece is
    proved when that difference is exactly 0. False means unknown: a
    piece left a nonzero difference, or the expansions of all pieces
    together passed PIECE_BUDGET monomial products, where the rule
    gives up and drops no term.
    """
    terms = [(c, bd, s) for side, s in ((a, QC_ONE), (b, -QC_ONE))
             for c, bd in side]
    ends = sorted({e for _, bd, _ in terms for p in bd.pieces for e in p[:2]})
    left = [PIECE_BUDGET]
    try:
        for lo, hi in zip(ends, ends[1:]):
            inner = _inner_point(lo, hi)
            live = [(c, s) for c, bd, s in terms if inner in bd]
            if live and _Piece(lo, hi, left).difference(live):
                return False
    except _OutOfBudget:
        return False
    return True


def _inner_point(lo, hi):
    """A point of the open interval (lo, hi), lo < hi."""
    if lo == NEG_INF:
        return Fraction(0) if hi == POS_INF else hi - 1
    return lo + 1 if hi == POS_INF else (lo + hi) / 2


def _at_most_zero(arg, lo, hi) -> bool:
    """Is arg <= 0 on [lo, hi]? Exactly for a real affine arg on finite
    ends (its value at both), else by `ibounds` over the ends widened
    outward; a bound that cannot be taken says no."""
    try:
        c = _affine(arg)
        if c is not None and NEG_INF < lo and hi < POS_INF:
            return c[0] + c[1] * lo <= 0 and c[0] + c[1] * hi <= 0
        return _ibounds(_postorder(arg), _lo_widen(float(lo)),
                        _hi_widen(float(hi)))[1] <= 0.0
    except (CertificateError, ArithmeticError, ValueError):
        return False


def _kernel_zeros(nodes: list) -> list:
    """The zeros of the real affine kernel arguments among nodes, one for
    each distinct argument c0 + c1*x with c1 != 0: -c0/c1. A kernel node
    keeps its argument's zeros (`_z`, none or one) once they are read,
    so `_affine` runs once per kernel node while it lives."""
    out = []
    for n in {n.arg: n for n in nodes if type(n) is Kern}.values():
        if n._z is None:
            try:
                c = _affine(n.arg)
            except ValueError:  # past poly_coeffs' caps: not affine
                c = None
            n._z = (-c[0] / c[1],) if c is not None and c[1] else ()
        out.extend(n._z)
    return out


def _affine(arg):
    """(c0, c1) if arg is the real affine c0 + c1*x, read by `poly_coeffs`
    (whose ValueError past its caps passes through), else None."""
    p = poly_coeffs(arg)
    if p is None or not set(p) <= {0, 1} \
            or not all(v.is_real for v in p.values()):
        return None
    return tuple(p.get(d, QC_ZERO).re for d in (0, 1))


def _mono_mul(m, n):
    """The product of two monomials, frozensets of (atom, nonzero power)."""
    if not m:
        return n
    if not n:
        return m
    out = dict(m)
    for atom, p in n:
        q = out.get(atom, 0) + p
        if q:
            out[atom] = q
        else:
            del out[atom]
    return frozenset(out.items())


class _Piece:
    """Coefficients on one open piece (lo, hi), specialised and expanded
    as fractions N/D.

    N is a polynomial over Q(i) in atoms, {monomial: nonzero QC}, a
    monomial a frozenset of (atom, power) with powers of either sign. D
    is a product of polynomials nonzero on the piece, {polynomial as the
    frozenset of its items: power}. Specialised: a kernel whose argument
    is at most 0 on the closed piece is 0 (s_m(t) = 0 for t <= 0). A
    quotient with a zero numerator is 0. A quotient whose denominator
    node is nonzero on the piece (`_nonzero_on`) is a fraction: its
    specialised denominator equals that node there, so it inherits the
    node's certificate, and it divides as a monomial when it is one, as
    a factor of D otherwise. x, every other kernel and every other
    quotient is an atom, the node itself. `left` holds the budget of the
    whole comparison: every product of an m- and an n-term polynomial
    spends m * n, and _OutOfBudget is raised past it.
    """

    def __init__(self, lo, hi, left):
        from .spaces import RSet
        self.lo, self.hi, self.left = lo, hi, left
        self.region = RSet.open_pairs([(lo, hi)])
        self.vals, self.zeroed = {}, {}

    def difference(self, live) -> bool:
        """Is the sum of s * c over the (c, s) of live not proved 0?"""
        total = _NIL
        for c, s in live:
            num, den = self.value(c)
            total = self.add(total, ({m: v * s for m, v in num.items()}, den))
        return bool(total[0])

    def value(self, e):
        """e's fraction, each distinct node expanded once per piece."""
        vals = self.vals
        for node in _postorder(e):
            if node not in vals:
                vals[node] = self.visit(node, *(
                    vals[getattr(node, k)] for k in _CHILDREN[type(node)]))
        return vals[e]

    def visit(self, e, *v):
        kind = type(e)
        if kind is Const:
            return ({_UNIT: e.v}, {}) if e.v else _NIL
        if kind is Add:
            return self.add(*v)
        if kind is Mul:
            return self.mul(*v)
        if kind is Pow:
            return self.power(v[0], e.n)
        if kind is Div:
            if not v[0][0]:
                return _NIL
            if _nonzero_on(e.den, self.region):
                return self.mul(v[0], self.inverse(e.den))
        elif kind is Kern:
            if e.arg not in self.zeroed:
                self.zeroed[e.arg] = _at_most_zero(e.arg, self.lo, self.hi)
            if self.zeroed[e.arg]:
                return _NIL
        return {frozenset({(e, 1)}): QC_ONE}, {}

    def inverse(self, den):
        """1 / den's fraction, for a den nonzero on the piece: a power's
        is the power of its base's, so that den^2 and den share a factor."""
        if type(den) is Pow:
            return self.power(self.inverse(den.base), den.n)
        num, factors = self.vals[den]
        lifted = self.lift(({_UNIT: QC_ONE}, {}), factors)
        if len(num) == 1:
            (m, v), = num.items()
            return self.pmul(lifted, {frozenset((a, -p) for a, p in m):
                                      QC_ONE / v}), {}
        return lifted, {frozenset(num.items()): 1}

    def pmul(self, p, q) -> dict:
        """The product of two polynomials, spending len(p) * len(q)."""
        self.left[0] -= len(p) * len(q)
        if self.left[0] < 0:
            raise _OutOfBudget
        return qc_map_mul(p, q, _mono_mul)

    def lift(self, f, want) -> dict:
        """f's numerator over the denominator `want`, a multiple of f's."""
        num, have = f
        for poly, p in want.items():
            for _ in range(p - have.get(poly, 0)):
                num = self.pmul(num, dict(poly))
        return num

    def add(self, f, g):
        if not f[0]:
            return g
        if not g[0]:
            return f
        den = dict(f[1])
        for poly, p in g[1].items():
            den[poly] = max(den.get(poly, 0), p)
        num = qc_map_add(self.lift(f, den), self.lift(g, den))
        return (num, den) if num else _NIL

    def mul(self, f, g):
        if not f[0] or not g[0]:
            return _NIL
        den = dict(f[1])
        for poly, p in g[1].items():
            den[poly] = den.get(poly, 0) + p
        return self.pmul(f[0], g[0]), den

    def power(self, f, n: int):
        return functools.reduce(self.mul, [f] * n)


# -- bump construction ----------------------------------------------------------

# endpoint pairs kept per edge: a benchmark run or `check all` on the
# smooth demo builds at most 29. A kept edge keeps its proof and the
# derivatives `diff` took of it, so 64 of each kind hold about 0.3 MB
# under tracemalloc, 1.2 MB once differentiated twice (the most a
# benchmark run asks) and 19 MB at order 7
_EDGE_CACHE = 64


@functools.lru_cache(maxsize=_EDGE_CACHE)
def rising_edge(a: Fraction, b: Fraction) -> Expr:
    """Smooth 0-to-1 step: zero for x <= a, one for x >= b. Needs a < b.
    The last _EDGE_CACHE exact (a, b) keep their node, and so the proof
    `div` holds for it; a refusal is never kept."""
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("rising edge needs a < b")
    up = kern(X - Const(a))
    down = kern(Const(b) - X)
    return div(up, add(up, down))


@functools.lru_cache(maxsize=_EDGE_CACHE)
def falling_edge(c: Fraction, d: Fraction) -> Expr:
    """Smooth 1-to-0 step: one for x <= c, zero for x >= d. Needs c < d.
    Kept like `rising_edge`: one node and one proof per (c, d)."""
    c, d = Fraction(c), Fraction(d)
    if not c < d:
        raise ValueError("falling edge needs c < d")
    up = kern(Const(d) - X)
    down = kern(X - Const(c))
    return div(up, add(up, down))


def bump(a, b, c, d):
    """Plateau bump: 0 outside (a, d), exactly 1 on [b, c], values in [0, 1].

    Needs a < b <= c < d. Returns (expr, support, plateau) where support
    is the closed interval [a, d] and plateau the closed interval [b, c],
    both as RSets.
    """
    from .spaces import RSet
    a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
    if not (a < b and b <= c and c < d):
        raise ValueError("bump needs a < b <= c < d")
    e = mul(rising_edge(a, b), falling_edge(c, d))
    return e, RSet.closed_pairs([(a, d)]), RSet.closed_pairs([(b, c)])


def window_bump(lo, hi):
    """The bump of a window [lo, hi]: one on its middle half, that is
    bump(lo, lo + w/4, hi - w/4, hi) for the width w = hi - lo."""
    lo, hi = Fraction(lo), Fraction(hi)
    w = hi - lo
    return bump(lo, lo + w / 4, hi - w / 4, hi)


# -- S-expression serialization ---------------------------------------------------

# pattern texts, compiled and kept by re, so that `_code` holds the
# package's one call of the builtin compiler. Literals are ASCII decimal:
# int(), Fraction() and \d also take other Unicode digits, and int()
# takes underscores
_INT_RE = r"^[+-]?[0-9]+$"
_RAT_RE = r"^[+-]?([0-9]+(/[0-9]+)?|[0-9]*\.[0-9]+)$"


# The grammar's compound forms, its one statement: head -> (argument
# kinds, builder, node class). An argument is an expression "e", an
# integer "i" or a rational "r", and a trailing "+" takes any more
# expressions, folded left. A builder takes the parse region, then the
# arguments.
_FORMS = {
    "+": ("ee+", lambda region, *a: functools.reduce(add, a), Add),
    "*": ("ee+", lambda region, *a: functools.reduce(mul, a), Mul),
    "/": ("ee", lambda region, num, den: div(num, den, region), Div),
    "pow": ("ei", lambda region, base, n: pow_(base, n), Pow),
    "s": ("e", lambda region, arg: kern(arg), Kern),
    "sm": ("ei", lambda region, arg, m: kern(arg, m), Kern),
    "complex": ("rr", lambda region, re, im: Const(QC(re, im)), Const),
}
# node class -> number of arguments -> its form's text: a node prints as
# the form of its class with as many arguments as it has, a sum or a
# product as a binary node
_PRINTS = {cls: {} for _, _, cls in _FORMS.values()}
for _head, (_kinds, _, _cls) in _FORMS.items():
    _PRINTS[_cls][len(_kinds.rstrip("+"))] = "(%s %s)" % (_head, " ".join(
        "%d" if k == "i" else "%s" for k in _kinds.rstrip("+")))


def to_sexpr(e: Expr) -> str:
    return _fold(_postorder(e), _sexpr_visit)


def _sexpr_visit(e: Expr, *s) -> str:
    kind = type(e)
    if kind is Const:
        v = e.v
        if v.im == 0:
            return rat_str(v.re)
        s = rat_str(v.re), rat_str(v.im)
    elif kind is Var:
        return "x"
    elif kind is Pow:
        s = s[0], e.n
    elif kind is Kern and e.m:
        s = s[0], e.m
    return _PRINTS[kind][len(s)] % s


def _int_literal(tok: str) -> int:
    if not _re.match(_INT_RE, tok):
        raise ValueError("expected an integer, got %r" % tok)
    return int(tok)


def _rat_literal(tok: str) -> Fraction:
    if not _re.match(_RAT_RE, tok):
        raise ValueError("expected a rational literal, got %r" % tok)
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ValueError("rational literal %r has a zero denominator"
                         % tok) from None


_LITERALS = {"i": _int_literal, "r": _rat_literal}


def parse_sexpr(s: str, region=None) -> Expr:
    """Read the grammar of `_FORMS`, recursing once per nesting level.
    `region` (an RSet, defaults to the whole line) is where quotient
    denominators are certified positive."""
    toks = s.replace("(", " ( ").replace(")", " ) ").split()[::-1]
    if not toks:
        raise ValueError("empty expression")

    def take():
        if not toks:
            raise ValueError("unexpected end of expression in %r" % s)
        return toks.pop()

    def expr():
        t = take()
        if t == "x":
            return X
        if _re.match(_RAT_RE, t):
            return Const(QC(_rat_literal(t)))
        if t != "(":
            raise ValueError("unexpected token %r in %r" % (t, s))
        head = take()
        if head not in _FORMS:
            raise ValueError("unknown operator %r" % head)
        kinds, build, _ = _FORMS[head]
        args = []
        if kinds == "ee+":
            while toks and toks[-1] != ")":
                args.append(expr())
            if len(args) < 2:
                raise ValueError("(%s ...) needs at least two arguments" % head)
        else:
            for k in kinds:
                args.append(expr() if k == "e" else _LITERALS[k](take()))
        t = take()
        if t != ")":
            raise ValueError("expected ), got %r" % t)
        return build(region, *args)

    out = expr()
    if toks:
        raise ValueError("trailing tokens in %r" % s)
    return out
