"""Smooth expression trees over the real line.

Closure grammar: exact complex rational constants, the coordinate x,
sums, products, certified quotients, nonnegative integer powers, and
composition with the flat kernel family

    s_m(t) = exp(-1/t) / t^m   for t > 0,      0 for t <= 0.

s_0 is the plain smoothstep kernel s. The family is closed under
differentiation, s_m' = s_{m+2} - m*s_{m+1}, which is why the kernel
node carries the integer m: the derivative of s(e) would otherwise
need the quotient s(e)/e^2, whose denominator vanishes at e = 0.

Serialized form is a prefix S-expression:

    e := x | <rational> | (+ e e ...) | (* e e ...) | (/ e e)
       | (pow e <int>) | (s e) | (sm e <int>) | (complex <rat> <rat>)

(+ ...) and (* ...) accept two or more arguments and are printed as
nested binary nodes. <rational> is an integer, p/q, or a decimal
literal read exactly. (sm e m) and (complex re im) are extensions of
the base grammar: the first appears only in derivatives of kernels,
the second only when a coefficient was scaled by a non-real scalar.

Evaluation at a rational point is exact (a QC) until a kernel with a
positive argument or an inexact operand enters; from there on values
are mpmath floats carried at 30 significant digits, so kernel tails
never underflow and plateau ratios of equal values divide to exactly 1.

Float64 evaluation compiles the expression once into a straight-line
function x -> complex, one statement per distinct subterm. `compile_f`
(and `ev_f`, its one-point entry) keeps the exact complex bits of
evaluating the tree node by node. The typed program of the same writer
(quadrature, grid scans) computes real subterms in float arithmetic and
keeps exact integrals: for finite values it differs only in a zero's sign.
There a kernel argument's orders share its exp(-1/t), a real power is
float products, and a real value is returned as a float. Quadrature
runs its panel form: one call per panel runs the panel's abscissas and
sums each root's Kronrod and Gauss rules, a real root's in float.

Nodes are interned where they are built (`Expr.__new__`): one
structure, a quotient's region aside, is one live object, so `==` and
`hash` are object identity and printing is for output only.

`_fold` over `_postorder` is the one walk: evaluation, bounds,
derivatives, printing, `poly_coeffs` and the program visit each
distinct node once, children first. So only the parser recurses, and a
derivative shares the derivatives of shared subterms.

Quotient denominators are certified positive at construction by exact
adaptive interval bisection over the region where the quotient will be
evaluated (the whole line by default).
"""

from __future__ import annotations

import functools
import math
import operator
import re as _re
import weakref
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .errors import BackendError, CertificateError
from .scalars import QC, QC_ONE, QC_ZERO, qc, rat_str

mp.dps = 30

NEG_INF = float("-inf")
POS_INF = float("inf")


# -- nodes ------------------------------------------------------------------

class Expr:
    """A node. Nodes are interned: one structure is one live object, so
    `==` and `hash` are object identity. A quotient's region is not part
    of its structure; the node keeps the region it was first built with.
    """

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        # __slots__ name the fields in order; the key is the class and
        # the first two (the children, n or m), so a quotient's region,
        # its third, is left out
        return _intern(cls, (cls, *fields[:2]), fields)

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
    """Certified quotient. `region` is where positivity of den is known."""

    __slots__ = ("num", "den", "region")


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


def _is_const(e, value=None):
    if not isinstance(e, Const):
        return False
    return True if value is None else e.v == value


# -- smart constructors ------------------------------------------------------
# each takes a plain number wherever it takes an expression


def add(a, b) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    if _is_const(a) and _is_const(b):
        return Const(a.v + b.v)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def sub(a, b) -> Expr:
    return add(a, mul(Const(-1), b))


def mul(a, b) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    if _is_const(a) and _is_const(b):
        return Const(a.v * b.v)
    if _is_const(a, 0) or _is_const(b, 0):
        return ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
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
    if _is_const(e):
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
    if _is_const(arg):
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
    if _is_const(num, 0):
        return ZERO
    if _is_const(den):
        if not den.v:
            raise ZeroDivisionError("constant zero denominator")
        return mul(Const(QC_ONE / den.v), num)
    if region is None:
        region = RSet.whole()
    if region not in _CERTIFIED.get(den, ()):
        certify_positive(den, region)
        _CERTIFIED.setdefault(den, set()).add(region)
    return Div(num, den, region)


def _div_unchecked(num, den, region) -> Expr:
    if _is_const(num, 0):
        return ZERO
    return Div(num, den, region)


# -- the one walk ------------------------------------------------------------------

_CHILDREN = {Const: (), Var: (), Add: ("a", "b"), Mul: ("a", "b"),
             Div: ("num", "den"), Pow: ("base",), Kern: ("arg",)}


def _postorder(e: Expr) -> list:
    """Every distinct node of e once, each after its children.

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
        if node in seen:
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
    for _ in range(order):
        e = _fold(_postorder(e), _diff_visit)
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
        # den^2 inherits positivity from den on the same region
        return _div_unchecked(num, pow_(e.den, 2), e.region)
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
        return mp.exp(-1 / tm) / (tm ** e.m if e.m else 1)
    return _fold(_postorder(e), visit)


def ev_f(e: Expr, x: float) -> complex:
    """Float64 value at one point: compiles e and runs the program once.

    Compile once with `compile_f` to evaluate at many points.
    """
    return compile_f(e)(x)


# -- the compiled float program ----------------------------------------------------

# one statement per node kind; {0}, {1} are the child values, {p} is n,
# {w} a kernel's value from w = exp(-1/t). Each does the float operation
# of the recursive left-to-right evaluation: complex + * / and complex
# ** int, and for a kernel s_m of the real part t, 0j where t <= 0 or
# exp underflows
_STATEMENT = {
    Var: "complex(x)",
    Add: "{0} + {1}",
    Mul: "{0} * {1}",
    Div: "{0} / {1}",
    Pow: "{0} ** {p}",
    Kern: "0j if (t := {0}) <= 0.0 or (w := exp(-1.0 / t)) == 0.0 "
          "else complex({w})",
}
# the same in float arithmetic, for a real node of the typed program; a
# power of 2 to 100 is written apart (`_chain`), so the power left here
# is a raw node's 0th or 1st
_REAL_STATEMENT = {**_STATEMENT, Var: "float(x)", Pow: "({0} ** {p}).real"}
# a typed kernel: one w = exp(-1/t) per argument, its order-0 kernel,
# and the order m > 0 read from it
_WEIGHT = "w{0} = 0.0 if (t{0} := {1}) <= 0.0 else exp(-1.0 / t{0})"
_REAL_KERN = "0.0 if w{0} == 0.0 else w{0} / t{0} ** {1}"
# a typed power of 2 to 100: `_chain`'s products of its base, or, where
# they are not finite, the complex power of the base, so that its NaN
# or OverflowError is that power's; one fallback function per exponent,
# at the top of the text
_REAL_POW = "r if (r := {0}) - r == 0.0 else _p{1}({2})"
_POWER_FALLBACK = "def _p{0}(v0):\n    v0 = (complex(v0) ** {0}).real\n" \
                  "    return v0\n"


def _chain(x: str, n: int) -> str:
    """Text of the float x**n, 2 <= n, as the products of CPython's
    complex power (c_powu): from the low bit of n up, r = r*p for a set
    bit, and p squared while bits remain. Once r reads a p, the local p
    holds it for the next squaring."""
    r, p, name = None, x, x
    while True:
        if n & 1:
            r = p if r is None else "%s * %s" % (r, p)
            p = name
        n >>= 1
        if not n:
            return r
        p = ("(%s * %s)" if n == 1 else "(p := %s * %s)") % (p, name)
        name = "p"


def _float_program(e, typed=False, roots=None, panel=False):
    """Source of e's float64 program and the constants it reads.

    Returns (source, constants): source defines `_f(x)` with one
    assignment per distinct non-constant subterm (one node each), in
    the order a left-to-right evaluation first needs it; constants maps
    the names c0, c1, ... to their values. e may be its `_postorder`
    list. Typed, x, a kernel, a real constant, a sum, product or
    quotient of real nodes and a power of one up to the 100th (past it,
    CPython's complex power is polar) are float values, and a real root
    is returned as a float; a kernel reads its argument's `_WEIGHT`,
    and a power of 2 to 100 is `_chain`'s products, or the complex
    power once those are not finite. Given roots, nodes of that list,
    `_f` returns the tuple of their values instead of the last node's:
    one program for several integrands, each shared subterm computed
    once.

    Given roots and panel, the text defines the panel form `_f(mid,
    half)` instead: one program call per quadrature panel. It runs the
    statements at x = mid + half * xk for each (xk, wk, wg) of the rule
    `_rule` in order and sums each root's wk * value and, where wg is
    not 0.0, its wg * value; it returns the tuples of those Kronrod and
    Gauss sums. A complex root sums from 0j; a real root sums in float
    from 0.0 and returns complex(sum), bit for bit the 0j-started sum,
    whose imaginary part stays 0.0. The names the loop reads (constants,
    fallbacks, exp, complex, `_rule`) are its locals, bound as defaults.
    """
    nodes = e if isinstance(e, list) else _postorder(e)
    lines = []
    consts = {}
    names = {}
    weights = {}  # a typed kernel's argument -> the i of its w<i>, t<i>
    powers = set()  # exponents whose fallback the typed text defines

    def visit(node, *kids):
        kind = type(node)
        if kind is Const:
            name = "c%d" % len(consts)
            real = typed and node.v.is_real
            consts[name] = float(node.v.re) if real else complex(node.v)
            names[node] = name, real
            return name, real
        # a kernel reads the real part of a complex argument, and a
        # power takes a real base as a complex
        args = [n + ".real" if kind is Kern and not r else
                "complex(%s)" % n if kind is Pow and r else n for n, r in kids]
        real = typed and (kind is Var or kind is Kern or all(
            r for _, r in kids) and (kind is not Pow or node.n <= 100))
        if real and kind is Kern:
            if node.arg not in weights:
                weights[node.arg] = len(lines)
                lines.append(_WEIGHT.format(len(lines), args[0]))
            if not node.m:
                names[node] = "w%d" % weights[node.arg], True
                return names[node]
            statement = _REAL_KERN.format(weights[node.arg], node.m)
        elif real and kind is Pow and node.n >= 2:
            powers.add(node.n)
            statement = _REAL_POW.format(_chain(kids[0][0], node.n), node.n,
                                         kids[0][0])
        else:
            m = getattr(node, "m", 0)
            statement = (_REAL_STATEMENT if real else _STATEMENT)[kind].format(
                *args, p=getattr(node, "n", 0), w="w / t ** %d" % m if m else "w")
        name = "v%d" % len(lines)
        lines.append("%s = %s" % (name, statement))
        names[node] = name, real
        return name, real
    last = _fold(nodes, visit)
    head = "".join(_POWER_FALLBACK.format(n) for n in sorted(powers))
    if not panel:
        outs = [last] if roots is None else [names[r] for r in roots]
        out = ", ".join(n for n, _ in outs)
        lines.append("return %s" % (out if roots is None else "(%s,)" % out))
        return head + "def _f(x):\n" + _block(lines, 1), consts
    outs = [names[r] for r in roots]
    sums = ["k%d = g%d = %s" % (i, i, "0.0" if r else "0j")
            for i, (_, r) in enumerate(outs)]
    lines += ["k%d += wk * %s" % (i, n) for i, (n, _) in enumerate(outs)]
    gauss = ["g%d += wg * %s" % (i, n) for i, (n, _) in enumerate(outs)]
    ks, gs = (", ".join(("complex(%s%d)" if r else "%s%d") % (s, i)
                        for i, (_, r) in enumerate(outs)) for s in "kg")
    # names the loop reads are locals, bound once at the def: a local read
    # is cheaper than a global one
    bound = [*consts, *("_p%d" % n for n in sorted(powers)), "exp", "complex",
             "_rule"]
    return (head + "def _f(mid, half, %s):\n" % ", ".join(
                "%s=%s" % (n, n) for n in bound) + _block(sums, 1)
            + "    for xk, wk, wg in _rule:\n        x = mid + half * xk\n"
            + _block(lines, 2) + "        if wg:\n" + _block(gauss, 3)
            + "    return (%s,), (%s,)\n" % (ks, gs)), consts


def _block(lines, depth):
    """lines as a block of statements indented depth levels."""
    return "".join("    " * depth + line + "\n" for line in lines)


def compile_f(e: Expr):
    """Compile e once into a float64 function x -> complex.

    Values, signed zeros and exceptions (ZeroDivisionError, overflow)
    are those of evaluating the tree node by node, left to right, in
    float64 complex arithmetic.
    """
    return _compile(e)


def _compile(e, typed=False, roots=None, rule=None):
    """compile_f, or typed the program grid scans run, or given roots and
    a rule of (abscissa, Kronrod weight, Gauss weight or 0.0) triples the
    panel form quadrature runs: `_code` of its text, run in a fresh
    namespace of its constants."""
    source, consts = _float_program(e, typed, roots, rule is not None)
    namespace = {"complex": complex, "exp": math.exp, "_rule": rule,
                 **consts}
    exec(_code(source, typed), namespace)
    return namespace["_f"]


# texts whose code objects are kept: a benchmark run compiles at most 38
# and `check all` on the smooth demo 48; 256 copies of the longest of
# these (319 lines) hold about 6.4 MB with their texts
_CODE_CACHE = 256


@functools.lru_cache(maxsize=_CODE_CACHE)
def _code(source, typed):
    """A program text's code object, compiled once per (text, typed):
    the text reads its constants by name, so one serves a whole shape."""
    name = "<formalcalc.expr %sprogram>" % ("typed " if typed else "")
    return compile(source, name, "exec")


# -- polynomial fast path ----------------------------------------------------------

def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for d, v in b.items():
        w = out.get(d, QC_ZERO) + v
        if w:
            out[d] = w
        elif d in out:
            del out[d]
    return out


# largest degree of any product poly_coeffs expands; with MAX_FOLD_BITS
# on the coefficients of a power, (pow x 50000000) is refused at once
MAX_POLY_DEGREE = 1 << 10


def _poly_mul(a: dict, b: dict) -> dict:
    if max(a, default=0) + max(b, default=0) > MAX_POLY_DEGREE:
        raise ValueError("polynomial degree exceeds %d" % MAX_POLY_DEGREE)
    out = {}
    for da, va in a.items():
        for db, vb in b.items():
            d = da + db
            w = out.get(d, QC_ZERO) + va * vb
            if w:
                out[d] = w
            elif d in out:
                del out[d]
    return out


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
        return _poly_add(*c)
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
                    if y == 0.0:
                        continue
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

    Raises CertificateError with a witness interval when the proof does
    not close within budget or a piece is shown nonpositive.
    """
    nodes = _postorder(e)
    stack = []
    for lo, hi, _, _ in region.pieces:
        stack.append((lo, hi))
    steps = 0
    while stack:
        lo, hi = stack.pop()
        steps += 1
        if steps > _CERT_BUDGET:
            raise CertificateError("positivity certificate budget exhausted "
                                   "near [%s, %s]" % (lo, hi))
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
                raise CertificateError("cannot certify positivity near "
                                       "[%s, %s]" % (lo, hi))
            mid = (Fraction(lo) + Fraction(hi)) / 2
        stack.append((lo, mid))
        stack.append((mid, hi))


# -- bump construction ----------------------------------------------------------

# endpoint pairs kept per edge: a benchmark run or `check all` on the
# smooth demo builds at most 29; 256 edges with their proofs hold about
# 0.8 MB
_EDGE_CACHE = 256


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

# a pattern text, compiled and kept by re, so that `_code` holds the
# package's one call of the builtin compiler
_RAT_RE = r"^[+-]?(\d+(/\d+)?|\d*\.\d+)$"


def to_sexpr(e: Expr) -> str:
    return _fold(_postorder(e), _sexpr_visit)


def _sexpr_visit(e: Expr, *s) -> str:
    kind = type(e)
    if kind is Const:
        v = e.v
        if v.im == 0:
            return rat_str(v.re)
        return "(complex %s %s)" % (rat_str(v.re), rat_str(v.im))
    if kind is Var:
        return "x"
    if kind is Add:
        return "(+ %s %s)" % s
    if kind is Mul:
        return "(* %s %s)" % s
    if kind is Div:
        return "(/ %s %s)" % s
    if kind is Pow:
        return "(pow %s %d)" % (s[0], e.n)
    if e.m == 0:
        return "(s %s)" % s
    return "(sm %s %d)" % (s[0], e.m)


def _tokenize(s: str):
    return s.replace("(", " ( ").replace(")", " ) ").split()


def parse_sexpr(s: str, region=None) -> Expr:
    """Parse the documented S-expression grammar.

    `region` (an RSet, defaults to the whole line) is where quotient
    denominators are certified positive.
    """
    toks = _tokenize(s)
    if not toks:
        raise ValueError("empty expression")
    pos = [0]

    def take():
        if pos[0] >= len(toks):
            raise ValueError("unexpected end of expression in %r" % s)
        t = toks[pos[0]]
        pos[0] += 1
        return t

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def parse_int(tok: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise ValueError("expected an integer, got %r" % tok) from None

    def parse_rat(tok: str) -> Fraction:
        if not _re.match(_RAT_RE, tok):
            raise ValueError("expected a rational literal, got %r" % tok)
        try:
            return Fraction(tok)
        except ZeroDivisionError:
            raise ValueError("rational literal %r has a zero denominator"
                             % tok) from None

    def expr():
        t = take()
        if t == "(":
            head = take()
            if head == "+" or head == "*":
                args = []
                while peek() != ")":
                    args.append(expr())
                take()
                if len(args) < 2:
                    raise ValueError("(%s ...) needs at least two arguments" % head)
                out = args[0]
                for arg in args[1:]:
                    out = add(out, arg) if head == "+" else mul(out, arg)
                return out
            if head == "/":
                num = expr()
                den = expr()
                _expect_close(take())
                return div(num, den, region=region)
            if head == "pow":
                base = expr()
                n = parse_int(take())
                _expect_close(take())
                return pow_(base, n)
            if head == "s":
                arg = expr()
                _expect_close(take())
                return kern(arg, 0)
            if head == "sm":
                arg = expr()
                m = parse_int(take())
                _expect_close(take())
                return kern(arg, m)
            if head == "complex":
                rp = parse_rat(take())
                ip = parse_rat(take())
                _expect_close(take())
                return Const(QC(rp, ip))
            raise ValueError("unknown operator %r" % head)
        if t == ")":
            raise ValueError("unexpected ) in %r" % s)
        if t == "x":
            return X
        if _re.match(_RAT_RE, t):
            return Const(QC(parse_rat(t)))
        raise ValueError("unexpected token %r" % t)

    def _expect_close(t):
        if t != ")":
            raise ValueError("expected ), got %r" % t)

    out = expr()
    if pos[0] != len(toks):
        raise ValueError("trailing tokens in %r" % s)
    return out
