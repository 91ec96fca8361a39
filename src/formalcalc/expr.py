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
Quadrature uses a separate fast float64 evaluator.

Quotient denominators are certified positive at construction by exact
adaptive interval bisection over the region where the quotient will be
evaluated (the whole line by default).
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .errors import BackendError, CertificateError
from .scalars import QC, QC_ONE, QC_ZERO, qc, rat_str

mp.dps = 30

NEG_INF = float("-inf")
POS_INF = float("inf")


# -- nodes ------------------------------------------------------------------

class Expr:
    __slots__ = ()

    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return sub(self, _as_expr(other))

    def __rsub__(self, other):
        return sub(_as_expr(other), self)

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def __repr__(self):
        return to_sexpr(self)


class Const(Expr):
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = qc(v)

    def _key(self):
        return (self.v.re, self.v.im)


class Var(Expr):
    __slots__ = ()

    def _key(self):
        return ()


class Add(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def _key(self):
        return (self.a, self.b)


class Mul(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def _key(self):
        return (self.a, self.b)


class Div(Expr):
    """Certified quotient. `region` is where positivity of den is known."""

    __slots__ = ("num", "den", "region")

    def __init__(self, num, den, region):
        self.num, self.den, self.region = num, den, region

    def _key(self):
        return (self.num, self.den)


class Pow(Expr):
    __slots__ = ("base", "n")

    def __init__(self, base, n):
        self.base, self.n = base, n

    def _key(self):
        return (self.base, self.n)


class Kern(Expr):
    """s_m(arg): exp(-1/arg)/arg^m for arg > 0, zero otherwise."""

    __slots__ = ("arg", "m")

    def __init__(self, arg, m):
        self.arg, self.m = arg, m

    def _key(self):
        return (self.arg, self.m)


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

def add(a, b) -> Expr:
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
    if n == 1:
        return e
    if _is_const(e):
        v = QC_ONE
        for _ in range(n):
            v = v * e.v
        return Const(v)
    return Pow(e, n)


def kern(arg, m: int = 0) -> Expr:
    m = int(m)
    if m < 0:
        raise ValueError("kernel order must be nonnegative")
    if _is_const(arg):
        if not arg.v.is_real:
            raise BackendError("kernel of a non-real constant")
        if arg.v.re <= 0:
            return ZERO
    return Kern(arg, m)


def div(num, den, region=None) -> Expr:
    """Quotient with a positivity certificate for the denominator.

    `region` is an RSet (or None for the whole line) over which den is
    proven strictly positive by adaptive interval bisection before the
    node is built.
    """
    from .spaces import RSet
    if _is_const(num, 0):
        return ZERO
    if _is_const(den):
        if not den.v:
            raise ZeroDivisionError("constant zero denominator")
        return mul(Const(QC_ONE / den.v), num)
    if region is None:
        region = RSet.whole()
    certify_positive(den, region)
    return Div(num, den, region)


def _div_unchecked(num, den, region) -> Expr:
    if _is_const(num, 0):
        return ZERO
    return Div(num, den, region)


# -- differentiation -----------------------------------------------------------

def diff(e: Expr, order: int = 1) -> Expr:
    for _ in range(order):
        e = _diff1(e)
    return e


def _diff1(e: Expr) -> Expr:
    if isinstance(e, (Const,)):
        return ZERO
    if isinstance(e, Var):
        return ONE
    if isinstance(e, Add):
        return add(_diff1(e.a), _diff1(e.b))
    if isinstance(e, Mul):
        return add(mul(_diff1(e.a), e.b), mul(e.a, _diff1(e.b)))
    if isinstance(e, Div):
        num = sub(mul(_diff1(e.num), e.den), mul(e.num, _diff1(e.den)))
        # den^2 inherits positivity from den on the same region
        return _div_unchecked(num, pow_(e.den, 2), e.region)
    if isinstance(e, Pow):
        return mul(mul(Const(e.n), pow_(e.base, e.n - 1)), _diff1(e.base))
    if isinstance(e, Kern):
        inner = add(Kern(e.arg, e.m + 2), mul(Const(-e.m), Kern(e.arg, e.m + 1)))
        return mul(inner, _diff1(e.arg))
    raise TypeError("unknown expression node %r" % (e,))


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
        v = QC_ONE
        for _ in range(n):
            v = v * a
        return v
    return _mpv(a) ** n


def ev(e: Expr, x):
    """Evaluate at a point. Exact QC where possible, else mpmath value.

    x may be an int, Fraction, or float. mpmath results are carried at
    30 significant digits.
    """
    if isinstance(e, Const):
        return e.v
    if isinstance(e, Var):
        if isinstance(x, (int, Fraction)):
            return QC(x)
        return mpf(x)
    if isinstance(e, Add):
        return _vadd(ev(e.a, x), ev(e.b, x))
    if isinstance(e, Mul):
        return _vmul(ev(e.a, x), ev(e.b, x))
    if isinstance(e, Div):
        return _vdiv(ev(e.num, x), ev(e.den, x))
    if isinstance(e, Pow):
        return _vpow(ev(e.base, x), e.n)
    if isinstance(e, Kern):
        t = ev(e.arg, x)
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
        return mp.exp(-1 / tm) / (tm ** e.m if e.m else 1)
    raise TypeError("unknown expression node %r" % (e,))


def ev_c(e: Expr, x) -> complex:
    """Evaluate and flatten to a Python complex."""
    return complex(ev(e, x))


def ev_f(e: Expr, x: float) -> complex:
    """Fast float64 evaluation for quadrature and grid scans."""
    if isinstance(e, Const):
        return complex(e.v)
    if isinstance(e, Var):
        return complex(x)
    if isinstance(e, Add):
        return ev_f(e.a, x) + ev_f(e.b, x)
    if isinstance(e, Mul):
        return ev_f(e.a, x) * ev_f(e.b, x)
    if isinstance(e, Div):
        return ev_f(e.num, x) / ev_f(e.den, x)
    if isinstance(e, Pow):
        return ev_f(e.base, x) ** e.n
    if isinstance(e, Kern):
        t = ev_f(e.arg, x).real
        if t <= 0.0:
            return 0j
        w = math.exp(-1.0 / t)
        if w == 0.0:
            return 0j
        return complex(w / t ** e.m)
    raise TypeError("unknown expression node %r" % (e,))


# -- polynomial fast path ----------------------------------------------------------

def poly_coeffs(e: Expr):
    """dict degree -> QC if the tree is polynomial, else None."""
    if isinstance(e, Const):
        return {} if not e.v else {0: e.v}
    if isinstance(e, Var):
        return {1: QC_ONE}
    if isinstance(e, Add):
        a, b = poly_coeffs(e.a), poly_coeffs(e.b)
        if a is None or b is None:
            return None
        out = dict(a)
        for d, v in b.items():
            w = out.get(d, QC_ZERO) + v
            if w:
                out[d] = w
            elif d in out:
                del out[d]
        return out
    if isinstance(e, Mul):
        a, b = poly_coeffs(e.a), poly_coeffs(e.b)
        if a is None or b is None:
            return None
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
    if isinstance(e, Pow):
        base = poly_coeffs(e.base)
        if base is None:
            return None
        out = {0: QC_ONE}
        for _ in range(e.n):
            nxt = {}
            for da, va in out.items():
                for db, vb in base.items():
                    d = da + db
                    w = nxt.get(d, QC_ZERO) + va * vb
                    if w:
                        nxt[d] = w
                    elif d in nxt:
                        del nxt[d]
            out = nxt
        return out
    # Kern and Div are never treated as polynomial; a kernel of a
    # positive constant is constant but transcendental
    return None


def is_polynomial(e: Expr) -> bool:
    return poly_coeffs(e) is not None


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
    if isinstance(e, Const):
        if not e.v.is_real:
            raise CertificateError("non-real constant inside a certified denominator")
        v = float(e.v.re)
        return (_lo_widen(v), _hi_widen(v))
    if isinstance(e, Var):
        return (lo, hi)
    if isinstance(e, Add):
        a = ibounds(e.a, lo, hi)
        b = ibounds(e.b, lo, hi)
        return (_lo_widen(a[0] + b[0]), _hi_widen(a[1] + b[1]))
    if isinstance(e, Mul):
        a = ibounds(e.a, lo, hi)
        b = ibounds(e.b, lo, hi)
        cands = [_pmul(a[i], b[j]) for i in (0, 1) for j in (0, 1)]
        return (_lo_widen(min(cands)), _hi_widen(max(cands)))
    if isinstance(e, Div):
        a = ibounds(e.num, lo, hi)
        b = ibounds(e.den, lo, hi)
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
            # unbounded numerator over a sign-definite denominator
            cands.extend([NEG_INF, POS_INF])
        return (_lo_widen(min(cands)), _hi_widen(max(cands)))
    if isinstance(e, Pow):
        a = ibounds(e.base, lo, hi)
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
        u1, u2 = ibounds(e.arg, lo, hi)
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


_CERT_BUDGET = 50_000
_CERT_MIN_WIDTH = Fraction(1, 2 ** 60)


def certify_positive(e: Expr, region) -> None:
    """Prove e > 0 on the region by adaptive interval bisection.

    Raises CertificateError with a witness interval when the proof does
    not close within budget or a piece is shown nonpositive.
    """
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
        blo, bhi = ibounds(e, float(lo), float(hi))
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

def rising_edge(a: Fraction, b: Fraction) -> Expr:
    """Smooth 0-to-1 step: zero for x <= a, one for x >= b. Needs a < b."""
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("rising edge needs a < b")
    up = kern(X - Const(a))
    down = kern(Const(b) - X)
    return div(up, add(up, down))


def falling_edge(c: Fraction, d: Fraction) -> Expr:
    """Smooth 1-to-0 step: one for x <= c, zero for x >= d. Needs c < d."""
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


# -- S-expression serialization ---------------------------------------------------

_RAT_RE = _re.compile(r"^[+-]?(\d+(/\d+)?|\d*\.\d+)$")


def to_sexpr(e: Expr) -> str:
    if isinstance(e, Const):
        v = e.v
        if v.im == 0:
            return rat_str(v.re)
        return "(complex %s %s)" % (rat_str(v.re), rat_str(v.im))
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Add):
        return "(+ %s %s)" % (to_sexpr(e.a), to_sexpr(e.b))
    if isinstance(e, Mul):
        return "(* %s %s)" % (to_sexpr(e.a), to_sexpr(e.b))
    if isinstance(e, Div):
        return "(/ %s %s)" % (to_sexpr(e.num), to_sexpr(e.den))
    if isinstance(e, Pow):
        return "(pow %s %d)" % (to_sexpr(e.base), e.n)
    if isinstance(e, Kern):
        if e.m == 0:
            return "(s %s)" % to_sexpr(e.arg)
        return "(sm %s %d)" % (to_sexpr(e.arg), e.m)
    raise TypeError("unknown expression node %r" % (e,))


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
        if not _RAT_RE.match(tok):
            raise ValueError("expected a rational literal, got %r" % tok)
        return Fraction(tok)

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
        if _RAT_RE.match(t):
            return Const(QC(Fraction(t)))
        raise ValueError("unexpected token %r" % t)

    def _expect_close(t):
        if t != ")":
            raise ValueError("expected ), got %r" % t)

    out = expr()
    if pos[0] != len(toks):
        raise ValueError("trailing tokens in %r" % s)
    return out
