"""Base spaces, their open subsets, and support regions.

Two backends:

* Discrete: a finite set of labelled points with the discrete topology.
  Every subset is open and there are no coordinate directions, so the
  only x-multi-index is the empty tuple.

* SmoothLine: the real line with global coordinate x. Open sets are
  finite unions of open intervals with rational or infinite endpoints,
  held in canonical sorted disjoint form.

Each backend also owns the algebra of its base coefficients, the
functions on the base that formal functions, densities and
distributions are built from: a dict label -> nonzero QC on Discrete,
a smooth expression on SmoothLine. No other module looks inside a
coefficient; they call the space's methods (zero, add, scale, mul,
diff, ev, restrict, integrate, pair, support, to_json, ...).

The smooth side rests on RSet, an exact boolean algebra of interval
unions with explicit endpoint flags. RSet also models supports (closed,
possibly unbounded unions, including degenerate single points) and
plateau regions, so subset, difference, and emptiness questions are all
decided exactly in rational arithmetic.
"""

from __future__ import annotations

from .errors import BackendError, DomainMismatchError, SupportError
from .expr import ZERO, Const, diff, ev, mul, parse_sexpr, to_sexpr
from .quadrature import DEFAULT_ABS_TOL, integrate_expr
from .scalars import (QC_ZERO, qc, qc_from_json, qc_to_json, rat_from_json,
                      rat_to_json)

NEG_INF = float("-inf")
POS_INF = float("inf")


def _is_inf(v) -> bool:
    return v == NEG_INF or v == POS_INF


def _ep_from_json(v, side: str):
    if v is None:
        return NEG_INF if side == "lo" else POS_INF
    return rat_from_json(v)


def _ep_to_json(v):
    return None if _is_inf(v) else rat_to_json(v)


class RSet:
    """Finite union of intervals with rational or infinite endpoints.

    Pieces are (lo, hi, lo_open, hi_open) tuples kept sorted, disjoint,
    and maximal. Infinite endpoints are always open. A piece with
    lo == hi and both ends closed is a single point.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces=()):
        self.pieces = _canon(pieces)

    @classmethod
    def open_pairs(cls, pairs):
        return cls([(lo, hi, True, True) for lo, hi in pairs])

    @classmethod
    def closed_pairs(cls, pairs):
        return cls([(lo, hi, _is_inf(lo), _is_inf(hi)) for lo, hi in pairs])

    @classmethod
    def point(cls, a):
        return cls([(a, a, False, False)])

    @classmethod
    def whole(cls):
        return cls([(NEG_INF, POS_INF, True, True)])

    # -- queries --------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    @property
    def is_bounded(self) -> bool:
        return all(not _is_inf(lo) and not _is_inf(hi)
                   for lo, hi, _, _ in self.pieces)

    def contains(self, x) -> bool:
        for lo, hi, lo_open, hi_open in self.pieces:
            if (x > lo or (x == lo and not lo_open)) and \
               (x < hi or (x == hi and not hi_open)):
                return True
        return False

    def hull(self):
        """(lo, hi) of the smallest enclosing interval; None if empty."""
        if not self.pieces:
            return None
        return (self.pieces[0][0], self.pieces[-1][1])

    def bounds_list(self):
        """Piece endpoint pairs, endpoint flags dropped."""
        return [(lo, hi) for lo, hi, _, _ in self.pieces]

    # -- boolean algebra -------------------------------------------------

    def union(self, other: "RSet") -> "RSet":
        return RSet(self.pieces + other.pieces)

    def complement(self) -> "RSet":
        out = []
        cur_lo, cur_open = NEG_INF, True
        for lo, hi, lo_open, hi_open in self.pieces:
            out.append((cur_lo, lo, cur_open, not lo_open))
            cur_lo, cur_open = hi, not hi_open
        out.append((cur_lo, POS_INF, cur_open, True))
        return RSet(out)

    def intersect(self, other: "RSet") -> "RSet":
        out = []
        for a in self.pieces:
            for b in other.pieces:
                lo, lo_open = max((a[0], a[2]), (b[0], b[2]))
                hi, hi_open = min((a[1], not a[3]), (b[1], not b[3]))
                out.append((lo, hi, lo_open, not hi_open))
        return RSet(out)

    def difference(self, other: "RSet") -> "RSet":
        return self.intersect(other.complement())

    def is_subset(self, other: "RSet") -> bool:
        return self.difference(other).is_empty

    def closure(self) -> "RSet":
        return RSet([(lo, hi, _is_inf(lo), _is_inf(hi))
                     for lo, hi, _, _ in self.pieces])

    def interior(self) -> "RSet":
        return self.complement().closure().complement()

    @property
    def is_open(self) -> bool:
        return self == self.interior()

    # -- plumbing ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, RSet) and self.pieces == other.pieces

    def __hash__(self):
        return hash(self.pieces)

    def __repr__(self):
        if not self.pieces:
            return "RSet()"
        bits = []
        for lo, hi, lo_open, hi_open in self.pieces:
            bits.append("%s%s, %s%s" % ("(" if lo_open else "[", lo, hi,
                                        ")" if hi_open else "]"))
        return "RSet{%s}" % " u ".join(bits)


def _canon(pieces):
    kept = []
    for lo, hi, lo_open, hi_open in pieces:
        if _is_inf(lo):
            lo_open = True
        if _is_inf(hi):
            hi_open = True
        if lo > hi:
            continue
        if lo == hi and (lo_open or hi_open):
            continue
        kept.append((lo, hi, lo_open, hi_open))
    kept.sort(key=lambda p: (p[0], p[2]))
    out = []
    for p in kept:
        if out:
            q = out[-1]
            touches = p[0] < q[1] or (p[0] == q[1] and not (q[3] and p[2]))
            if touches:
                hi, hi_closed = max((q[1], not q[3]), (p[1], not p[3]))
                out[-1] = (q[0], hi, q[2], not hi_closed)
                continue
        out.append(p)
    return tuple(out)


class Discrete:
    """Finite discrete base space with string point labels.

    A base coefficient is a dict label -> nonzero QC; a missing label
    is zero. Its support is read off its keys, sums over a region are
    exact, and there are no x-derivatives.
    """

    kind = "discrete"
    ndim = 0

    def __init__(self, labels):
        pts = tuple(sorted(set(str(p) for p in labels)))
        if not pts:
            raise ValueError("a discrete base space needs at least one point")
        self.points = pts
        self._labels = frozenset(pts)

    def whole(self) -> "OpenSet":
        return OpenSet(self, self.points)

    # -- coefficient algebra ------------------------------------------------

    def zero(self):
        return {}

    def is_zero(self, c) -> bool:
        return not c

    def clean(self, c, domain: "OpenSet" = None):
        """Validated copy: labels inside the domain (default: the whole
        space), values as QC, zero values dropped."""
        allowed = self._labels if domain is None else domain.labels
        out = {}
        for p, v in c.items():
            p = str(p)
            if p not in allowed:
                raise DomainMismatchError("coefficient value at %r outside "
                                          "the domain" % p)
            v = qc(v)
            if v:
                out[p] = v
        return out

    def constant(self, value, points):
        """The constant value on the given labels."""
        value = qc(value)
        return dict.fromkeys(points, value) if value else {}

    def add(self, a, b):
        out = dict(a)
        for p, v in b.items():
            w = out.get(p, QC_ZERO) + v
            if w:
                out[p] = w
            elif p in out:
                del out[p]
        return out

    def scale(self, c, s):
        """s * c."""
        s = qc(s)
        if not s:
            return {}
        return {p: v * s for p, v in c.items()}

    def mul(self, a, b):
        out = {}
        for p, v in a.items():
            w = v * b.get(p, QC_ZERO)
            if w:
                out[p] = w
        return out

    def diff(self, c, i: int):
        if i:
            raise BackendError("the discrete backend has no x-derivatives")
        return c

    def ev(self, c, a):
        return c.get(str(a), QC_ZERO)

    def restrict(self, c, u: "OpenSet"):
        return {p: v for p, v in c.items() if p in u.labels}

    def integrate(self, c, region, abs_tol=DEFAULT_ABS_TOL, budget=None):
        """Exact sum of c over the labels of a region."""
        acc = QC_ZERO
        for p in sorted(region):
            acc = acc + c.get(p, QC_ZERO)
        return acc

    def pair(self, a, b, region, abs_tol=DEFAULT_ABS_TOL, budget=None):
        """Exact sum of a * b over the labels of a.

        The region only bounds quadrature on the line; callers pass one
        outside which a or b vanishes, so the sum needs no clipping.
        """
        acc = QC_ZERO
        for p in sorted(a):
            acc = acc + a[p] * b.get(p, QC_ZERO)
        return acc

    def gather(self, pairs):
        """Canonical (coefficient, bound) integral terms of a distribution:
        the weight maps summed into one, bounds dropped."""
        acc = {}
        for g, _ in pairs:
            acc = self.add(acc, g) if acc else g
        return [(acc, None)] if acc else []

    def support(self, cs, bound=None):
        """Labels where any of the coefficients is nonzero."""
        return frozenset().union(*cs)

    def region(self, r):
        """A support witness given as any collection of labels."""
        return frozenset(r)

    def stray(self, c, region):
        """Sorted labels where c is nonzero outside the region."""
        return sorted(set(c) - region)

    def to_json(self, c):
        return {p: qc_to_json(v) for p, v in sorted(c.items())}

    def from_json(self, v, domain: "OpenSet" = None, region=None):
        if not isinstance(v, dict):
            raise ValueError("discrete coefficient must be a point->value map")
        return self.clean({p: qc_from_json(w) for p, w in v.items()}, domain)

    def bounded_to_json(self, c, bound):
        """JSON of a coefficient with its support bound (a density)."""
        return self.to_json(c)

    def bounded_from_json(self, v, region=None):
        """(coefficient, bound) from bounded_to_json output."""
        return self.from_json(v), None

    def terms_to_json(self, terms):
        """JSON of a distribution's term list: the weight map of its one
        smooth term, written as a point->value map."""
        return terms[0]["expr"] if terms else {}

    def terms_from_json(self, v):
        """Inverse of terms_to_json."""
        if not isinstance(v, dict):
            raise ValueError("discrete distribution must be a point->value map")
        return [{"kind": "smooth", "expr": v}]

    def weights(self, c):
        """The coefficient as a weight map (None on the line)."""
        return c

    def expr(self, c):
        """The coefficient as an expression (None on a discrete space)."""
        return None

    def __eq__(self, other):
        return isinstance(other, Discrete) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return "Discrete(%s)" % (list(self.points),)


class SmoothLine:
    """The real line with global coordinate x."""

    kind = "smoothline"
    ndim = 1

    def whole(self) -> "OpenSet":
        return OpenSet(self, [(NEG_INF, POS_INF)])

    # -- coefficient algebra ------------------------------------------------
    #
    # A base coefficient is an expression in x, taken as globally defined.
    # Expressions carry no support, so supports are stated witnesses
    # (RSet bounds), and integrals run over the pieces of a region.

    def zero(self):
        return ZERO

    def is_zero(self, c) -> bool:
        return c == ZERO

    def clean(self, c, domain: "OpenSet" = None):
        return c

    def constant(self, value, points=None):
        return Const(qc(value))

    def add(self, a, b):
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        return a + b

    def scale(self, c, s):
        """s * c, the constant on the left."""
        s = qc(s)
        if not s:
            return ZERO
        return mul(Const(s), c)

    def mul(self, a, b):
        return mul(a, b)

    def diff(self, c, i: int):
        return diff(c, i) if i else c

    def ev(self, c, a):
        return ev(c, a)

    def restrict(self, c, u: "OpenSet"):
        return c

    def integrate(self, c, region, abs_tol=DEFAULT_ABS_TOL, budget=None):
        """Integral of c over the pieces of a bounded region."""
        return integrate_expr(c, region.bounds_list(), abs_tol, budget)

    def pair(self, a, b, region, abs_tol=DEFAULT_ABS_TOL, budget=None):
        """Integral of a * b over the pieces of a bounded region."""
        return integrate_expr(mul(a, b), region.bounds_list(), abs_tol,
                              budget)

    def gather(self, pairs):
        """Canonical (coefficient, bound) integral terms of a distribution:
        nonzero ones sorted, never merged."""
        kept = [(g, b) for g, b in pairs if g != ZERO]
        kept.sort(key=lambda t: (to_sexpr(t[0]),
                                 () if t[1] is None else t[1].pieces))
        return kept

    def support(self, cs, bound=None):
        """The stated bound; an expression cannot tell its own support."""
        if bound is None:
            raise SupportError("a smooth coefficient needs an explicit "
                               "support witness")
        return bound

    def region(self, r):
        return r

    def stray(self, c, region):
        # a stated smooth witness is taken on trust
        return []

    def to_json(self, c):
        return to_sexpr(c)

    def from_json(self, v, domain: "OpenSet" = None, region=None):
        if not isinstance(v, str):
            raise ValueError("smooth coefficient must be an expression string")
        return parse_sexpr(v, region=region)

    def bounded_to_json(self, c, bound):
        return {"expr": to_sexpr(c), "support": region_to_json(bound)}

    def bounded_from_json(self, v, region=None):
        if not isinstance(v, dict) or "expr" not in v or "support" not in v:
            raise ValueError("smooth density needs 'expr' and 'support' fields")
        return (parse_sexpr(v["expr"], region=region),
                region_from_json(self, v["support"]))

    def terms_to_json(self, terms):
        return terms

    def terms_from_json(self, v):
        if not isinstance(v, list):
            raise ValueError("smooth distribution must be a list of terms")
        return v

    def weights(self, c):
        return None

    def expr(self, c):
        return c

    def __eq__(self, other):
        return isinstance(other, SmoothLine)

    def __hash__(self):
        return hash("smoothline")

    def __repr__(self):
        return "SmoothLine()"


class OpenSet:
    """An open subset of a base space.

    Discrete: any label subset. SmoothLine: a canonical finite union of
    open intervals, stored as an open RSet.
    """

    __slots__ = ("space", "labels", "rset")

    def __init__(self, space, data):
        self.space = space
        if space.kind == "discrete":
            labels = frozenset(str(p) for p in data)
            stray = labels - set(space.points)
            if stray:
                raise ValueError("labels not in the base space: %s"
                                 % sorted(stray))
            self.labels = labels
            self.rset = None
        else:
            rs = data if isinstance(data, RSet) else RSet.open_pairs(data)
            if not rs.is_open:
                raise ValueError("not an open interval union: %r" % (rs,))
            self.rset = rs
            self.labels = None

    # -- set operations ---------------------------------------------------

    def union(self, other: "OpenSet") -> "OpenSet":
        self._check_space(other)
        if self.labels is not None:
            return OpenSet(self.space, self.labels | other.labels)
        return OpenSet(self.space, self.rset.union(other.rset))

    def intersect(self, other: "OpenSet") -> "OpenSet":
        self._check_space(other)
        if self.labels is not None:
            return OpenSet(self.space, self.labels & other.labels)
        return OpenSet(self.space, self.rset.intersect(other.rset))

    def is_subset(self, other: "OpenSet") -> bool:
        self._check_space(other)
        if self.labels is not None:
            return self.labels <= other.labels
        return self.rset.is_subset(other.rset)

    def contains(self, x) -> bool:
        if self.labels is not None:
            return x in self.labels
        return self.rset.contains(x)

    @property
    def is_empty(self) -> bool:
        if self.labels is not None:
            return not self.labels
        return self.rset.is_empty

    def points(self):
        """Labels of a discrete open set, in sorted order."""
        assert self.labels is not None
        return sorted(self.labels)

    def _check_space(self, other):
        if self.space != other.space:
            raise DomainMismatchError("open sets over different base spaces")

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, OpenSet) or self.space != other.space:
            return False
        return self.labels == other.labels and self.rset == other.rset

    def __hash__(self):
        return hash((self.space, self.labels, self.rset))

    def __repr__(self):
        if self.labels is not None:
            return "OpenSet(%s)" % sorted(self.labels)
        return "OpenSet(%r)" % (self.rset,)

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        if self.labels is not None:
            return sorted(self.labels)
        return [[_ep_to_json(lo), _ep_to_json(hi)]
                for lo, hi, _, _ in self.rset.pieces]

    @classmethod
    def from_json(cls, space, v):
        if not isinstance(v, list):
            raise ValueError("open set must be a JSON array")
        if space.kind == "discrete":
            return cls(space, v)
        pairs = []
        for pair in v:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError("interval must be a [lo, hi] pair: %r" % (pair,))
            pairs.append((_ep_from_json(pair[0], "lo"),
                          _ep_from_json(pair[1], "hi")))
        return cls(space, pairs)


# -- support regions -----------------------------------------------------
#
# A support witness is a frozenset of labels (discrete) or an RSet
# (smooth, usually closed). Regions are compared exactly.

def region_empty(space):
    return frozenset() if space.kind == "discrete" else RSet()


def region_union(a, b):
    if isinstance(a, frozenset):
        return a | b
    return a.union(b)


def region_intersect(a, b):
    if isinstance(a, frozenset):
        return a & b
    return a.intersect(b)


def region_is_empty(r) -> bool:
    if isinstance(r, frozenset):
        return not r
    return r.is_empty


def region_is_compact(r) -> bool:
    if isinstance(r, frozenset):
        return True
    return r.is_bounded


def region_subset_open(r, u: OpenSet, within: OpenSet = None) -> bool:
    """Is the region inside the open set, relative to an ambient open set?

    With `within` given, only the part of the region meeting `within`
    must lie in `u`; supports of sections over an open whole set are
    closures taken in the line, so their overhang outside the ambient
    set is ignored.
    """
    if isinstance(r, frozenset):
        if within is not None:
            r = r & within.labels
        return r <= u.labels
    if within is not None:
        r = r.intersect(within.rset)
    return r.is_subset(u.rset)


def region_contains(r, x) -> bool:
    if isinstance(r, frozenset):
        return str(x) in r
    return r.contains(x)


def region_intersect_open(r, u: OpenSet):
    if isinstance(r, frozenset):
        return r & u.labels
    return r.intersect(u.rset)


def region_from_json(space, v):
    if space.kind == "discrete":
        return frozenset(str(p) for p in v)
    pairs = []
    for pair in v:
        pairs.append((_ep_from_json(pair[0], "lo"), _ep_from_json(pair[1], "hi")))
    return RSet.closed_pairs(pairs)


def region_to_json(r):
    if isinstance(r, frozenset):
        return sorted(r)
    return [[_ep_to_json(lo), _ep_to_json(hi)] for lo, hi, _, _ in r.pieces]
