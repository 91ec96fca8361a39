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
diff, ev, restrict, integrate_all, support, to_json, ...).

A region (an open set, a support, a plateau) is one value of the
space: a frozenset of labels on Discrete, an RSet on SmoothLine. Both
answer to the same operators, | & - <= `in` and truthiness, so the
rest of the package combines regions without knowing which it holds;
what differs (compactness, interiors, parsing a base point, JSON) is
a method of the space, and only this module knows how a region is
represented.

Each backend also supplies the ingredients of the sheaf constructions,
as base data that sheaf.py turns into formal sections: the probes
(`probes`), a partition of unity (`partition`), a cutoff and its
plateau and support near a set (`cutoff`, `cutoff_near`), and the
proofs that a partition sums to one (`prove_unit`) and that two lists
of (coefficient, bound) terms agree (`proves_equal`, one rule per
space). Label indicators on Discrete, exact; on SmoothLine plateau
bumps over one certified denominator, whose proofs close the
partition identity (`_sums_to_one`, order-free) and leave the rest
unknown: no verdict comes from a sample. Lists of bounded terms (a
density's at one key and derivative stack, a distribution's integral
terms, a partition's coefficients on its region) are proved further:
with each partition reassembly in their coefficients summed, its
derivatives summing to 0 (`_reassembled`), then on the pieces of
their bounds (`expr.equal_on_pieces`). Reading a section at the
probes is section-level work, done in sheaf.py.

RSet is an exact boolean algebra of interval unions with explicit
endpoint flags. It also models supports (closed, possibly unbounded
unions, including degenerate single points) and plateau regions, so
subset, difference, and emptiness questions are all decided exactly
in rational arithmetic.
"""

from __future__ import annotations

import weakref
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import or_

from .errors import (BackendError, CertificateError, DomainMismatchError,
                     SupportError, UndecidedCertificateError, json_shape)
from .expr import (ONE, ZERO, Add, Const, Div, Mul, X, _compile, add, bump,
                   certified, diff, div, equal_on_pieces, ev, falling_edge,
                   mul, parse_sexpr, pow_, rising_edge, to_sexpr, window_bump)
from .quadrature import DEFAULT_ABS_TOL, integrate_exprs
from .scalars import (QC, QC_ONE, QC_ZERO, qc, qc_from_json, qc_map_add,
                      qc_to_json, rat_from_json, rat_to_json)

NEG_INF = float("-inf")
POS_INF = float("inf")


def _is_inf(v) -> bool:
    # only a float can be infinite: a Fraction endpoint is never compared
    # with a float infinity, which Fraction.__eq__ answers slowly
    return type(v) is float and (v == NEG_INF or v == POS_INF)


def same(a, b) -> bool:
    """a == b, asked only when a is not b: spaces and open sets are
    compared often, and mostly with themselves."""
    return a is b or a == b


def _ep_from_json(v, side: str):
    if v is None:
        return NEG_INF if side == "lo" else POS_INF
    return rat_from_json(v)


def _ep_to_json(v):
    return None if _is_inf(v) else rat_to_json(v)


class RSet:
    """Finite union of intervals with rational or infinite endpoints.

    Pieces are (lo, hi, lo_open, hi_open) tuples kept sorted, disjoint,
    and maximal: no two pieces touch, so each connected part of the set
    is one piece. Infinite endpoints are always open floats. A piece
    with lo == hi and both ends closed is a single point. Subset,
    intersection and openness read this invariant piece by piece; only
    the constructor (`_canon`) establishes it.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces=()):
        self.pieces = _canon(pieces)

    @classmethod
    def _trusted(cls, pieces) -> "RSet":
        """The RSet of pieces that already keep its invariant."""
        r = object.__new__(cls)
        r.pieces = tuple(pieces)
        return r

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
        # both piece lists keep the invariant, so none is dropped: one
        # walk merges them in _canon's order (self's piece first on a
        # tie), and only pieces that touch across the two are joined
        theirs, merged, j = other.pieces, [], 0
        for p in self.pieces:
            while j < len(theirs) and _start(theirs[j]) < _start(p):
                merged.append(theirs[j])
                j += 1
            merged.append(p)
        merged.extend(theirs[j:])
        return RSet._trusted(_joined(merged))

    def complement(self) -> "RSet":
        out = []
        cur_lo, cur_open = NEG_INF, True
        for lo, hi, lo_open, hi_open in self.pieces:
            out.append((cur_lo, lo, cur_open, not lo_open))
            cur_lo, cur_open = hi, not hi_open
        out.append((cur_lo, POS_INF, cur_open, True))
        return RSet(out)

    def intersect(self, other: "RSet") -> "RSet":
        # the meets of two separated piece lists, taken in order, are
        # sorted and separated already: only the empty ones drop out
        out = []
        for a in self.pieces:
            for b in other.pieces:
                lo, lo_open = max((a[0], a[2]), (b[0], b[2]))
                hi, hi_closed = min((a[1], not a[3]), (b[1], not b[3]))
                if lo < hi or (lo == hi and hi_closed and not lo_open):
                    out.append((lo, hi, lo_open, not hi_closed))
        return RSet._trusted(out)

    def difference(self, other: "RSet") -> "RSet":
        return self.intersect(other.complement())

    def is_subset(self, other: "RSet") -> bool:
        # a piece is connected, so it lies in other only inside one of
        # its pieces; both lists are sorted, so the search never goes back
        theirs, j = other.pieces, 0
        for a in self.pieces:
            while j < len(theirs) and not _inside(a, theirs[j]):
                j += 1
            if j == len(theirs):
                return False
        return True

    def closure(self) -> "RSet":
        return RSet([(lo, hi, _is_inf(lo), _is_inf(hi))
                     for lo, hi, _, _ in self.pieces])

    def interior(self) -> "RSet":
        return self.complement().closure().complement()

    @property
    def is_open(self) -> bool:
        # separated pieces: a closed end is a boundary point of the set
        return all(lo_open and hi_open for _, _, lo_open, hi_open in self.pieces)

    # -- the frozenset spelling --------------------------------------------
    #
    # A region of either backend is combined with the same operators, so
    # code outside this module never asks which kind of region it holds.

    __or__ = union
    __and__ = intersect
    __sub__ = difference
    __le__ = is_subset
    __contains__ = contains

    def __bool__(self):
        return bool(self.pieces)

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


def _inside(a, b) -> bool:
    """Piece a lies in piece b."""
    return ((b[0] < a[0] or (b[0] == a[0] and (a[2] or not b[2])))
            and (a[1] < b[1] or (a[1] == b[1] and (a[3] or not b[3]))))


def _canon(pieces):
    """RSet's invariant for any pieces: infinite ends opened, empty
    pieces dropped, the rest sorted and every touching pair merged."""
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
    kept.sort(key=_start)
    return tuple(_joined(kept))


def _start(p):
    """A piece's sort key: its left end, closed before open."""
    return p[0], p[2]


def _joined(pieces):
    """Nonempty pieces in _start order, every touching pair merged."""
    out = []
    for p in pieces:
        if out:
            q = out[-1]
            touches = p[0] < q[1] or (p[0] == q[1] and not (q[3] and p[2]))
            if touches:
                hi, hi_closed = max((q[1], not q[3]), (p[1], not p[3]))
                out[-1] = (q[0], hi, q[2], not hi_closed)
                continue
        out.append(p)
    return out


class Discrete:
    """Finite discrete base space with string point labels.

    A base coefficient is a dict label -> nonzero QC; a missing label
    is zero. Its support is read off its keys, sums over a region are
    exact, and there are no x-derivatives.
    """

    ndim = 0

    def __init__(self, labels):
        pts = tuple(sorted(set(str(p) for p in labels)))
        if not pts:
            raise ValueError("a discrete base space needs at least one point")
        self.points = pts
        self._labels = frozenset(pts)

    def whole(self) -> "OpenSet":
        return OpenSet(self, self.points)

    # -- regions and points ------------------------------------------------
    #
    # A region is a frozenset of labels. Every subset is open and
    # compact, and a base point is a label.

    def empty_region(self):
        return frozenset()

    def open_region(self, data):
        if isinstance(data, RSet):
            raise BackendError("not a region of a discrete space: %r" % (data,))
        labels = frozenset(str(p) for p in data)
        if not labels <= self._labels:
            raise ValueError("labels not in the base space: %s"
                             % sorted(labels - self._labels))
        return labels

    def is_compact(self, r) -> bool:
        return True

    def interior(self, r):
        return r

    def point(self, v):
        """A base point: one of the labels."""
        if str(v) not in self._labels:
            raise ValueError("unknown point %r (points: %s)"
                             % (v, ", ".join(self.points)))
        return str(v)

    def point_region(self, a):
        return frozenset({a})

    def origin(self):
        """The point the jet basis is read at: the first label."""
        return self.points[0]

    def region_to_json(self, r):
        return sorted(r)

    def region_from_json(self, v):
        return frozenset(str(p) for p in json_shape(v, list, "label region"))

    open_from_json = region_from_json

    # -- sheaf ingredients --------------------------------------------------
    #
    # Indicators of labels: the probes are the complete dual basis, and
    # partitions and cutoffs are exact.

    def probes(self, region, xdeg_cap):
        """(coefficient, support) of each probe: the indicator of every
        label of the region, in order (there are no powers of x)."""
        return [({p: QC_ONE}, frozenset({p})) for p in sorted(region)]

    def partition(self, whole, parts):
        """(coefficient, support, plateau) per part: the indicator of
        the labels that no earlier part holds (first match)."""
        out, assigned = [], frozenset()
        for part in parts:
            labels = part - assigned
            assigned |= labels
            out.append((self.constant(1, labels), labels, labels))
        return out

    def cutoff(self, plateau, support):
        """The indicator of the plateau labels."""
        return self.constant(1, plateau)

    def cutoff_near(self, r, region):
        """(plateau, support) of a cutoff that is one on r: both r."""
        return r, r

    def prove_unit(self, coeffs, region):
        """Check that the coefficients sum exactly to one on each label of
        the region and to zero outside it; CertificateError if not."""
        if reduce(self.add, coeffs, {}) != self.constant(1, region):
            raise CertificateError("partition sum deviates from one")

    def proves_equal(self, a, b, region) -> bool:
        """a == b, lists of (weights, bound) terms: exact, no proof needed."""
        return a == b

    # -- coefficient algebra ------------------------------------------------

    def zero(self):
        return {}

    def is_zero(self, c) -> bool:
        return not c

    def clean(self, c, domain: "OpenSet" = None):
        """Validated copy: labels inside the domain (default: the whole
        space), values as QC, zero values dropped.

        Only the public constructors call it, on coefficients that come
        from outside; what this algebra returns is canonical already
        and skips it.
        """
        allowed = self._labels if domain is None else domain.region
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

    add = staticmethod(qc_map_add)

    def scale(self, c, s):
        """s * c."""
        s = qc(s)
        if not s:
            return {}
        return {p: v * s for p, v in c.items()}

    def mul(self, a, b):
        # a product of nonzero values is nonzero, so only the common
        # labels enter and nothing needs dropping
        return {p: v * b[p] for p, v in a.items() if p in b}

    def diff(self, c, i: int):
        if i:
            raise BackendError("the discrete backend has no x-derivatives")
        return c

    def ev(self, c, a):
        return c.get(str(a), QC_ZERO)

    def restrict(self, c, u: "OpenSet"):
        return {p: v for p, v in c.items() if p in u.region}

    def integrate_all(self, items, abs_tol=DEFAULT_ABS_TOL):
        """The exact sum of c over the labels of the region, in label
        order, for each (c, region) of items."""
        return [sum((c[p] for p in sorted(c.keys() & region)), QC_ZERO)
                for c, region in items]

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

    # a support witness: labels of the space, maybe beyond the domain
    region = open_region

    def stray(self, c, region):
        """Sorted labels where c is nonzero outside the region."""
        return sorted(set(c) - region)

    def monomial(self, i, scale, region):
        """scale * x^I on a region: with no coordinates, the constant."""
        return self.constant(scale, region)

    def point_term(self, a, i, c, smooth, point):
        """c times evaluation at a: the smooth term of the weight c at a."""
        return smooth(self.diff({a: c}, i))

    def sup_abs(self, c, region, grid):
        """Exact max of |c| over its labels; the grid is the line's."""
        return max(map(abs, c.values()), default=0.0)

    def to_json(self, c):
        return {p: qc_to_json(v) for p, v in sorted(c.items())}

    def from_json(self, v, domain: "OpenSet" = None):
        if not isinstance(v, dict):
            raise ValueError("discrete coefficient must be a point->value map")
        return self.clean({p: qc_from_json(w) for p, w in v.items()}, domain)

    def bounded_to_json(self, c, bound):
        """JSON of a coefficient with its support bound (a density)."""
        return self.to_json(c)

    def bounded_from_json(self, v):
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

    def __eq__(self, other):
        return isinstance(other, Discrete) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return "Discrete(%s)" % (list(self.points),)


def _probe_windows(lo, hi):
    """Bounded probe windows strictly inside an interval piece."""
    if lo == NEG_INF and hi == POS_INF:
        return [(Fraction(-1), Fraction(1)), (Fraction(-3), Fraction(3))]
    if lo == NEG_INF:
        return [(hi - 3, hi - 1), (hi - 2, hi - Fraction(1, 2))]
    if hi == POS_INF:
        return [(lo + 1, lo + 3), (lo + Fraction(1, 2), lo + 2)]
    w = hi - lo
    return [(lo + w / 8, hi - w / 8),
            (lo + w / 8, lo + w / 2),
            (hi - w / 2, hi - w / 8)]


def _edge(whole: RSet, end, side: int, delta: Fraction):
    """(edge factor or None, bound, open flag) at one end of a part piece:
    side -1 is the lower end (a rising edge), +1 the upper (falling).

    The piece's bump is positive inside the bound, and its support in
    the whole set ends there, open when the flag says so. An end inside
    the whole set is pulled in by delta/2; any other finite end gets an
    edge halfway to the nearest end of the whole set beyond it (delta
    inward when that end touches it), or no factor when there is none.
    """
    if _is_inf(end):
        return None, end, True
    edge = rising_edge if side < 0 else falling_edge
    if whole.contains(end):
        bound = end - side * delta / 2
        return edge(*sorted((bound, end - side * delta))), bound, False
    # distance to the nearest piece end of the whole set beyond this end:
    # a piece's upper end faces a lower end, its lower end an upper one
    gap = min((g for g in ((p[(1 - side) // 2] - end) * side
                           for p in whole.pieces) if g >= 0), default=None)
    if gap is None:
        return None, end, True
    reach = end + side * gap / 2 if gap else end - side * delta
    return edge(*sorted((reach, end))), end, True


def _part_bumps(whole: RSet, part: RSet, delta: Fraction):
    """Bump sum for one part: (expr or None, support RSet)."""
    bumps, supp = [], []
    for lo, hi, _, _ in part.pieces:
        rise, plo, lo_open = _edge(whole, lo, -1, delta)
        fall, phi, hi_open = _edge(whole, hi, 1, delta)
        bumps.append(mul(rise or ONE, fall or ONE))
        supp.append((plo, phi, lo_open, hi_open))
    return (reduce(add, bumps) if bumps else None), RSet(supp)


def _summands(e):
    """The summands of e, a sum nested either way (or e itself)."""
    out, stack = [], [e]
    while stack:
        e = stack.pop()
        if type(e) is Add:
            stack += e.a, e.b
        else:
            out.append(e)
    return out


def _sums_to_one(quots, region) -> bool:
    """True when quots are b_i / S over one denominator node S, certified
    positive on a region holding this one, and the b_i's summands are S's
    as a multiset of interned nodes, in any order and nesting."""
    return bool(quots) and all(
        type(c) is Div and c.den is quots[0].den for c in quots) \
        and certified(quots[0].den, region) \
        and Counter(t for c in quots for t in _summands(c.num)) \
        == Counter(_summands(quots[0].den))


# a derivative of a quotient, as `SmoothLine.diff` made it -> (the
# quotient, the order); an entry goes when its derivative node dies
_DERIVATIVES = weakref.WeakKeyDictionary()


def _reassembled(terms, region):
    """(coefficient, bound) terms with every partition reassembly among
    the summands of a coefficient summed, and zero terms dropped: the
    summands t * q or q * t over the quotients q of one partition
    (`_sums_to_one` on the region) are t, and t * diff(q, j) for j >= 1
    (`_DERIVATIVES`, the nodes `diff` made) are 0, the derivative of one
    on the open region. Any other summand stays."""
    out = []
    for c, bd in terms:
        groups, rest = {}, []
        for s in _summands(c):
            for t, q in ((s.a, s.b), (s.b, s.a)) if type(s) is Mul else ():
                q, j = _DERIVATIVES.get(q, (q, 0))
                if type(q) is Div:
                    groups.setdefault((t, j), []).append((q, s))
                    break
            else:
                rest.append(s)
        closed = [(t, j) for (t, j), parts in groups.items()
                  if _sums_to_one([q for q, _ in parts], region)]
        if closed:
            rest += [s for key, parts in groups.items() if key not in closed
                     for _, s in parts]
            c = reduce(add, [t for t, j in closed if not j] + rest, ZERO)
        if c != ZERO:
            out.append((c, bd))
    return out


class SmoothLine:
    """The real line with global coordinate x."""

    ndim = 1

    def whole(self) -> "OpenSet":
        return OpenSet(self, [(NEG_INF, POS_INF)])

    # -- regions and points ------------------------------------------------
    #
    # A region is an RSet: open for an open set, usually closed for a
    # support. A base point is a rational abscissa.

    def empty_region(self):
        return RSet()

    def open_region(self, data):
        rs = data if isinstance(data, RSet) else RSet.open_pairs(data)
        if not rs.is_open:
            raise ValueError("not an open interval union: %r" % (rs,))
        return rs

    def is_compact(self, r) -> bool:
        return r.is_bounded

    def interior(self, r):
        return r.interior()

    def point(self, v):
        """A base point: an int, a 'p/q' string or a decimal float."""
        try:
            return rat_from_json(v)
        except (TypeError, ValueError):
            raise ValueError("cannot parse %r as a rational abscissa"
                             % (v,)) from None

    def point_region(self, a):
        return RSet.point(a)

    def origin(self):
        return Fraction(0)

    def region_to_json(self, r):
        return [[_ep_to_json(lo), _ep_to_json(hi)] for lo, hi, _, _ in r.pieces]

    def region_from_json(self, v):
        return RSet.closed_pairs(_pairs_from_json(v))

    def open_from_json(self, v):
        return _pairs_from_json(v)

    # -- sheaf ingredients --------------------------------------------------
    #
    # Plateau bumps built from exact rational endpoints: the probes are a
    # fixed catalogue, partitions are certified quotients of bumps.

    def probes(self, region, xdeg_cap):
        """(coefficient, support) of each probe: bump * x^e for e up to
        xdeg_cap, over fixed windows inside each piece of the region."""
        out = []
        for lo, hi, _, _ in region.pieces:
            for wlo, whi in _probe_windows(lo, hi):
                b, supp, _ = window_bump(wlo, whi)
                out.extend((mul(b, pow_(X, e)) if e else b, supp)
                           for e in range(xdeg_cap + 1))
        return out

    def partition(self, whole, parts):
        """(coefficient, support, plateau) per part: a sum of plateau
        bumps confined to the part's pieces over the shared denominator
        S = sum of all bumps, certified positive on the whole set first.
        CertificateError when the parts do not cover the whole set, no
        part has a bump, or the certificate fails.

        One margin delta, a quarter of the least gap between distinct
        finite endpoints, covers: a bump is positive on its piece but
        within delta/2 of an end lo in the whole set, a strip positive
        for the piece (lo', hi') of a part holding lo, as lo - lo' and
        hi' - lo are at least 4 delta.
        """
        if len(parts) == 1:
            return [(ONE, whole, whole)]
        if not whole <= reduce(or_, parts, RSet()):
            raise CertificateError("the parts do not cover the whole set")
        eps = sorted({v for r in parts + [whole] for lo, hi, _, _ in r.pieces
                      for v in (lo, hi) if not _is_inf(v)})
        diffs = [b - a for a, b in zip(eps, eps[1:]) if b > a]
        delta = min(diffs) / 4 if diffs else Fraction(1)
        built = [_part_bumps(whole, part, delta) for part in parts]
        bumps = [b for b, _ in built if b is not None]
        if not bumps:
            raise CertificateError("cover admits no bumps at all")
        s_expr = reduce(add, bumps)
        out = []
        for idx, (b, supp) in enumerate(built):
            if b is None:
                out.append((ZERO, RSet(), RSet()))
                continue
            others = reduce(or_, (o for jdx, (_, o) in enumerate(built)
                                  if jdx != idx), RSet())
            out.append((div(b, s_expr, region=whole), supp, supp - others))
        return out

    def cutoff(self, plateau, support):
        """bump(a, b, c, d) for a plateau [b, c] inside a support [a, d],
        both closed bounded intervals; any other shape is refused."""
        # a piece is (lo, hi, lo_open, hi_open), and an infinite end is open
        ends = [r.pieces[0][:2] for r in (plateau, support)
                if len(r.pieces) == 1 and not any(r.pieces[0][2:])]
        if len(ends) != 2:
            raise ValueError("a smooth cutoff needs closed bounded "
                             "intervals, not %r and %r" % (plateau, support))
        (b, c), (a, d) = ends
        return bump(a, b, c, d)[0]

    def cutoff_near(self, r, region):
        """(plateau, support) of a cutoff that is one on r: closed
        intervals around the hull of r, inside the piece of the region
        that holds the hull."""
        klo, khi = r.hull()
        for lo, hi, _, _ in region.pieces:
            if lo < klo and khi < hi:
                break
        else:
            raise SupportError("kernel support hull spans a gap of the "
                               "intersection")
        gl = Fraction(1) if lo == NEG_INF else klo - lo
        gr = Fraction(1) if hi == POS_INF else hi - khi
        return (RSet.closed_pairs([(klo - gl / 4, khi + gr / 4)]),
                RSet.closed_pairs([(klo - gl / 2, khi + gr / 2)]))

    def prove_unit(self, coeffs, region):
        """Prove that the coefficients sum to one on the region: by the
        partition identity when the nonzero ones are as `partition`
        builds them (`_sums_to_one`), in any order, else by
        `proves_equal` of the coefficients against one, each bounded by
        the region. UndecidedCertificateError when neither proves it."""
        coeffs = [c for c in coeffs if c != ZERO]
        if not _sums_to_one(coeffs, region) and not self.proves_equal(
                [(c, region) for c in coeffs], [(ONE, region)], region):
            raise UndecidedCertificateError(
                "partition sum not proved to be one on the region")

    def proves_equal(self, a, b, region) -> bool:
        """True when two lists of (coefficient, bound) terms are equal, or
        when each term (c, B) of one is split in the other into summands
        q_i * c whose terms' bounds lie in B and cover it (None: the whole
        line), and whose q_i sum to one on the region (`_sums_to_one`).
        So a coefficient's partition reassembly, one term, is proved
        against the coefficient. When every term is bounded, a pair these
        leave unknown is then read with each partition reassembly in a
        coefficient summed (`_reassembled`), and proved when the two read
        lists are equal or equal on the pieces of their bounds
        (`equal_on_pieces`). False: unknown."""
        if a == b:
            return True
        whole = RSet.whole()
        for s, o in ((a, b), (b, a)):
            groups = {c: (whole if bd is None else bd, []) for c, bd in s}
            for t, bd in [(t, bd) for g, bd in o for t in _summands(g)]:
                if type(t) is not Mul or type(t.a) is not Div \
                        or t.b not in groups:
                    break
                groups[t.b][1].append((t.a, whole if bd is None else bd))
            else:
                if len(groups) == len(s) and all(
                        parts and all(r <= bound for _, r in parts)
                        and bound <= reduce(or_, [r for _, r in parts])
                        and _sums_to_one([q for q, _ in parts], region)
                        for bound, parts in groups.values()):
                    return True
        if any(bd is None for _, bd in a + b):
            return False
        a, b = _reassembled(a, region), _reassembled(b, region)
        return a == b or equal_on_pieces(a, b)

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

    add = staticmethod(add)
    mul = staticmethod(mul)

    def scale(self, c, s):
        """s * c, the constant on the left."""
        return mul(Const(s), c)

    def diff(self, c, i: int):
        """The i-th derivative; a quotient's is kept in _DERIVATIVES, by
        its order over the quotient a derivative of one is taken of."""
        if not i:
            return c
        out = diff(c, i)
        if type(c) is Div and type(out) is Div:
            base, j = _DERIVATIVES.get(c, (c, 0))
            _DERIVATIVES[out] = (base, j + i)
        return out

    def ev(self, c, a):
        return ev(c, a)

    def restrict(self, c, u: "OpenSet"):
        return c

    def integrate_all(self, items, abs_tol=DEFAULT_ABS_TOL):
        """The integral of c over the pieces of the bounded region for
        each (c, region) of items, made as one batch: one program per
        group of equal cut ranges (`integrate_exprs`)."""
        return integrate_exprs([(c, r.bounds_list()) for c, r in items],
                               abs_tol)

    def gather(self, pairs):
        """Canonical (coefficient, bound) integral terms of a distribution:
        nonzero ones sorted, never merged."""
        kept = [(g, b) for g, b in pairs if g != ZERO]
        if len(kept) > 1:  # one term is its own order: print no sort key
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
        if not isinstance(r, RSet):
            raise BackendError("not a region of the line: %r" % (r,))
        return r

    def stray(self, c, region):
        # a stated smooth witness is taken on trust
        return []

    def monomial(self, i, scale, region):
        """scale * x^I (the region is the discrete one's)."""
        c = Const(QC(scale))
        return mul(c, pow_(X, i[0])) if i[0] else c

    def point_term(self, a, i, c, smooth, point):
        return point(a, i, c)

    def sup_abs(self, c, region, grid):
        """Max of |c| on `grid` even steps across a region's hull; NaN if
        a sample is NaN."""
        lo, hi = region.hull()
        f = _compile(c)
        best = 0.0
        for t in range(grid):
            v = abs(f(lo + (hi - lo) * t / (grid - 1)))
            # max(best, nan) is best, and max(nan, v) is nan
            best = max(best, v) if v == v else v
        return best

    def to_json(self, c):
        return to_sexpr(c)

    def from_json(self, v, domain: "OpenSet" = None):
        if not isinstance(v, str):
            raise ValueError("smooth coefficient must be an expression string")
        return parse_sexpr(v)

    def bounded_to_json(self, c, bound):
        return {"expr": to_sexpr(c), "support": self.region_to_json(bound)}

    def bounded_from_json(self, v):
        if not isinstance(v, dict) or "expr" not in v or "support" not in v:
            raise ValueError("smooth density needs 'expr' and 'support' fields")
        return (self.from_json(v["expr"]),
                self.region_from_json(v["support"]))

    def terms_to_json(self, terms):
        return terms

    def terms_from_json(self, v):
        if not isinstance(v, list):
            raise ValueError("smooth distribution must be a list of terms")
        return v

    def weights(self, c):
        return None

    def __eq__(self, other):
        return isinstance(other, SmoothLine)

    def __hash__(self):
        return hash("smoothline")

    def __repr__(self):
        return "SmoothLine()"


class OpenSet:
    """An open subset of a base space, held as one region of the space
    (a label frozenset on a discrete space, an open RSet on the line).

    The constructor validates its data through `space.open_region`. A
    union or an intersection of two open sets of one space is an open
    region of that space, so those results skip it (`_trusted`)."""

    __slots__ = ("space", "region")

    def __init__(self, space, data):
        self.space = space
        self.region = space.open_region(data)

    @classmethod
    def _trusted(cls, space, region) -> "OpenSet":
        """An open set of a known open region of the space, unvalidated."""
        u = object.__new__(cls)
        u.space = space
        u.region = region
        return u

    # -- set operations ---------------------------------------------------

    def union(self, other: "OpenSet") -> "OpenSet":
        self._check_space(other)
        return OpenSet._trusted(self.space, self.region | other.region)

    def intersect(self, other: "OpenSet") -> "OpenSet":
        self._check_space(other)
        return OpenSet._trusted(self.space, self.region & other.region)

    def is_subset(self, other: "OpenSet") -> bool:
        self._check_space(other)
        return self.region <= other.region

    def contains(self, x) -> bool:
        return x in self.region

    @property
    def is_empty(self) -> bool:
        return not self.region

    def _check_space(self, other):
        if not same(self.space, other.space):
            raise DomainMismatchError("open sets over different base spaces")

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, OpenSet)
                and same(self.space, other.space)
                and self.region == other.region)

    def __hash__(self):
        return hash((self.space, self.region))

    def __repr__(self):
        return "OpenSet(%s)" % (self.to_json(),)

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        return self.space.region_to_json(self.region)

    @classmethod
    def from_json(cls, space, v):
        if not isinstance(v, list):
            raise ValueError("open set must be a JSON array")
        return cls(space, space.open_from_json(v))


def _pairs_from_json(v):
    """(lo, hi) endpoint pairs of a JSON list of intervals."""
    pairs = []
    for pair in json_shape(v, list, "interval list"):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError("interval must be a [lo, hi] pair: %r" % (pair,))
        pairs.append((_ep_from_json(pair[0], "lo"),
                      _ep_from_json(pair[1], "hi")))
    return pairs
