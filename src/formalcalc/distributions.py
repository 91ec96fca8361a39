"""Distributions, generalized functions, and point-supported functionals.

Value spaces are coordinate spaces C^m; every E-valued object is a
tuple of m scalar coefficient objects and every E-valued operation is
the componentwise scalar operation.

Three dual families over a common coefficient type BaseDistribution:

* FormalDistribution: continuous functionals on compactly supported
  formal functions, graded by y*-multi-indices with L! pairing weights.
  They restrict (transpose of extension by zero); the compactly
  supported ones form CompactFormalDistribution, which extends by zero
  (ext), localizes along a cutoff (cutoff_restrict) and, through a
  cutoff, extends to functionals on all global sections
  (cutoff_extend).

* GeneralizedFunction: continuous functionals on compactly supported
  formal densities, graded by y-multi-indices up to a truncation order.
  Formal functions embed here, and the embedding reproduces the
  density pairing.

* PointDistribution: finite combinations of jet evaluations at a single
  point, held as the compact distribution of their point terms; read at
  its one point, it pairs with any function on its domain. The
  normalized monomial family is dual to the jet basis.

A BaseDistribution is a finite sum of SmoothTerm(g) (integrate the
base coefficient g against the partner) and, on the smooth line,
PointTerm(a, i, c) (c times the i-th derivative of the partner's
coefficient function at a). A discrete weight map is a single
SmoothTerm whose coefficient is the map. When a derivative stack
d_x^I from a density coefficient meets a term, the stack is transposed
onto the smooth side: SmoothTerm differentiates g, PointTerm folds the
stack into its own order with the sign (-1)^|I|. Point-term
coefficients are QC or complex, combined by QC's operators (scalars.py).

Each term class owns its algebra, so a BaseDistribution operation is
one pass over its terms; only construction and the canonical form sort
them by kind. A compact distribution builds every result through one
trusted path given the result's support witness, to which restrict and
cutoff_restrict clip smooth bounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import or_

from .basedensity import BaseDensity
from .densities import FormalDensity, leibniz
from .errors import (BackendError, DomainMismatchError, SupportError,
                     TruncationError, json_shape)
from .functions import (FormalFunction, SupportedFormalFunction, _GradedSection,
                        _fin, cutoff_product, read_pairings)
from .multiindex import (degree, enumerate_upto, key_str, mi, mi_add, mi_factorial,
                         parse_key)
from .scalars import QC, QC_ZERO, qc, qc_from_json, qc_to_json
from .spaces import OpenSet, same


def _scalar_json(c):
    """JSON of a QC or complex scalar."""
    return qc_to_json(c) if isinstance(c, QC) else [c.real, c.imag]


class SmoothTerm:
    """Acts on a partner coefficient g' by integrating g * g'.

    g is a base coefficient of the space: an expression on the line, a
    weight map on a discrete space (where the integral is a sum).
    `bound` is an optional support witness for g (an RSet). Integration
    ranges are clipped to it, so that a narrow g inside a wide partner
    support cannot slip between quadrature nodes.

    The methods below, and PointTerm's of the same names, are the term
    algebra of BaseDistribution; `sp` is the space that owns g. Acting
    on a partner gives a part of a pairing (`read_pairings`): here an
    integral request (coefficient, region), on a PointTerm a value.
    """

    __slots__ = ("g", "bound")

    def __init__(self, g, bound=None):
        self.g = g
        self.bound = bound

    def __repr__(self):
        if self.bound is None:
            return "SmoothTerm(%r)" % (self.g,)
        return "SmoothTerm(%r, bound=%s)" % (self.g, self.bound)

    def stray(self, sp, u: OpenSet):
        return sp.stray(self.g, u.region)

    def scale(self, sp, c):
        return SmoothTerm(sp.scale(self.g, c), self.bound)

    def act_on_function(self, sp, c, region):
        r = region if self.bound is None else region & self.bound
        return sp.mul(self.g, c), r

    def act_on_density(self, sp, tau: BaseDensity, stack: int, domain: OpenSet):
        """<tau d^stack, g> = integral of tau * d^stack g."""
        r = tau.bound if self.bound is None else tau.bound & self.bound
        r = r & domain.region
        return (sp.mul(tau.coeff, sp.diff(self.g, stack)), r) if r else QC_ZERO

    def mul_coeff(self, sp, f0):
        return (SmoothTerm(sp.mul(f0, self.g), self.bound),)

    def clip(self, region):
        return SmoothTerm(self.g, region if self.bound is None
                          else self.bound & region)

    def restrict(self, sp, u: OpenSet):
        return (SmoothTerm(sp.restrict(self.g, u), self.bound),)

    def support(self, sp):
        return sp.support((self.g,), self.bound)

    def check_inside(self, sp, support, where):
        """Refuse weights or a bound outside a support witness."""
        stray = sp.stray(self.g, support)
        if stray:
            raise SupportError("weights outside the support witness "
                               "at %r: %s" % (where, stray))
        if self.bound is not None and not self.bound <= support:
            raise SupportError("smooth term bound escapes the "
                               "support witness")

    def key(self):
        return ("smooth", self.g,
                () if self.bound is None else self.bound.pieces)

    def to_json(self, sp):
        tj = {"kind": "smooth", "expr": sp.to_json(self.g)}
        if self.bound is not None:
            tj["support"] = sp.region_to_json(self.bound)
        return tj


class PointTerm:
    """Acts on a partner function g' by c * (d^i g')(a)."""

    __slots__ = ("a", "i", "c")

    def __init__(self, a, i: int, c=1):
        self.a = Fraction(a)
        self.i = int(i)
        if self.i < 0:
            raise ValueError("derivative order must be nonnegative")
        self.c = c if isinstance(c, complex) else qc(c)

    def __repr__(self):
        return "PointTerm(a=%s, i=%d, c=%s)" % (self.a, self.i, self.c)

    def stray(self, sp, u: OpenSet):
        return [] if u.contains(self.a) else [self.a]

    def scale(self, sp, c):
        return PointTerm(self.a, self.i, _fin(self.c * c))

    def act_on_function(self, sp, c, region):
        return self.c * _fin(sp.ev(sp.diff(c, self.i), self.a))

    def act_on_density(self, sp, tau: BaseDensity, stack: int, domain: OpenSet):
        """The stack moves onto the point: (-1)^stack times
        c (d^(i+stack) tau)(a), zero where tau's witness ends."""
        if self.a not in tau.bound:
            return QC_ZERO
        v = sp.ev(sp.diff(tau.coeff, self.i + stack), self.a)
        return (-1 if stack % 2 else 1) * (self.c * _fin(v))

    def mul_coeff(self, sp, f0):
        """The product rule: f0 . (c d^i at a) is the sum over j of
        C(i, j) c (d^(i-j) f0)(a) times d^j at a."""
        a, i = self.a, self.i
        return [PointTerm(a, j, self.c * (math.comb(i, j) * _fin(
            sp.ev(sp.diff(f0, i - j), a)))) for j in range(i + 1)]

    def clip(self, region):
        return self

    def restrict(self, sp, u: OpenSet):
        return (self,) if u.contains(self.a) else ()

    def support(self, sp):
        return sp.point_region(self.a)

    def check_inside(self, sp, support, where):
        if self.a not in support:
            raise SupportError("point term at %s outside the support "
                               "witness" % self.a)

    def key(self):
        return ("point", self.a, self.i, self.c)

    def to_json(self, sp):
        return {"kind": "point", "a": str(self.a), "i": self.i,
                "c": _scalar_json(self.c)}


class BaseDistribution:
    """Scalar distribution on the base space: a canonical tuple of terms.

    A discrete weight map is one SmoothTerm whose coefficient is the map.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space, weights=None, terms=None):
        self.space = space
        terms = list(terms or ())
        if weights is not None:
            terms.append(SmoothTerm(weights))
        self.terms = _canon_dist_terms(space, [
            SmoothTerm(space.clean(t.g), t.bound)
            if isinstance(t, SmoothTerm) else t for t in terms])

    @classmethod
    def _trusted(cls, space, terms):
        """The canonical form of terms the space's algebra produced,
        their coefficients taken as they are, without validation."""
        w = object.__new__(cls)
        w.space = space
        w.terms = _canon_dist_terms(space, terms)
        return w

    @classmethod
    def zero(cls, space):
        return cls._trusted(space, ())

    @classmethod
    def smooth(cls, space, g, bound=None):
        return cls(space, terms=(SmoothTerm(g, bound),))

    @classmethod
    def point(cls, space, a, i: int = 0, c=1):
        """c times the i-th derivative at a (the weight c on a label)."""
        return cls(space, terms=(space.point_term(a, i, c, SmoothTerm,
                                                  PointTerm),))

    @property
    def weights(self):
        """The weight map on a discrete space, None on the line."""
        gs = [t.g for t in self.terms if isinstance(t, SmoothTerm)]
        return self.space.weights(gs[0] if gs else self.space.zero())

    def is_exactly_zero(self) -> bool:
        return not self.terms

    def stray(self, u: OpenSet):
        """Stray weights and point-term points outside an open set."""
        return [p for t in self.terms for p in t.stray(self.space, u)]

    # -- linear structure ---------------------------------------------------

    def add(self, other: "BaseDistribution") -> "BaseDistribution":
        if not same(self.space, other.space):
            raise DomainMismatchError("distributions over different base spaces")
        return BaseDistribution._trusted(self.space, self.terms + other.terms)

    def scale(self, c) -> "BaseDistribution":
        return BaseDistribution._trusted(
            self.space, [t.scale(self.space, c) for t in self.terms])

    # -- actions ------------------------------------------------------------

    def act_on_function(self, c, region):
        """Pair with a base function coefficient vanishing outside a
        bounded region (the partner's support)."""
        return self._read([t.act_on_function(self.space, c, region)
                           for t in self.terms])

    def act_on_density(self, tau: BaseDensity, stack: int, domain: OpenSet):
        """Pair with a base density carrying a derivative stack d^stack."""
        return self._read([t.act_on_density(self.space, tau, stack, domain)
                           for t in self.terms])

    def _read(self, parts):
        """The sum of the terms' parts (`read_pairings`)."""
        return next(read_pairings(self.space, [[[(1, parts)]]]))[0]

    def mul_coeff(self, f0) -> "BaseDistribution":
        """Product with a base function: <f.w, g> = <w, f g>."""
        return BaseDistribution._trusted(self.space, [
            s for t in self.terms for s in t.mul_coeff(self.space, f0)])

    def clip(self, region) -> "BaseDistribution":
        """Intersect smooth-term support bounds with a region witness.

        Sound when every smooth term is known to vanish outside the
        region, e.g. after multiplication by a cutoff supported there.
        """
        return BaseDistribution._trusted(self.space,
                                         [t.clip(region) for t in self.terms])

    def restrict(self, u: OpenSet) -> "BaseDistribution":
        return BaseDistribution._trusted(self.space, [
            s for t in self.terms for s in t.restrict(self.space, u)])

    # -- plumbing ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, BaseDistribution) or not same(self.space, other.space):
            return False
        return [t.key() for t in self.terms] == [t.key() for t in other.terms]

    def __repr__(self):
        return "BaseDistribution(%s)" % (list(self.terms),)

    def to_json(self):
        return self.space.terms_to_json([t.to_json(self.space)
                                         for t in self.terms])

    @classmethod
    def from_json(cls, space, v):
        terms = []
        for t in space.terms_from_json(v):
            kind = json_shape(t, dict, "distribution term").get("kind")
            if kind == "smooth":
                bound = None
                if "support" in t:
                    bound = space.region_from_json(t["support"])
                terms.append(SmoothTerm(space.from_json(t["expr"]), bound))
            elif kind == "point":
                terms.append(PointTerm(space.point(t["a"]), json_shape(
                    t["i"], int, "'i'"), qc_from_json(t.get("c", 1))))
            else:
                raise ValueError("unknown distribution term kind %r" % (kind,))
        return cls(space, terms=terms)


def _canon_dist_terms(space, terms):
    integrals = []
    points = {}
    for t in terms:
        if isinstance(t, SmoothTerm):
            integrals.append((t.g, t.bound))
        elif isinstance(t, PointTerm):
            key = (t.a, t.i)
            prev = points.get(key)
            points[key] = t.c if prev is None else prev + t.c
        else:
            raise TypeError("unknown distribution term %r" % (t,))
    out = [SmoothTerm(g, bound) for g, bound in space.gather(integrals)]
    for (a, i) in sorted(points):
        c = points[(a, i)]
        if c:
            out.append(PointTerm(a, i, c))
    return tuple(out)


def _nonzero_vectors(coeffs):
    """coeffs without its vectors whose entries are all zero."""
    return {j: vec for j, vec in coeffs.items()
            if not all(w.is_exactly_zero() for w in vec)}


def vec_add(a, b):
    """Componentwise sum of two E-vectors of base distributions; a = None
    reads as zero, so out[j] = vec_add(out.get(j), v) accumulates."""
    return b if a is None else tuple(x.add(y)
                                     for x, y in zip(a, b, strict=True))


class _DualSection(_GradedSection):
    """E-valued functionals graded like a section: one E-vector (a tuple
    of e_dim BaseDistribution entries) per index, keys above cap refused.

    Subclasses supply `_with`, a section of their own plain kind with
    new data over the same space and k, built by the trusted
    constructor from coefficient vectors the algebra produced (vectors
    that came out all zero are dropped there).
    """

    def __init__(self, space, domain: OpenSet, k: int, e_dim: int, coeffs=None,
                 cap=None):
        super().__init__(space, domain, k)
        if e_dim < 1:
            raise ValueError("value space dimension must be at least 1")
        self.e_dim = e_dim
        clean = {}
        for j, vec in (coeffs or {}).items():
            j = self._index(j, cap)
            vec = tuple(map(self._own_inside, vec))
            if len(vec) != e_dim:
                raise ValueError("coefficient vector at %r has %d entries, "
                                 "expected %d" % (j, len(vec), e_dim))
            if not all(w.is_exactly_zero() for w in vec):
                clean[j] = vec
        self.coeffs = clean

    def coeff(self, j):
        vec = self.coeffs.get(mi(j))
        if vec is None:
            vec = tuple(BaseDistribution.zero(self.space) for _ in range(self.e_dim))
        return vec

    def _check_like(self, other):
        super()._check_like(other)
        if other.e_dim != self.e_dim:
            raise DomainMismatchError("%s partner has a different E_dim"
                                      % type(self).__name__)

    def _sum(self, other, cap=None):
        """Coefficient vectors of self + other, keys above cap dropped."""
        return {j: vec_add(self.coeff(j), other.coeff(j))
                for j in set(self.coeffs) | set(other.coeffs)
                if cap is None or degree(j) <= cap}

    def _clone(self, coeffs, domain=None, e_dim=None):
        """A section of this very kind with new data; a support witness,
        where there is one, is carried over."""
        return self._with(coeffs, domain, e_dim)

    def _pairing(self, keys, parts):
        """The E-entries of sum_L L! v over the keys (`read_pairings`):
        (L!, p) for each list p of parts that parts(L, w) yields for the
        entry w at L, one per value v it takes on the partner's terms."""
        return [[(mi_factorial(l), p) for l in keys
                 for p in parts(l, self.coeffs[l][j])]
                for j in range(self.e_dim)]

    def scale(self, c):
        return self._clone({j: tuple(w.scale(c) for w in vec)
                            for j, vec in self.coeffs.items()})

    def weight_vectors(self):
        """(key, E-vector of weight maps) per key on a discrete space."""
        return ((j, tuple(w.weights for w in vec))
                for j, vec in self.coeffs.items())

    def component(self, j: int):
        return self._clone({key: (vec[j],) for key, vec in self.coeffs.items()},
                           e_dim=1)

    def restrict(self, v: OpenSet):
        """Transpose of extension by zero: keep what acts inside v."""
        self._check_inside(v)
        return self._with({j: tuple(w.restrict(v) for w in vec)
                           for j, vec in self.coeffs.items()}, domain=v)

    def __repr__(self):
        return "%s(E_dim=%d, keys=%s)" % (type(self).__name__, self.e_dim,
                                          self.keys_sorted())

    def to_json(self):
        return {
            "E_dim": self.e_dim,
            "coeffs": {key_str(j): [w.to_json() for w in self.coeffs[j]]
                       for j in self.keys_sorted()},
        }

    @staticmethod
    def _vectors_from_json(space, k, v):
        """(E_dim, coefficient vectors) of a JSON object."""
        coeffs = {}
        for key, vecs in json_shape(v.get("coeffs", {}), dict,
                                    "'coeffs'").items():
            coeffs[parse_key(key, length=k)] = tuple(
                BaseDistribution.from_json(space, w)
                for w in json_shape(vecs, list, "coefficient vector"))
        return json_shape(v.get("E_dim", 1), int, "'E_dim'"), coeffs


class FormalDistribution(_DualSection):
    """Functional on compactly supported formal functions.

    <eta, u> = sum_L L! <w_L, u_L> componentwise in E = C^m, with
    coefficient vectors w_L of BaseDistribution entries.
    """

    def __init__(self, space, domain: OpenSet, k: int, e_dim: int, coeffs=None):
        super().__init__(space, domain, k, e_dim, coeffs)

    star_degree = _GradedSection._top_degree

    def _with(self, coeffs, domain=None, e_dim=None):
        return FormalDistribution._trusted(
            self.space, domain or self.domain, self.k,
            _nonzero_vectors(coeffs), e_dim=e_dim or self.e_dim)

    def add(self, other):
        self._check_like(other)
        return self._with(self._sum(other))

    # -- action ------------------------------------------------------------------

    def pairing(self, u: SupportedFormalFunction):
        """The pairing with a compactly supported function as terms
        (`read_pairings`), read over the partner's support."""
        self._check_partner(u, self.star_degree())
        if not isinstance(u, SupportedFormalFunction):
            raise SupportError("distributions pair with supported functions")
        if not self.space.is_compact(u.support):
            raise SupportError("the partner needs a compact support witness")
        return self._read(u, u.support & self.domain.region)

    def _read(self, u: FormalFunction, region):
        """Per component, (L!, <w_L, u_L>'s parts), u's coefficients
        read over a bounded region outside which the pairing vanishes."""
        sp = self.space
        return self._pairing(self._shared_keys(u), lambda l, w: (
            [t.act_on_function(sp, u.coeffs[l], region) for t in w.terms],))

    def apply(self, u: SupportedFormalFunction):
        """E-vector of pairings against a compactly supported function."""
        return next(read_pairings(self.space, [self.pairing(u)]))

    # -- module action ----------------------------------------------------------

    def module_action(self, f: FormalFunction) -> "FormalDistribution":
        """eta . f, defined by <eta . f, u> = <eta, f u>.

        Coefficientwise (eta . f)_{J'} = sum_{L >= J'} (L!/J'!)
        f_{L-J'} . w_L, with function-times-distribution products.
        """
        self._check_partner(f, self.star_degree())
        out = {}
        for l, vec in self.coeffs.items():
            for _, jp, c, g in leibniz(f, l, ()):
                out[jp] = vec_add(out.get(jp),
                                  tuple(w.mul_coeff(g).scale(c) for w in vec))
        return self._clone(out)

    # -- plumbing ------------------------------------------------------------------------

    def _eq_key(self):
        return ("distribution", self.e_dim, self.coeffs)

    @classmethod
    def from_json(cls, space, domain, k, v):
        if not isinstance(v, dict):
            raise ValueError("distribution needs an object with E_dim and coeffs")
        return cls(space, domain, k, *cls._vectors_from_json(space, k, v))


class CompactFormalDistribution(FormalDistribution):
    """Formal distribution with a compact support witness.

    Discrete weights, point terms, and bounded smooth integral terms
    are checked against the witness; a smooth integral term without its
    own bound carries the witness on trust, like every other smooth
    support bound in the package.
    """

    def __init__(self, space, domain, k, e_dim, coeffs=None, support=None):
        super().__init__(space, domain, k, e_dim, coeffs)
        if support is None:
            support = reduce(or_, (t.support(space) for vec in self.coeffs.values()
                                   for w in vec for t in w.terms),
                             space.empty_region())
        support = space.region(support)
        if not space.is_compact(support):
            raise SupportError("support witness is not compact")
        if not support <= domain.region:
            raise SupportError("support witness escapes the domain")
        for l, vec in self.coeffs.items():
            for w in vec:
                for t in w.terms:
                    t.check_inside(space, support, l)
        self.support = support

    def _clone(self, coeffs, domain=None, e_dim=None, support=None):
        # the witness stays honest: scale, component, module_action and
        # ext only shrink or keep the coefficients' supports, and add,
        # restrict and cutoff_restrict pass the witness of their result
        return CompactFormalDistribution._trusted(
            self.space, domain or self.domain, self.k,
            _nonzero_vectors(coeffs), e_dim=e_dim or self.e_dim,
            support=self.support if support is None else support)

    def add(self, other):
        plain = FormalDistribution.add(self, other)
        if isinstance(other, CompactFormalDistribution):
            return self._clone(plain.coeffs,
                               support=self.support | other.support)
        return plain

    def ext(self, m: OpenSet) -> "CompactFormalDistribution":
        """Extension by zero to a larger open set."""
        self._check_extends(m)
        return self._clone(self.coeffs, m)

    def restrict(self, v: OpenSet) -> "CompactFormalDistribution":
        """The restriction, its witness and smooth bounds clipped to v."""
        return self._clipped(FormalDistribution.restrict(self, v),
                             self.support & v.region)

    def cutoff_restrict(self, f: SupportedFormalFunction,
                        v: OpenSet) -> "CompactFormalDistribution":
        """(eta . f)|_v for a cutoff f supported inside v, its smooth
        bounds and its support witness clipped to the cutoff's support."""
        plain = FormalDistribution.restrict(self.module_action(f), v)
        supp = f.support & self.support
        if not supp <= v.region:
            raise SupportError("support witness escapes the domain")
        return self._clipped(plain, supp)

    def _clipped(self, plain, support):
        """A restriction of this distribution with the witness support,
        which every term vanishes outside, its smooth bounds clipped."""
        return self._clone({l: tuple(w.clip(support) for w in vec)
                            for l, vec in plain.coeffs.items()},
                           plain.domain, support=support)

    def to_json(self):
        out = super().to_json()
        out["support"] = self.space.region_to_json(self.support)
        return out

    @classmethod
    def from_json(cls, space, domain, k, v):
        plain = FormalDistribution.from_json(space, domain, k, v)
        support = None
        if "support" in v:
            support = space.region_from_json(v["support"])
        return cls(space, domain, k, plain.e_dim, plain.coeffs, support=support)


def cutoff_extend(eta: CompactFormalDistribution, f: SupportedFormalFunction):
    """Extend a compactly supported distribution eta on U to all global
    sections: u -> <eta, (f u)|_U>, the same for any admissible cutoff.

    Preconditions: the cutoff is compactly supported inside the
    distribution's open set, and its recorded plateau (where it equals
    one) covers a neighborhood of the distribution's support.
    """
    if not same(f.space, eta.space) or f.k != eta.k:
        raise DomainMismatchError("cutoff does not match the distribution")
    if not eta.domain.is_subset(f.domain):
        raise DomainMismatchError("cutoff domain does not contain the "
                                  "distribution's open set")
    if not f.space.is_compact(f.support):
        raise SupportError("cutoff needs a compact support witness")
    if not f.support & f.domain.region <= eta.domain.region:
        raise SupportError("cutoff support escapes the distribution's open set")
    if f.plateau is None:
        raise SupportError("cutoff carries no plateau witness")
    if not eta.support <= eta.space.interior(f.plateau):
        raise SupportError("cutoff plateau does not cover a neighborhood of "
                           "the distribution's support")
    return lambda u: eta.apply(cutoff_product(f, u).restrict(eta.domain))


class GeneralizedFunction(_DualSection):
    """Functional on compactly supported formal densities.

    <u, eta> = sum_L L! <u_L, eta_L> componentwise in E, where u_L is a
    BaseDistribution vector and eta_L a sum of stacked base densities.
    """

    def __init__(self, space, domain: OpenSet, k: int, trunc: int, e_dim: int,
                 coeffs=None):
        if trunc < 0:
            raise ValueError("trunc must be nonnegative")
        self.trunc = trunc
        super().__init__(space, domain, k, e_dim, coeffs, cap=trunc)

    @classmethod
    def zero(cls, space, domain, k, trunc, e_dim=1):
        return cls(space, domain, k, trunc, e_dim)

    @classmethod
    def embed(cls, u: FormalFunction) -> "GeneralizedFunction":
        """A formal function as a generalized function (E_dim 1)."""
        coeffs = {}
        for j, c in u.coeffs.items():
            coeffs[j] = (BaseDistribution.smooth(u.space, c),)
        return cls(u.space, u.domain, u.k, u.trunc, 1, coeffs)

    def _with(self, coeffs, domain=None, e_dim=None, trunc=None):
        return GeneralizedFunction._trusted(
            self.space, domain or self.domain, self.k, _nonzero_vectors(coeffs),
            e_dim=e_dim or self.e_dim,
            trunc=self.trunc if trunc is None else trunc)

    def add(self, other):
        self._check_like(other)
        trunc = min(self.trunc, other.trunc)
        return self._with(self._sum(other, trunc), trunc=trunc)

    def pairing(self, eta: FormalDensity):
        """<u, eta> as terms (`read_pairings`): per component, (L!,
        parts) per term tau . d^I of eta at L, the stack moved onto u."""
        eta._check_partner(self, eta.star_degree())
        sp, dom = self.space, self.domain
        return self._pairing(eta._shared_keys(self), lambda l, w: (
            [t.act_on_density(sp, tau, degree(i), dom) for t in w.terms]
            for i, tau in eta.coeffs[l]))

    def apply(self, eta: FormalDensity):
        """E-vector <u, eta>; derivative stacks transpose onto u."""
        return next(read_pairings(self.space, [self.pairing(eta)]))

    def module_action(self, f: FormalFunction) -> "GeneralizedFunction":
        """f . u with coefficientwise Cauchy products: <f u, eta> = <u, eta . f>."""
        self._check_partner(f)
        trunc = min(self.trunc, f.trunc)
        out = {}
        for j1, fc in f.coeffs.items():
            for j2, vec in self.coeffs.items():
                j = mi_add(j1, j2)
                if degree(j) <= trunc:
                    out[j] = vec_add(out.get(j),
                                     tuple(w.mul_coeff(fc) for w in vec))
        return self._with(out, trunc=trunc)

    def _eq_key(self):
        return ("generalized", self.trunc, self.e_dim, self.coeffs)

    def __repr__(self):
        return "GeneralizedFunction(trunc=%d, E_dim=%d, keys=%s)" % (
            self.trunc, self.e_dim, self.keys_sorted())

    def to_json(self):
        return {"trunc": self.trunc, **super().to_json()}

    @classmethod
    def from_json(cls, space, domain, k, v):
        if not isinstance(v, dict) or "trunc" not in v:
            raise ValueError("generalized function needs a 'trunc' field")
        e_dim, coeffs = cls._vectors_from_json(space, k, v)
        return cls(space, domain, k, json_shape(v["trunc"], int, "'trunc'"),
                   e_dim, coeffs)


class PointDistribution(CompactFormalDistribution):
    """Finite combination of jet evaluations at a single point.

    `terms` maps (I, J) pairs to E-vectors of scalars. The distribution
    is the compact one whose entry at J is the sum of the point terms
    c . d^|I| at a, so applying it to u gives sum c_{I,J} * jet(u, a,
    I, J) componentwise; it reads u at its one point only, so it pairs
    with any function on its domain.
    """

    def __init__(self, space, domain: OpenSet, k: int, a, e_dim: int = 1,
                 coeffs=None):
        _GradedSection.__init__(self, space, domain, k)
        a = space.point(a)
        if not domain.contains(a):
            raise DomainMismatchError("base point %r outside the domain" % (a,))
        self.a = a
        self.terms = {}
        compact = {}
        for (i, j), vec in (coeffs or {}).items():
            i, j = self._x_index(i), mi(j)
            vec = tuple(c if isinstance(c, complex) else qc(c) for c in vec)
            if any(vec):
                self.terms[(i, j)] = vec
            compact[j] = vec_add(compact.get(j), tuple(
                BaseDistribution.point(space, a, degree(i), c) for c in vec))
        super().__init__(space, domain, k, e_dim, compact,
                         support=space.point_region(a))

    def pairing(self, u: FormalFunction):
        """The pairing as terms (`read_pairings`), read over the point."""
        self._check_partner(u, self.star_degree())
        return self._read(u, self.support)

    # in this class's own namespace, where perfbench's tracer wraps it
    apply = FormalDistribution.apply

    def to_compact(self) -> CompactFormalDistribution:
        """The plain compactly supported distribution of the same
        coefficients."""
        return self._clone(self.coeffs)

    def to_json(self):
        return {
            "a": str(self.a),
            "E_dim": self.e_dim,
            "terms": [{"I": list(i), "J": list(j),
                       "c": [_scalar_json(c) for c in self.terms[(i, j)]]}
                      for i, j in sorted(self.terms, key=lambda ij: (
                          degree(ij[0]) + degree(ij[1]), ij))],
        }

    @classmethod
    def from_json(cls, space, domain, k, v):
        a = space.point(v["a"])
        e_dim = json_shape(v.get("E_dim", 1), int, "'E_dim'")
        coeffs = {}
        for t in json_shape(v.get("terms", []), list, "'terms'"):
            i = mi(json_shape(t, dict, "point term").get("I", [0] * space.ndim))
            j = mi(t.get("J", [0] * k))
            coeffs[(i, j)] = tuple(qc_from_json(c) for c in t["c"])
        return cls(space, domain, k, a, e_dim, coeffs)


def point_basis(space, domain: OpenSet, k: int, a, r: int, e_dim: int = 1):
    """Jet-evaluation basis at a point: all (I, J) with |I|+|J| <= r.

    Ordered graded-lexicographically on the concatenated index. Each
    element is scalar-valued in every E-component (value 1 in each).
    """
    out = []
    for m in enumerate_upto(space.ndim + k, r):
        i, j = m[:space.ndim], m[space.ndim:]
        vec = tuple(QC(1) for _ in range(e_dim))
        out.append(PointDistribution(space, domain, k, a, e_dim,
                                     {(i, j): vec}))
    return out


def normalized_monomial(space, domain: OpenSet, k: int, trunc: int, i, j):
    """x^I y^J / (I! J!), the dual family of the jet basis at 0.

    On the discrete backend (no coordinates) this is y^J / J! with the
    constant-one base coefficient.
    """
    i, j = mi(i), mi(j)
    if len(i) != space.ndim:
        raise BackendError("x-index %r does not fit the base" % (i,))
    scale = Fraction(1, mi_factorial(i) * mi_factorial(j))
    return FormalFunction(space, domain, k, trunc,
                          {j: space.monomial(i, scale, domain.region)})


def jet_kernel_check(u: FormalFunction, a, r: int, tol: float = 0.0) -> bool:
    """Do all jets of total order below r vanish at the point?

    Exact comparison for exact values; |value| <= tol for quadrature or
    kernel-bearing values (the default tolerance is strict zero).
    """
    if u.trunc < r:
        raise TruncationError("jet kernel check at order %d needs trunc >= %d"
                              % (r, r))
    for m in enumerate_upto(u.space.ndim + u.k, r - 1):
        i, j = m[:u.space.ndim], m[u.space.ndim:]
        v = u.jet(a, i, j)
        if isinstance(v, QC):
            if v:
                return False
        elif abs(complex(v)) > tol:
            return False
    return True


def dist_space_dimension(n: int, k: int, r: int) -> int:
    """Number of jet-evaluation basis elements of order <= r."""
    return len(enumerate_upto(n + k, r))
