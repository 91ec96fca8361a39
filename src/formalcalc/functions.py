"""Truncated formal functions over a base space.

A formal function on an open set U is a polynomial-in-y package of base
coefficients: u = sum_J u_J y^J over y-multi-indices J of length k with
degree(J) <= trunc(u). The truncation order is a guarantee, not a
storage detail: coefficients up to and including degree trunc are
exactly right and nothing is known beyond, so binary operations return
the minimum of the operand truncations. Missing keys are zero.

Coefficients are base coefficients of the space (dicts label -> QC on
the discrete backend, smooth expressions on the line), handled only
through the space's coefficient algebra. SupportedFormalFunction adds a
support witness region outside of which every coefficient vanishes,
plus an optional plateau region on which the function is exactly the
constant one (used by cutoff arguments). The sections of densities.py
and distributions.py state their pairings as terms, read by
`read_pairings`.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (BackendError, DomainMismatchError, SupportError,
                     TruncationError, json_shape)
from .multiindex import (degree, grlex_key, key_str, mi, mi_add, mi_factorial,
                         parse_key)
from .quadrature import DEFAULT_ABS_TOL
from .scalars import QC, QC_ZERO
from .spaces import OpenSet


def _fin(v):
    """Exact values stay exact; mpmath values flatten to complex."""
    return v if isinstance(v, QC) else complex(v)


def read_pairings(space, pairings, abs_tol=DEFAULT_ABS_TOL):
    """An iterator over the E-vector of each pairing: a list of
    E-entries, each a list of (L!, parts), a part an exact value or an
    integral request (coefficient, region). All requests are made in one
    batch by the call (the space's `integrate_all`: on the line, one
    program per range). Each entry is summed, in order, as the iterator
    reaches its pairing: L! times the sum of its parts, so a failed
    integral raises there."""
    requests = [p for pairing in pairings for entry in pairing
                for _, parts in entry for p in parts if isinstance(p, tuple)]
    vals = iter(space.integrate_all(requests, abs_tol))

    def total(entry):
        acc = QC_ZERO
        for lf, parts in entry:
            got = (next(vals) if isinstance(p, tuple) else p for p in parts)
            # from the first part on: a QC_ZERO start would turn into a
            # complex at every entry that reads an integral
            acc = acc + lf * sum(got, next(got, QC_ZERO))
        return _fin(acc)
    return ([total(entry) for entry in pairing] for pairing in pairings)


def _nonzero(space, coeffs):
    """coeffs without its zero coefficients."""
    return {j: c for j, c in coeffs.items() if not space.is_zero(c)}


class _GradedSection:
    """Shared plumbing of the graded section classes.

    A section over an open set of a base space is a family of
    coefficients `coeffs` keyed by y- or y*-multi-indices of length k;
    missing keys are zero. Subclasses build `coeffs` through `_index`
    and name in `_eq_key` what equality compares besides the base
    space, the open set and k (its first entry names the kind, so
    sections of different kinds never compare equal).
    """

    def __init__(self, space, domain: OpenSet, k: int):
        if domain.space != space:
            raise DomainMismatchError("domain belongs to a different base space")
        if k < 0:
            raise ValueError("k must be nonnegative")
        self.space = space
        self.domain = domain
        self.k = k

    @classmethod
    def _trusted(cls, space, domain: OpenSet, k: int, coeffs, **fields):
        """A section of this class built without any check.

        The public constructors validate what comes from outside; the
        results of the space's own algebra come here instead. The
        caller guarantees what validation would establish: the domain
        lies in the space, the keys of `coeffs` are index tuples of
        length k within the class's cap, every coefficient is a
        canonical value of the space's algebra over the domain, and no
        zero coefficient is stored. `fields` are the attributes the
        subclass adds (trunc, e_dim, support, plateau).
        """
        s = object.__new__(cls)
        s.space = space
        s.domain = domain
        s.k = k
        s.coeffs = coeffs
        s.__dict__.update(fields)
        return s

    def _index(self, j, cap=None):
        """j as a multi-index of length k, of degree at most cap if given."""
        j = mi(j)
        if len(j) != self.k:
            raise ValueError("index %r has length %d, expected k=%d"
                             % (j, len(j), self.k))
        if cap is not None and degree(j) > cap:
            raise TruncationError("index %r exceeds trunc %d" % (j, cap))
        return j

    def _x_index(self, i):
        """i as an x-multi-index (a derivative stack) of the base."""
        i = mi(i)
        if len(i) != self.space.ndim:
            raise ValueError("x-index %r does not fit a base of dimension %d"
                             % (i, self.space.ndim))
        return i

    def _own(self, c):
        """c, checked to live over the same base space."""
        if c.space != self.space:
            raise DomainMismatchError("coefficient over a different base space")
        return c

    def _own_inside(self, c):
        """c, checked by _own and to act nowhere outside the domain."""
        stray = self._own(c).stray(self.domain)
        if stray:
            raise DomainMismatchError("coefficient outside the domain at %s"
                                      % (stray,))
        return c

    # A section never changes after it is built, so its key order and
    # top degree are computed on first use and kept on the instance.

    @cached_property
    def _keys(self):
        return sorted(self.coeffs, key=grlex_key)

    @cached_property
    def _top(self):
        return max(map(degree, self.coeffs), default=0)

    def _top_degree(self) -> int:
        return self._top

    def keys_sorted(self):
        """The keys in grlex order (the section's own list: read only)."""
        return self._keys

    def _shared_keys(self, other):
        """The keys of this section that other carries too, in grlex
        order: in a pairing every other term is exactly zero."""
        carried = other.coeffs
        return [j for j in self._keys if j in carried]

    def is_exactly_zero(self) -> bool:
        return not self.coeffs

    # -- partners ------------------------------------------------------------

    def _check_partner(self, other, need=None):
        """other lives on the same base space, open set and k; given need,
        its guaranteed order trunc is at least need."""
        sp, dom = other.space, other.domain
        if (sp is not self.space and sp != self.space) \
                or (dom is not self.domain and dom != self.domain) \
                or other.k != self.k:
            raise DomainMismatchError("%s partner lives on a different domain"
                                      % type(self).__name__)
        if need is not None and other.trunc < need:
            raise TruncationError("%s partner needs trunc >= %d, got %d"
                                  % (type(self).__name__, need, other.trunc))

    def _check_like(self, other):
        """other is a section of the same shape, for the linear structure."""
        self._check_partner(other)

    def _check_inside(self, v: OpenSet):
        if not v.is_subset(self.domain):
            raise DomainMismatchError("restriction target is not inside the domain")

    def _check_extends(self, m: OpenSet):
        if not self.domain.is_subset(m):
            raise DomainMismatchError("extension target does not contain the domain")

    def __eq__(self, other):
        return (isinstance(other, _GradedSection) and self.space == other.space
                and self.domain == other.domain and self.k == other.k
                and self._eq_key() == other._eq_key())


class FormalFunction(_GradedSection):
    """sum_J u_J y^J with guaranteed order trunc over an open set."""

    def __init__(self, space, domain: OpenSet, k: int, trunc: int, coeffs=None):
        super().__init__(space, domain, k)
        if trunc < 0:
            raise ValueError("trunc must be nonnegative")
        self.trunc = trunc
        clean = {}
        for j, c in (coeffs or {}).items():
            j = self._index(j, trunc)
            c = space.clean(c, domain)
            if not space.is_zero(c):
                clean[j] = c
        self.coeffs = clean

    @classmethod
    def zero(cls, space, domain, k, trunc):
        return cls(space, domain, k, trunc)

    @classmethod
    def constant(cls, space, domain, k, trunc, value=1):
        c = space.constant(value, domain.region)
        return cls(space, domain, k, trunc, {mi([0] * k): c})

    # -- queries -----------------------------------------------------------

    def coeff(self, j):
        return self.coeffs.get(mi(j), self.space.zero())

    y_degree = _GradedSection._top_degree

    # -- ring operations ---------------------------------------------------

    def add(self, other: "FormalFunction") -> "FormalFunction":
        self._check_like(other)
        trunc = min(self.trunc, other.trunc)
        sp = self.space
        zero = sp.zero()
        out = {}
        for j in set(self.coeffs) | set(other.coeffs):
            if degree(j) > trunc:
                continue
            c = sp.add(self.coeffs.get(j, zero), other.coeffs.get(j, zero))
            if not sp.is_zero(c):
                out[j] = c
        return FormalFunction._trusted(sp, self.domain, self.k, out, trunc=trunc)

    def scale(self, s) -> "FormalFunction":
        sp = self.space
        out = _nonzero(sp, {j: sp.scale(c, s) for j, c in self.coeffs.items()})
        return FormalFunction._trusted(sp, self.domain, self.k, out,
                                       trunc=self.trunc)

    def mul(self, other: "FormalFunction") -> "FormalFunction":
        """Cauchy product in y, truncated to the minimum guaranteed order."""
        self._check_like(other)
        trunc = min(self.trunc, other.trunc)
        sp = self.space
        out = {}
        for j1, c1 in self.coeffs.items():
            for j2, c2 in other.coeffs.items():
                j = mi_add(j1, j2)
                if degree(j) > trunc:
                    continue
                c = sp.mul(c1, c2)
                prev = out.get(j)
                out[j] = c if prev is None else sp.add(prev, c)
        # a sum that cancels, or a product of coefficients with no label
        # in common, leaves a zero behind
        return FormalFunction._trusted(sp, self.domain, self.k,
                                       _nonzero(sp, out), trunc=trunc)

    def restrict(self, v: OpenSet) -> "FormalFunction":
        self._check_inside(v)
        sp = self.space
        out = _nonzero(sp, {j: sp.restrict(c, v) for j, c in self.coeffs.items()})
        return FormalFunction._trusted(sp, v, self.k, out, trunc=self.trunc)

    # -- evaluation ------------------------------------------------------------

    def ev(self, a):
        """Value of the reduced function (the y-constant coefficient) at a."""
        if not self.domain.contains(a):
            raise DomainMismatchError("evaluation point %r outside the domain" % (a,))
        return self.space.ev(self.coeff(mi([0] * self.k)), a)

    def jet(self, a, i, j):
        """Jet value J! * (d_x^I u_J)(a).

        i is an x-multi-index of length space.ndim (the empty tuple on
        the discrete backend), j a y-multi-index of length k.
        """
        i = mi(i)
        if len(i) != self.space.ndim:
            raise BackendError("x-index %r does not fit a base of dimension %d"
                               % (i, self.space.ndim))
        j = self._index(j, self.trunc)
        if not self.domain.contains(a):
            raise DomainMismatchError("jet point %r outside the domain" % (a,))
        c = self.space.diff(self.coeff(j), i[0] if i else 0)
        return mi_factorial(j) * self.space.ev(c, a)

    # -- plumbing -----------------------------------------------------------------

    def _eq_key(self):
        return ("function", self.trunc, self.coeffs)

    def __repr__(self):
        bits = []
        for j in self.keys_sorted():
            bits.append("y^%s: %s" % (j, self.space.to_json(self.coeffs[j])))
        return "FormalFunction(trunc=%d, %s)" % (self.trunc, "; ".join(bits))

    # -- serialization ---------------------------------------------------------------

    def to_json(self):
        return {
            "trunc": self.trunc,
            "coeffs": {key_str(j): self.space.to_json(self.coeffs[j])
                       for j in self.keys_sorted()},
        }

    @classmethod
    def from_json(cls, space, domain, k, v):
        if not isinstance(v, dict) or "trunc" not in v:
            raise ValueError("formal function needs a 'trunc' field")
        coeffs = {}
        for key, cv in json_shape(v.get("coeffs", {}), dict,
                                  "'coeffs'").items():
            j = parse_key(key, length=k)
            coeffs[j] = space.from_json(cv, domain=domain)
        return cls(space, domain, k, json_shape(v["trunc"], int, "'trunc'"),
                   coeffs)


class SupportedFormalFunction(FormalFunction):
    """Formal function with a support witness and optional unit plateau."""

    def __init__(self, space, domain, k, trunc, coeffs=None, support=None,
                 plateau=None):
        super().__init__(space, domain, k, trunc, coeffs)
        if support is None:
            support = space.support(self.coeffs.values())
        support = space.region(support)
        for j, c in self.coeffs.items():
            stray = space.stray(c, support)
            if stray:
                raise SupportError("coefficient at %r is nonzero outside "
                                   "the support witness: %s" % (j, stray))
        self.support = support
        self.plateau = plateau

    def restrict(self, v: OpenSet) -> "SupportedFormalFunction":
        plain = super().restrict(v)
        return SupportedFormalFunction._trusted(
            self.space, v, self.k, plain.coeffs, trunc=self.trunc,
            support=self.support & v.region, plateau=None)

    def ext(self, m: OpenSet) -> "SupportedFormalFunction":
        """Reinterpret over a larger open set, zero outside the support.

        Requires a compact support witness sitting inside the current
        domain; the coefficients themselves carry over unchanged.
        """
        self._check_extends(m)
        if not self.space.is_compact(self.support):
            raise SupportError("extension by zero needs a compact support witness")
        if not self.support <= self.domain.region:
            raise SupportError("support witness escapes the domain")
        return SupportedFormalFunction._trusted(
            self.space, m, self.k, self.coeffs, trunc=self.trunc,
            support=self.support, plateau=self.plateau)

    def cutoff_restrict(self, f: "SupportedFormalFunction",
                        v: OpenSet) -> "SupportedFormalFunction":
        """(f u)|_v for a cutoff f supported inside v."""
        return cutoff_product(f, self).restrict(v)

    def to_json(self):
        out = super().to_json()
        out["support"] = self.space.region_to_json(self.support)
        if self.plateau is not None:
            out["plateau"] = self.space.region_to_json(self.plateau)
        return out

    @classmethod
    def from_json(cls, space, domain, k, v):
        plain = FormalFunction.from_json(space, domain, k, v)
        support = None
        if "support" in v:
            support = space.region_from_json(v["support"])
        plateau = None
        if "plateau" in v:
            plateau = space.region_from_json(v["plateau"])
        return cls(space, domain, k, plain.trunc, plain.coeffs,
                   support=support, plateau=plateau)


def cutoff_product(f: SupportedFormalFunction, u: FormalFunction):
    """Multiply a function on U by a cutoff supported inside U.

    f lives on a larger open set M with support inside U = domain(u);
    the product is the formal function f*u on U extended by zero over M,
    with support witness supp(f), intersected with supp(u) when u also
    carries one.
    """
    if f.space != u.space or f.k != u.k:
        raise DomainMismatchError("cutoff and function do not match")
    if not u.domain.is_subset(f.domain):
        raise DomainMismatchError("cutoff domain does not contain the function domain")
    if not f.support & f.domain.region <= u.domain.region:
        raise SupportError("cutoff support escapes the open set of the function")
    prod = f.restrict(u.domain).mul(u)
    support = f.support
    if isinstance(u, SupportedFormalFunction):
        support = support & u.support
    return SupportedFormalFunction._trusted(f.space, f.domain, f.k, prod.coeffs,
                                            trunc=prod.trunc, support=support,
                                            plateau=None)


def cutoff(space, domain: OpenSet, k: int, trunc: int, plateau, support):
    """A cutoff, constant in y: one on the plateau, zero outside the
    support (which lies in the domain), its coefficient built by the
    space: a label indicator, or a plateau bump on the line."""
    plateau, support = space.region(plateau), space.region(support)
    if not plateau <= support:
        raise SupportError("cutoff plateau escapes its support")
    if not support <= domain.region:
        raise SupportError("cutoff support escapes the domain")
    return SupportedFormalFunction(space, domain, k, trunc,
                                   {mi([0] * k): space.cutoff(plateau, support)},
                                   support=support, plateau=plateau)
