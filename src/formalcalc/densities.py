"""Compactly supported formal densities and their pairing calculus.

A formal density on an open set U is a finite sum

    eta = sum_L ( sum_i tau_i . d_x^{I_i} ) (y*)^L

over y*-multi-indices L, where each tau_i is a base density and d_x^{I}
is a derivative stack acting on the function side of every pairing:

    <(tau . d_x^I)(y*)^L, u> = L! * integral of tau * (d_x^I u_L).

Derivative stacks are never integrated by parts onto tau; pairings
differentiate the smooth partner symbolically instead, so quadrature
only ever sees the stated density expressions.

The star degree of a density is the largest |L| present. Pairings and
module actions demand a partner whose truncation covers that degree and
raise TruncationError otherwise, since lower-order guarantees cannot
determine the answer.
"""

from __future__ import annotations

from functools import reduce
from itertools import product as _cartesian
from operator import or_

from .basedensity import BaseDensity
from .errors import SupportError, json_shape
from .functions import (FormalFunction, SupportedFormalFunction, _GradedSection,
                        read_pairings)
from .multiindex import (degree, grlex_key, key_str, mi, mi_binom,
                         mi_factorial, mi_sub, parse_key)
from .spaces import OpenSet


def submultiindices(m: tuple):
    """All multi-indices componentwise <= m."""
    return [tuple(t) for t in _cartesian(*(range(e + 1) for e in m))]


def leibniz(f: FormalFunction, l: tuple, i: tuple):
    """Leibniz expansion of d_x^I d_y^L (f . u) in the derivatives of u.

    Yields (I', J', c, g) for every J' <= L and I' <= I, with the integer
    c = (L!/J'!) C(I, I') and the base coefficient g = d^{I-I'} f_{L-J'};
    the derivative d^{I'} d^{J'} u then carries the factor c * g. A J'
    whose f_{L-J'} is absent from f.coeffs yields nothing, as each of its
    terms would be zero. Pass the empty x-index for an expansion in y
    alone.
    """
    lfact = mi_factorial(l)
    for jp in submultiindices(l):
        fj = f.coeffs.get(mi_sub(l, jp))
        if fj is None:
            continue
        ratio = lfact // mi_factorial(jp)
        for ip in submultiindices(i):
            order = degree(mi_sub(i, ip))
            yield ip, jp, ratio * mi_binom(i, ip), f.space.diff(fj, order)


def _canon_terms(terms):
    """Merge derivative-stack terms with equal I, drop exact zeros, sort."""
    acc = {}
    for i, tau in terms:
        if i in acc:
            acc[i] = acc[i].add(tau)
        else:
            acc[i] = tau
    out = []
    for i in sorted(acc, key=grlex_key):
        if not acc[i].is_exactly_zero():
            out.append((i, acc[i]))
    return tuple(out)


class FormalDensity(_GradedSection):
    """sum_L (sum tau . d_x^I) (y*)^L over an open set."""

    # read against probes, a density is a functional with scalar values
    e_dim = 1

    def __init__(self, space, domain: OpenSet, k: int, coeffs=None):
        super().__init__(space, domain, k)
        clean = {}
        for l, terms in (coeffs or {}).items():
            l = self._index(l)
            canon = _canon_terms((self._x_index(i), self._own_inside(tau))
                                 for i, tau in terms)
            if canon:
                clean[l] = canon
        self.coeffs = clean

    def _canon(self, coeffs, domain=None):
        """This class's section over domain (default: this one's) from
        term lists the algebra produced, merged and sorted by _canon_terms."""
        out = {}
        for l, terms in coeffs.items():
            canon = _canon_terms(terms)
            if canon:
                out[l] = canon
        return type(self)._trusted(self.space, domain or self.domain,
                                   self.k, out)

    @classmethod
    def zero(cls, space, domain, k):
        return cls(space, domain, k)

    @staticmethod
    def monomial(space, domain, k, l, tau: BaseDensity, i=None):
        """Single term (tau . d_x^I)(y*)^L, a plain density on any class:
        an operator is built by its own constructor, which checks it."""
        i = (0,) * space.ndim if i is None else i
        return FormalDensity(space, domain, k, {l: ((i, tau),)})

    # -- queries ---------------------------------------------------------

    star_degree = _GradedSection._top_degree

    def support(self):
        return reduce(or_, (tau.support for terms in self.coeffs.values()
                            for _, tau in terms), self.space.empty_region())

    # -- linear structure ---------------------------------------------------

    def add(self, other: "FormalDensity") -> "FormalDensity":
        self._check_like(other)
        out = {}
        for l in set(self.coeffs) | set(other.coeffs):
            terms = self.coeffs.get(l, ()) + other.coeffs.get(l, ())
            out[l] = terms
        return self._canon(out)

    def scale(self, c) -> "FormalDensity":
        return self._canon({l: tuple((i, tau.scale(c)) for i, tau in terms)
                            for l, terms in self.coeffs.items()})

    # -- pairing ----------------------------------------------------------------

    def pairing(self, u: FormalFunction):
        """<eta, u> as terms (`read_pairings`): one E-entry, with (L!,
        parts) per term tau . d^I at each L that u carries too. The part
        integrates tau * d^I u_L over tau's witness, as
        `BaseDensity.integrate` clips (no part if that is empty)."""
        self._check_partner(u, self.star_degree())
        entry = []
        for l in self._shared_keys(u):
            lfact = mi_factorial(l)
            for i, tau in self.coeffs[l]:
                d = tau.mul_coeff(self.space.diff(u.coeffs[l], degree(i)))
                region = d.bound & self.domain.region
                entry.append((lfact, [(d.coeff, region)] if region else []))
        return [entry]

    def pair(self, u: FormalFunction):
        """<eta, u> = sum_L L! sum_(I,tau) integral of tau * (d_x^I u_L):
        exact on the discrete backend, complex (quadrature, at the default
        tolerance) when a smooth non-polynomial coefficient enters."""
        return next(read_pairings(self.space, [self.pairing(u)]))[0]

    def apply(self, u: FormalFunction):
        """<eta, u> as an E-vector with one entry, as distributions give."""
        return [self.pair(u)]

    def weight_vectors(self):
        """(L, (weight map,)) per y*-index on a discrete space, where a
        key holds a single term (there are no derivative stacks)."""
        return ((l, (terms[0][1].coeff,)) for l, terms in self.coeffs.items())

    # -- module action -------------------------------------------------------------

    def module_action(self, f: FormalFunction) -> "FormalDensity":
        """eta . f, defined by <eta . f, u> = <eta, f u>.

        Expanding the Cauchy product and the Leibniz rule termwise:
        (tau . d^I)(y*)^L picks up, for every J' <= L and I' <= I, the
        term ((L!/J'!) C(I,I') tau * d^{I-I'} f_{L-J'}) . d^{I'} (y*)^{J'}.
        """
        self._check_partner(f, self.star_degree())
        out = {}
        for l, terms in self.coeffs.items():
            for i, tau in terms:
                for ip, jp, c, g in leibniz(f, l, i):
                    out.setdefault(jp, []).append((ip, tau.mul_coeff(g).scale(c)))
        return self._canon(out)

    # -- cosheaf structure ------------------------------------------------------------

    def ext(self, m: OpenSet) -> "FormalDensity":
        """Extension by zero to a larger open set (coefficients carry over)."""
        self._check_extends(m)
        supp = self.support()
        if not self.space.is_compact(supp):
            raise SupportError("extension by zero needs a compact support")
        if not supp <= self.domain.region:
            raise SupportError("support escapes the domain")
        return type(self)._trusted(self.space, m, self.k, self.coeffs)

    def cutoff_restrict(self, f: SupportedFormalFunction, v: OpenSet) -> "FormalDensity":
        """(eta . f)|_v for a cutoff f supported inside v.

        This is the unique density on v that extends back to eta . f,
        because the cutoff confines every coefficient inside v.
        """
        self._check_inside(v)
        if not f.support & f.domain.region <= v.region:
            raise SupportError("cutoff support escapes the target open set")
        f_here = f if f.domain == self.domain else f.restrict(self.domain)
        acted = self.module_action(f_here)
        # clip the recorded bounds by the cutoff support, so the result
        # is compactly supported inside v whenever the cutoff is
        return self._canon({l: tuple((i, tau.restrict(v).clip(f_here.support))
                                     for i, tau in terms)
                            for l, terms in acted.coeffs.items()}, v)

    # -- plumbing ----------------------------------------------------------------------

    def _eq_key(self):
        """Exact structural equality of canonical forms."""
        return ("density", self.coeffs)

    def __repr__(self):
        bits = []
        for l in self.keys_sorted():
            for i, tau in self.coeffs[l]:
                bits.append("(%r . d^%s)(y*)^%s" % (tau, i, l))
        return "FormalDensity(%s)" % ("; ".join(bits) or "0")

    # -- serialization -----------------------------------------------------------------

    def to_json(self):
        out = {}
        for l in self.keys_sorted():
            out[key_str(l)] = [{"I": list(i), "tau": tau.to_json()}
                               for i, tau in self.coeffs[l]]
        return {"coeffs": out}

    @classmethod
    def from_json(cls, space, domain, k, v):
        if not isinstance(v, dict) or "coeffs" not in v:
            raise ValueError("formal density needs a 'coeffs' field")
        coeffs = {}
        for key, terms in json_shape(v["coeffs"], dict, "'coeffs'").items():
            l = parse_key(key, length=k)
            lst = []
            for t in json_shape(terms, list, "density terms"):
                i = mi(json_shape(t, dict, "density term").get(
                    "I", [0] * space.ndim))
                tau = BaseDensity.from_json(space, t["tau"])
                lst.append((i, tau))
            coeffs[l] = tuple(lst)
        return cls(space, domain, k, coeffs)
