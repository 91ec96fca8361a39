"""Compactly supported differential operators and the rho map.

A DensityDiffOp is a finite sum of terms tau . d_x^I d_y^L with
compactly supported base-density coefficients; it eats a formal
function and returns a base density, with the reduction to y = 0 built
into the formula

    D(u) = sum_{(I,L)} tau_{I,L} * L! * (d_x^I u_L).

Derivative stacks sit on the right of the coefficients (normal form);
composing with a formal function on the right is renormalized back
into that form through the Leibniz rule. The rho map regroups the
terms of D into a formal density, and pairing rho(D) against u is the
same number as integrating D(u).

An EndoDiffOp has formal-function coefficients and lands back in base
functions; it only feeds the seminorm diagnostics and is built in
code, never read from JSON.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .basedensity import BaseDensity
from .densities import FormalDensity, leibniz
from .errors import SupportError, json_shape
from .functions import FormalFunction, SupportedFormalFunction, _GradedSection
from .multiindex import degree, mi, mi_factorial
from .spaces import OpenSet


def _term_sort_key(key):
    i, l = key
    return (degree(i) + degree(l), i, l)


class _DiffOp(_GradedSection):
    """Terms coeff_{I,L} . d_x^I d_y^L keyed by (I, L), of the coefficient
    type `_check_coeff` validates; only DensityDiffOp reads JSON back."""

    def __init__(self, space, domain: OpenSet, k: int, terms=None):
        super().__init__(space, domain, k)
        clean = {}
        for (i, l), c in (terms or {}).items():
            key = (self._x_index(i), self._index(l))
            self._check_coeff(c)
            if c.is_exactly_zero():
                continue
            if not space.is_compact(c.support):
                raise SupportError("coefficient at (%r, %r) is not compactly "
                                   "supported" % key)
            clean[key] = c
        self.terms = clean

    @classmethod
    def zero(cls, space, domain, k):
        return cls(space, domain, k)

    def is_exactly_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        return max((degree(i) + degree(l) for i, l in self.terms), default=0)

    def y_order(self) -> int:
        return max((degree(l) for _, l in self.terms), default=0)

    def support(self):
        return reduce(or_, (c.support for c in self.terms.values()),
                      self.space.empty_region())

    def keys_sorted(self):
        return sorted(self.terms, key=_term_sort_key)

    def _eq_key(self):
        return (type(self).__name__, self.terms)

    def to_json(self):
        return {"terms": [{"I": list(i), "L": list(l),
                           "coeff": self.terms[(i, l)].to_json()}
                          for i, l in self.keys_sorted()]}


class DensityDiffOp(_DiffOp):
    """Operator sum tau_{I,L} . d_x^I d_y^L from functions to densities."""

    def __init__(self, space, domain: OpenSet, k: int, terms=None):
        super().__init__(space, domain, k, terms)
        for key, tau in self.terms.items():
            if not tau.support <= domain.region:
                raise SupportError("coefficient support at (%r, %r) escapes the "
                                   "domain" % key)

    _check_coeff = _GradedSection._own

    @classmethod
    def from_json(cls, space, domain, k, v):
        if not isinstance(v, dict) or "terms" not in v:
            raise ValueError("operator needs a 'terms' field")
        terms = {}
        for t in json_shape(v["terms"], list, "'terms'"):
            i = mi(json_shape(t, dict, "operator term").get(
                "I", [0] * space.ndim))
            l = mi(t.get("L", [0] * k))
            if (i, l) in terms:
                raise ValueError("duplicate operator term at (%r, %r)" % (i, l))
            terms[(i, l)] = BaseDensity.from_json(space, t["coeff"])
        return cls(space, domain, k, terms)

    # -- linear structure --------------------------------------------------

    def add(self, other: "DensityDiffOp") -> "DensityDiffOp":
        self._check_like(other)
        out = dict(self.terms)
        for key, tau in other.terms.items():
            out[key] = out[key].add(tau) if key in out else tau
        return DensityDiffOp(self.space, self.domain, self.k, out)

    def scale(self, c) -> "DensityDiffOp":
        out = {key: tau.scale(c) for key, tau in self.terms.items()}
        return DensityDiffOp(self.space, self.domain, self.k, out)

    # -- action ------------------------------------------------------------

    def apply(self, u: FormalFunction) -> BaseDensity:
        """D(u) = sum tau * L! * (d_x^I u_L), a base density."""
        self._check_partner(u, self.y_order())
        acc = BaseDensity.zero(self.space)
        for (i, l) in self.keys_sorted():
            tau = self.terms[(i, l)]
            der = self.space.diff(u.coeff(l), i[0] if i else 0)
            acc = acc.add(tau.mul_coeff(der).scale(mi_factorial(l)))
        return acc

    # -- the rho map --------------------------------------------------------

    def rho(self) -> FormalDensity:
        """Regroup the terms into the formal density sum (tau . d^I)(y*)^L.

        Defining identity: pair(rho(D), u) = integrate(apply(D, u)).
        """
        coeffs = {}
        for (i, l), tau in self.terms.items():
            coeffs.setdefault(l, []).append((i, tau))
        return FormalDensity(self.space, self.domain, self.k, coeffs)

    # -- composition with functions ----------------------------------------------

    def precompose_function(self, f: FormalFunction) -> "DensityDiffOp":
        """D . f, with apply(D . f, u) = apply(D, f u).

        Pushing f through the stacks and renormalizing, the term
        tau . d^I d^L spawns, for J' <= L and I' <= I, the term
        ((L!/J'!) C(I,I') tau * d^{I-I'} f_{L-J'}) . d^{I'} d^{J'}.
        """
        self._check_partner(f, self.y_order())
        out = {}
        for (i, l), tau in self.terms.items():
            for ip, jp, c, g in leibniz(f, l, i):
                term = tau.mul_coeff(g).scale(c)
                key = (ip, jp)
                out[key] = out[key].add(term) if key in out else term
        return DensityDiffOp(self.space, self.domain, self.k, out)

    # -- cosheaf structure ----------------------------------------------------------

    def ext(self, m: OpenSet) -> "DensityDiffOp":
        """Extension by zero to a larger open set."""
        self._check_extends(m)
        return DensityDiffOp(self.space, m, self.k, self.terms)

    # -- plumbing ----------------------------------------------------------------------

    def __repr__(self):
        bits = ["%r . d_x^%s d_y^%s" % (self.terms[key], key[0], key[1])
                for key in self.keys_sorted()]
        return "DensityDiffOp(%s)" % ("; ".join(bits) or "0")


class EndoDiffOp(_DiffOp):
    """Operator with formal-function coefficients, landing in base
    functions after reduction; feeds the seminorm diagnostics."""

    def _check_coeff(self, f):
        if not isinstance(f, SupportedFormalFunction):
            raise SupportError("coefficients need a support witness")
        self._check_partner(f)

    def apply_reduced(self, u: FormalFunction):
        """Base coefficient of X(u): sum (f_{I,L})_0 * L! * (d_x^I u_L)."""
        self._check_partner(u, self.y_order())
        sp = self.space
        acc = sp.zero()
        for (i, l) in self.keys_sorted():
            f0 = self.terms[(i, l)].coeff((0,) * self.k)
            der = sp.diff(u.coeff(l), i[0] if i else 0)
            acc = sp.add(acc, sp.mul(f0, sp.scale(der, mi_factorial(l))))
        return acc


SEMINORM_GRID = 1001


def seminorm(u: FormalFunction, x: EndoDiffOp) -> float:
    """|u|_X = sup over the base of |X(u)(a)|.

    Exact max over points on the discrete backend. On the smooth line
    this is a diagnostic: the sup is sampled on a uniform grid of
    SEMINORM_GRID points spanning the hull of the operator's support.
    """
    c = x.apply_reduced(u)
    supp = x.support()
    if not supp:
        return 0.0
    return x.space.sup_abs(c, supp, SEMINORM_GRID)
