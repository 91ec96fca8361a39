"""Compactly supported differential operators and the rho map.

A DensityDiffOp is a finite sum of terms tau . d_x^I d_y^L with
compactly supported base-density coefficients; it eats a formal
function and returns a base density, with the reduction to y = 0 built
into the formula

    D(u) = sum_{(I,L)} tau_{I,L} * L! * (d_x^I u_L).

Derivative stacks sit on the right of the coefficients (normal form).
Regrouping the terms by L gives the formal density rho(D), and pairing
rho(D) against u is the same number as integrating D(u). An operator
is its normal form: DensityDiffOp subclasses FormalDensity, so its
linear structure, extension by zero, pairing (op.pair(u) is the rho
identity) and composition with a formal function on the right
(rho(D . f) = rho(D) . f, renormalized through the Leibniz rule) are
the density's, each returning the caller's class.

An EndoDiffOp has formal-function coefficients and lands back in base
functions; only the y-constant parts of its coefficients reach the
reduction X(u)_0, so it is held as the density operator of those parts
on their witnesses. It only feeds the seminorm diagnostics and is
built in code, never read from JSON.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType

from .basedensity import BaseDensity
from .densities import FormalDensity, _canon_terms
from .errors import SupportError, json_shape
from .functions import FormalFunction, SupportedFormalFunction, _GradedSection
from .multiindex import degree, mi, mi_factorial
from .spaces import OpenSet


def _check_compact(space, key, support):
    if not space.is_compact(support):
        raise SupportError("coefficient at (%r, %r) is not compactly "
                           "supported" % key)


class DensityDiffOp(FormalDensity):
    """Operator sum tau_{I,L} . d_x^I d_y^L from functions to densities,
    held as its normal form rho(D): `coeffs` maps L to ((I, tau), ...)."""

    def __init__(self, space, domain: OpenSet, k: int, terms=None):
        _GradedSection.__init__(self, space, domain, k)
        grouped = {}
        for (i, l), tau in (terms or {}).items():
            key = (self._x_index(i), self._index(l))
            if self._own(tau).is_exactly_zero():
                continue
            _check_compact(space, key, tau.support)
            if not tau.support <= domain.region:
                raise SupportError("coefficient support at (%r, %r) escapes the "
                                   "domain" % key)
            grouped.setdefault(key[1], []).append((key[0], tau))
        self.coeffs = {l: _canon_terms(terms) for l, terms in grouped.items()}

    @cached_property
    def terms(self):
        """The terms as a read-only map (I, L) -> tau, in the order
        (|I| + |L|, I, L) in which apply sums them."""
        return MappingProxyType(dict(sorted(
            (((i, l), tau) for l, terms in self.coeffs.items()
             for i, tau in terms),
            key=lambda t: (degree(t[0][0]) + degree(t[0][1]), t[0]))))

    def order(self) -> int:
        return max((degree(i) + degree(l) for i, l in self.terms), default=0)

    y_order = FormalDensity.star_degree

    def apply(self, u: FormalFunction) -> BaseDensity:
        """D(u) = sum tau * L! * (d_x^I u_L), a base density."""
        self._check_partner(u, self.y_order())
        acc = BaseDensity.zero(self.space)
        for (i, l), tau in self.terms.items():
            der = self.space.diff(u.coeff(l), degree(i))
            acc = acc.add(tau.mul_coeff(der).scale(mi_factorial(l)))
        return acc

    def rho(self) -> FormalDensity:
        """The formal density sum (tau . d^I)(y*)^L: the normal form.

        Defining identity: pair(rho(D), u) = integrate(apply(D, u)).
        """
        return FormalDensity._trusted(self.space, self.domain, self.k, self.coeffs)

    # D . f, with apply(D . f, u) = apply(D, f u): rho(D . f) = rho(D) . f
    precompose_function = FormalDensity.module_action

    # -- plumbing ----------------------------------------------------------------------

    # an operator never equals a density, its normal form included
    def _eq_key(self):
        return (type(self).__name__, self.coeffs)

    def to_json(self):
        return {"terms": [{"I": list(i), "L": list(l), "coeff": tau.to_json()}
                          for (i, l), tau in self.terms.items()]}

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

    def __repr__(self):
        bits = ["%r . d_x^%s d_y^%s" % (tau, i, l)
                for (i, l), tau in self.terms.items()]
        return "DensityDiffOp(%s)" % ("; ".join(bits) or "0")


class EndoDiffOp(DensityDiffOp):
    """Operator sum f_{I,L} . d_x^I d_y^L with supported formal-function
    coefficients, landing in base functions after reduction; feeds the
    seminorm diagnostics. Held as the density operator of the terms
    (f_{I,L})_0 on f_{I,L}'s witness clipped to the domain."""

    def __init__(self, space, domain: OpenSet, k: int, terms=None):
        _GradedSection.__init__(self, space, domain, k)
        reduced = {}
        for (i, l), f in (terms or {}).items():
            key = (self._x_index(i), self._index(l))
            if not isinstance(f, SupportedFormalFunction):
                raise SupportError("coefficients need a support witness")
            self._check_partner(f)
            if not f.is_exactly_zero():
                _check_compact(space, key, f.support)
            reduced[key] = BaseDensity._trusted(
                space, f.coeff((0,) * k), f.support & domain.region)
        super().__init__(space, domain, k, reduced)

    def apply_reduced(self, u: FormalFunction):
        """Base coefficient of X(u): sum (f_{I,L})_0 * L! * (d_x^I u_L)."""
        return self.apply(u).coeff


SEMINORM_GRID = 1001


def seminorm(u: FormalFunction, x: EndoDiffOp) -> float:
    """|u|_X = sup over the base of |X(u)(a)|.

    Exact max over points on the discrete backend. On the smooth line
    this is a diagnostic: the sup is sampled on a uniform grid of
    SEMINORM_GRID points spanning the hull of the operator's support,
    each coefficient's witness clipped to the domain.
    """
    c = x.apply_reduced(u)
    supp = x.support()
    if not supp:
        return 0.0
    return x.space.sup_abs(c, supp, SEMINORM_GRID)
