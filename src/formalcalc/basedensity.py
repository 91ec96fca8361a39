"""Densities on the base space.

A base density is what gets integrated over open subsets of the base:
a base coefficient of the space together with a support bound. On the
discrete backend the coefficient is a finitely supported map
label -> QC whose integral is the sum of its values, and the bound is
the set of labels carrying a weight. On the smooth backend it is an
expression against |dx| and the bound is a support witness: the
expression is expected to vanish, with all derivatives, outside it,
which kernel-built bump expressions do by construction.
Algebra (add, diff, mul_coeff) treats the expression as globally
defined and only tracks witnesses, so a witness must be honest.
Integration and point evaluation clip to the witness; besides speed,
the clipping guarantees a density with a narrow support is never
missed entirely by the quadrature nodes of a wide range.
"""

from __future__ import annotations

from .errors import DomainMismatchError
from .quadrature import DEFAULT_ABS_TOL
from .scalars import QC_ZERO
from .spaces import OpenSet, same


class BaseDensity:
    """Scalar density over a base space: a coefficient and its bound."""

    __slots__ = ("space", "coeff", "bound")

    def __init__(self, space, coeff=None, bound=None):
        self.space = space
        self.coeff = space.zero() if coeff is None else space.clean(coeff)
        if bound is None:
            bound = space.empty_region()
        self.bound = space.support((self.coeff,), bound)

    @classmethod
    def _trusted(cls, space, coeff, bound):
        """A density built without validating its coefficient.

        For results of the space's own algebra: coeff is already a
        canonical coefficient of the space. The bound is derived from
        it exactly as the public constructor derives it.
        """
        d = object.__new__(cls)
        d.space = space
        d.coeff = coeff
        d.bound = space.support((coeff,), bound)
        return d

    @classmethod
    def zero(cls, space):
        return cls._trusted(space, space.zero(), space.empty_region())

    @classmethod
    def discrete(cls, space, weights):
        return cls(space, weights)

    @classmethod
    def smooth(cls, space, expr, bound):
        return cls(space, expr, bound)

    # -- queries ----------------------------------------------------------

    @property
    def weights(self):
        """The weight map on the discrete backend, None on the line."""
        return self.space.weights(self.coeff)

    @property
    def support(self):
        return self.bound

    def is_exactly_zero(self) -> bool:
        """Syntactic zero test: exact on discrete, conservative on smooth."""
        return self.space.is_zero(self.coeff) or not self.bound

    def stray(self, u: OpenSet):
        """Where the coefficient is known nonzero outside an open set."""
        return self.space.stray(self.coeff, u.region)

    # -- algebra -----------------------------------------------------------

    def add(self, other: "BaseDensity") -> "BaseDensity":
        self._check(other)
        sp = self.space
        if sp.is_zero(self.coeff):
            return other
        if sp.is_zero(other.coeff):
            return self
        return BaseDensity._trusted(sp, sp.add(self.coeff, other.coeff),
                                    self.bound | other.bound)

    def scale(self, c) -> "BaseDensity":
        """The density times a scalar, the scalar on the right."""
        return self.mul_coeff(self.space.constant(c, self.bound))

    def mul_coeff(self, coeff) -> "BaseDensity":
        """Multiply by a base function coefficient of the space."""
        sp = self.space
        c = sp.mul(self.coeff, coeff)
        if sp.is_zero(c):
            return BaseDensity.zero(sp)
        return BaseDensity._trusted(sp, c, self.bound)

    def diff(self, order: int = 1) -> "BaseDensity":
        return BaseDensity._trusted(self.space,
                                    self.space.diff(self.coeff, order),
                                    self.bound)

    def restrict(self, u: OpenSet) -> "BaseDensity":
        return BaseDensity._trusted(self.space,
                                    self.space.restrict(self.coeff, u),
                                    self.bound & u.region)

    def clip(self, region) -> "BaseDensity":
        """Intersect the bound with a region the density vanishes outside."""
        return BaseDensity._trusted(self.space, self.coeff,
                                    self.bound & region)

    # -- integration ----------------------------------------------------------

    def integrate(self, over: OpenSet, abs_tol=DEFAULT_ABS_TOL):
        """Integral over an open set, clipped to the support witness.

        Exact QC on the discrete backend and for polynomial expressions;
        complex from adaptive quadrature otherwise.
        """
        if not same(self.space, over.space):
            raise DomainMismatchError("integrating over a different base space")
        region = self.bound & over.region
        if not region:
            return QC_ZERO
        total, = self.space.integrate_all([(self.coeff, region)], abs_tol)
        return total

    # -- plumbing -----------------------------------------------------------------

    def _check(self, other):
        if not same(self.space, other.space):
            raise DomainMismatchError("densities over different base spaces")

    def __eq__(self, other):
        if not isinstance(other, BaseDensity) or not same(self.space, other.space):
            return False
        return self.coeff == other.coeff and self.bound == other.bound

    def __repr__(self):
        return "BaseDensity(%s on %r)" % (self.space.to_json(self.coeff),
                                          self.bound)

    # -- serialization ------------------------------------------------------------

    def to_json(self):
        return self.space.bounded_to_json(self.coeff, self.bound)

    @classmethod
    def from_json(cls, space, v):
        return cls(space, *space.bounded_from_json(v))
