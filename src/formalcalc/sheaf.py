"""Covers, partitions of unity, and sheaf/cosheaf verifications.

Every construction is stated once for every base space: the space
supplies its ingredients as base data (coefficients and regions) and
this module builds the formal sections from them. They are the probes
that functional equality is decided against (the finite dual basis on
a discrete space, complete and exact; a fixed catalogue of bump x
polynomial probes on the line, sound for the classes this package
builds, not for arbitrary functionals), the coefficients of a
partition of unity (first-match indicators, or bump quotients whose
shared denominator is certified positive), a cutoff that is one near a
support, and the check that a partition sums to one. The constructions:

* build_pou: partitions of unity subordinate to a finite cover.

* mv_split: from a kernel pair (eta1, eta2) with ext(eta1) + ext(eta2)
  = 0 on the union, produce eta' on the intersection with
  ext(eta') = eta1 and ext(-eta') = eta2, by cutting off with a
  function that is exactly one near the common support.

* cosheaf_decompose / cosheaf_reassemble: the right inverse of
  extension by zero, eta -> ((eta . f_a)|_{U_a})_a, for densities,
  supported functions, and compactly supported distributions.

* sheaf_glue: assemble a global functional from compatible locals,
  glued = sum_a f_a . local_a, for generalized functions and formal
  distributions.

* flabby_check: extension by zero kills no nonzero member of a family.
"""

from __future__ import annotations

from .basedensity import BaseDensity
from .densities import FormalDensity
from .distributions import (CompactFormalDistribution, FormalDistribution,
                            GeneralizedFunction, vec_add)
from .errors import (CertificateError, DomainMismatchError,
                     IncompatibilityError, SupportError)
from .functions import SupportedFormalFunction, cutoff_product
from .multiindex import degree, enumerate_upto, mi
from .spaces import OpenSet

POU_GRID_TOL = 1e-12
DEFAULT_FUNCTIONAL_TOL = 1e-8


class Cover:
    """A finite open cover: parts whose union is exactly the whole set."""

    def __init__(self, whole: OpenSet, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("a cover needs at least one part")
        union = None
        for p in parts:
            if p.space != whole.space:
                raise DomainMismatchError("cover part over a different base space")
            if not p.is_subset(whole):
                raise ValueError("cover part escapes the whole set")
            union = p if union is None else union.union(p)
        if union != whole:
            raise ValueError("cover parts do not exhaust the whole set")
        self.whole = whole
        self.parts = parts

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        return "Cover(%r, %d parts)" % (self.whole, len(self.parts))

    def to_json(self):
        return {"whole": self.whole.to_json(),
                "parts": [p.to_json() for p in self.parts]}

    @classmethod
    def from_json(cls, space, v):
        if not isinstance(v, dict) or "whole" not in v or "parts" not in v:
            raise ValueError("cover needs 'whole' and 'parts' fields")
        whole = OpenSet.from_json(space, v["whole"])
        parts = [OpenSet.from_json(space, p) for p in v["parts"]]
        return cls(whole, parts)


class PartitionOfUnity:
    """Functions subordinate to a cover that sum to one.

    Every function is constant in y (only the zero y-index carries a
    coefficient). The space's unit_gap checks the sum identity: exactly
    on a discrete space, on a sample grid (within POU_GRID_TOL) on the
    line, where the construction in build_pou additionally makes it an
    algebraic identity through the shared denominator.
    """

    def __init__(self, cover: Cover, functions):
        functions = list(functions)
        if len(functions) != len(cover.parts):
            raise ValueError("one function per cover part, got %d for %d"
                             % (len(functions), len(cover.parts)))
        space = cover.whole.space
        j0 = mi([0] * functions[0].k) if functions else ()
        for f, part in zip(functions, cover.parts):
            if f.space != space or f.domain != cover.whole:
                raise DomainMismatchError("partition function does not live "
                                          "on the whole set")
            if any(j != j0 for j in f.coeffs):
                raise ValueError("partition functions must be constant in y")
            if not f.support & cover.whole.region <= part.region:
                raise SupportError("partition function support escapes its part")
        self.cover = cover
        self.functions = functions
        self.grid_residual = self._sum_residual()
        if self.grid_residual > POU_GRID_TOL:
            raise CertificateError("partition sum deviates from one by %g"
                                   % self.grid_residual)

    def _sum_residual(self) -> float:
        j0 = mi([0] * self.functions[0].k)
        return self.cover.whole.space.unit_gap(
            [f.coeff(j0) for f in self.functions], self.cover.whole.region)

    def __repr__(self):
        return "PartitionOfUnity(%d parts, grid_residual=%g)" % (
            len(self.functions), self.grid_residual)


# -- partitions of unity and probe families -------------------------------


def build_pou(cover: Cover, k: int, trunc: int) -> PartitionOfUnity:
    """Construct a partition of unity subordinate to the cover: one
    function per part, constant in y, from the space's `partition`.
    Raises CertificateError when the space cannot certify it.
    """
    whole, j0 = cover.whole, mi([0] * k)
    parts = [part.region for part in cover.parts]
    return PartitionOfUnity(cover, [
        SupportedFormalFunction(whole.space, whole, k, trunc, {j0: c},
                                support=supp, plateau=plateau)
        for c, supp, plateau in whole.space.partition(whole.region, parts)])


def dual_function_family(space, domain: OpenSet, k: int, trunc: int,
                         xdeg_cap: int = 2):
    """Supported-function probes for densities and distributions: each
    probe of the space times each y^J. They are built without
    validation, so domain, k and trunc must be those of a section (as
    every caller here passes).
    """
    keys = enumerate_upto(k, trunc)
    return [SupportedFormalFunction._trusted(
                space, domain, k, {j: c}, trunc=trunc, support=supp,
                plateau=None)
            for c, supp in space.probes(domain.region, xdeg_cap)
            for j in keys]


def dual_density_family(space, domain: OpenSet, k: int, star_cap: int,
                        xdeg_cap: int = 2, stack_cap: int = 1):
    """Formal-density probes for generalized functions: each probe of
    the space as a density, times each (y*)^L, with each derivative
    stack up to stack_cap (a discrete space has only the empty one).
    They are built without validation, so domain and k must be those
    of a section.
    """
    keys = enumerate_upto(k, star_cap)
    stacks = enumerate_upto(space.ndim, stack_cap)
    out = []
    for c, supp in space.probes(domain.region, xdeg_cap):
        tau = BaseDensity._trusted(space, c, supp)
        out.extend(FormalDensity._trusted(space, domain, k, {l: ((i, tau),)})
                   for l in keys for i in stacks)
    return out


# -- functional comparison --------------------------------------------------------


def _apply_probe(obj, probe):
    """E-vector (as a list) of the functional read against one probe."""
    if isinstance(obj, FormalDensity):
        return [obj.pair(probe)]
    if isinstance(obj, (FormalDistribution, GeneralizedFunction)):
        return obj.apply(probe)
    raise TypeError("no probe application for %r" % type(obj).__name__)


def _vec_gap(va, vb) -> float:
    if len(va) != len(vb):
        raise DomainMismatchError("functionals with E_dim %d and %d are "
                                  "not comparable" % (len(va), len(vb)))
    return max((abs(complex(x) - complex(y)) for x, y in zip(va, vb)),
               default=0.0)


def functional_residual(a, b, probes):
    """Max probe disagreement and the witnessing probe (None if empty).

    Functionals of different E_dim raise DomainMismatchError.
    """
    worst, witness = 0.0, None
    for p in probes:
        gap = _vec_gap(_apply_probe(a, p), _apply_probe(b, p))
        if gap > worst:
            worst, witness = gap, p
    return worst, witness


def functional_zero_residual(a, probes):
    """Max probe magnitude and the witnessing probe."""
    worst, witness = 0.0, None
    for p in probes:
        gap = max((abs(complex(x)) for x in _apply_probe(a, p)), default=0.0)
        if gap > worst:
            worst, witness = gap, p
    return worst, witness


# -- Mayer-Vietoris -----------------------------------------------------------------


def mv_phi(eta1: FormalDensity, eta2: FormalDensity) -> FormalDensity:
    """phi(eta1, eta2) = ext(eta1) + ext(eta2) on the union."""
    u = eta1.domain.union(eta2.domain)
    return eta1.ext(u).add(eta2.ext(u))


def mv_psi(zeta: FormalDensity, u1: OpenSet, u2: OpenSet):
    """psi(zeta) = (ext to U1, -ext to U2) of a density on U1 n U2."""
    return zeta.ext(u1), zeta.ext(u2).scale(-1)


def mv_split(eta1: FormalDensity, eta2: FormalDensity,
             tol: float = DEFAULT_FUNCTIONAL_TOL) -> FormalDensity:
    """Split a Mayer-Vietoris kernel pair through the intersection.

    Precondition (verified against the spanning family on the union):
    ext(eta1) + ext(eta2) = 0. Returns eta' on V = U1 n U2 with
    ext_{U1,V}(eta') = eta1 and ext_{U2,V}(-eta') = eta2.
    """
    if eta1.space != eta2.space or eta1.k != eta2.k:
        raise DomainMismatchError("split partners do not match")
    space, k = eta1.space, eta1.k
    u1, u2 = eta1.domain, eta2.domain
    u = u1.union(u2)
    v = u1.intersect(u2)
    trunc = max(eta1.star_degree(), eta2.star_degree())

    total = mv_phi(eta1, eta2)
    resid, witness = functional_zero_residual(
        total, dual_function_family(space, u, k, trunc))
    if resid > tol:
        raise IncompatibilityError(
            "not a kernel pair: phi(eta1, eta2) has residual %g" % resid,
            first=0, second=1,
            probe=witness.to_json() if witness is not None else None,
            residual=resid)

    zero = FormalDensity.zero(space, v, k)
    kset = eta1.support() | eta2.support()
    if not kset:
        return zero
    if not kset <= v.region:
        raise SupportError("kernel supports are not confined to the "
                           "intersection")

    c, supp, plateau = space.cutoff_near(kset, v.region)
    if not supp <= u1.region:
        raise SupportError("cutoff support escapes the domain")
    g = SupportedFormalFunction(space, u1, k, trunc, {mi([0] * k): c},
                                support=supp, plateau=plateau)
    return eta1.cutoff_restrict(g, v)


# -- cosheaf decomposition ------------------------------------------------------------


def cosheaf_decompose(section, pou: PartitionOfUnity):
    """Localize a global section along the partition of unity.

    eta -> ((eta . f_a)|_{U_a})_a for formal densities and compactly
    supported distributions; u -> ((f_a u)|_{U_a})_a for supported
    functions. Reassembling with cosheaf_reassemble recovers the
    section.
    """
    out = []
    for f, part in zip(pou.functions, pou.cover.parts):
        if isinstance(section, FormalDensity):
            if section.domain != pou.cover.whole:
                raise DomainMismatchError("section does not live on the "
                                          "whole set")
            out.append(section.cutoff_restrict(f, part))
        elif isinstance(section, CompactFormalDistribution):
            if section.domain != pou.cover.whole:
                raise DomainMismatchError("section does not live on the "
                                          "whole set")
            acted = section.module_action(f)
            plain = FormalDistribution.restrict(acted, part)
            supp = f.support & section.support
            coeffs = {l: tuple(w.clip_bounds(supp) for w in vec)
                      for l, vec in plain.coeffs.items()}
            out.append(CompactFormalDistribution(
                section.space, part, section.k, section.e_dim, coeffs,
                support=supp))
        elif isinstance(section, SupportedFormalFunction):
            prod = cutoff_product(f, section)
            out.append(prod.restrict(part))
        else:
            raise TypeError("cannot decompose %r" % type(section).__name__)
    return out


def cosheaf_reassemble(locals_, m: OpenSet):
    """Sum of the extensions by zero of local sections over m."""
    total = None
    for loc in locals_:
        if isinstance(loc, FormalDensity):
            e = loc.ext(m)
        elif isinstance(loc, CompactFormalDistribution):
            e = loc.ext(m)
        elif isinstance(loc, SupportedFormalFunction):
            e = loc.extend_by_zero(m)
        else:
            raise TypeError("cannot reassemble %r" % type(loc).__name__)
        total = e if total is None else total.add(e)
    return total


# -- sheaf gluing -----------------------------------------------------------------------


def sheaf_glue(locals_, pou: PartitionOfUnity,
               tol: float = DEFAULT_FUNCTIONAL_TOL):
    """Glue compatible local functionals into a global one.

    locals_ are GeneralizedFunction or FormalDistribution sections on
    the cover parts, pairwise agreeing on overlaps (checked against the
    spanning family; IncompatibilityError carries the witness).
    The glued section is sum_a f_a . local_a read over the whole set.
    """
    cover = pou.cover
    locals_ = list(locals_)
    if len(locals_) != len(cover.parts):
        raise ValueError("one local section per cover part")
    space = cover.whole.space
    first = locals_[0]
    generalized = isinstance(first, GeneralizedFunction)
    for loc, part in zip(locals_, cover.parts):
        if isinstance(loc, GeneralizedFunction) != generalized:
            raise TypeError("mixed section kinds in one gluing")
        if loc.space != space or loc.domain != part:
            raise DomainMismatchError("local section does not live on its part")
        if loc.k != first.k or loc.e_dim != first.e_dim:
            raise DomainMismatchError("local sections disagree on k or E_dim")
    k, e_dim = first.k, first.e_dim

    if generalized:
        cap = min(loc.trunc for loc in locals_)
    else:
        cap = max(loc.star_degree() for loc in locals_)
    for a in range(len(locals_)):
        for b in range(a + 1, len(locals_)):
            w = cover.parts[a].intersect(cover.parts[b])
            if w.is_empty:
                continue
            ra, rb = locals_[a].restrict(w), locals_[b].restrict(w)
            if generalized:
                probes = dual_density_family(space, w, k, min(ra.trunc, rb.trunc))
            else:
                probes = dual_function_family(space, w, k, cap)
            resid, witness = functional_residual(ra, rb, probes)
            if resid > tol:
                raise IncompatibilityError(
                    "locals %d and %d disagree on their overlap "
                    "(residual %g)" % (a, b, resid), first=a, second=b,
                    probe=witness.to_json() if witness is not None else None,
                    residual=resid)

    m = cover.whole
    j0 = mi([0] * k)
    coeffs = {}
    for loc, f in zip(locals_, pou.functions):
        f0 = f.coeff(j0)
        for key, vec in loc.coeffs.items():
            if generalized and degree(key) > cap:
                continue
            coeffs[key] = vec_add(coeffs.get(key),
                                  tuple(w.mul_coeff(f0) for w in vec))
    if generalized:
        return GeneralizedFunction(space, m, k, cap, e_dim, coeffs)
    return FormalDistribution(space, m, k, e_dim, coeffs)


# -- flabbiness ---------------------------------------------------------------------------


def flabby_check(sections, u: OpenSet, tol: float = 0.0) -> bool:
    """Does extension by zero to u kill any nonzero family member?

    True when the kernel is trivial on the family: every section with
    nonzero data extends to a functional that some probe on u still
    sees (residual above tol). Functions extend data-identically and
    are checked structurally.
    """
    families = {}
    for z in sections:
        if isinstance(z, SupportedFormalFunction):
            if not z.is_exactly_zero() and z.extend_by_zero(u).is_exactly_zero():
                return False
            continue
        if not isinstance(z, (FormalDensity, CompactFormalDistribution)):
            raise TypeError("cannot flabby-check %r" % type(z).__name__)
        if z.is_exactly_zero():
            continue
        e = z.ext(u)
        shape = (z.k, z.star_degree())
        if shape not in families:
            families[shape] = dual_function_family(u.space, u, *shape)
        resid, _ = functional_zero_residual(e, families[shape])
        if resid <= tol:
            return False
    return True
