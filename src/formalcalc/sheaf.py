"""Covers, partitions of unity, and sheaf/cosheaf verifications.

Every construction is stated once, for every base space and every
section kind. The space supplies its ingredients as base data
(coefficients and regions) and this module builds the formal sections
from them. They are the probes that functional equality is decided
against (the finite dual basis on a discrete space, complete and
exact; a fixed catalogue of bump x polynomial probes on the line, sound
for the classes this package builds, not for arbitrary functionals),
the coefficients of a partition of unity (first-match indicators, or
bump quotients whose shared denominator is certified positive), a
cutoff that is one near a support, and the check that a partition sums
to one. Each compactly supported kind owns its cosheaf steps: `ext`
(extension by zero) and `cutoff_restrict` (times a cutoff, restricted).

Functionals are compared over a dual family (dual_function_family,
dual_density_family), which knows its shape and builds a probe section
only when one is asked for: in practice the witness a failed check
reports. The space reads a section's value at each probe
(`probe_values`). On a discrete space the probes are the dual basis, so
the values come off the section's coefficient table (the probe
1_a . y^J reads J! times the weight at a of the J-th coefficient) and
two sections are compared only where either carries a weight; on the
line each probe is built, the section states its pairing with each as
terms, and the integrals of every section a check reads against its
family are made in one batch, one compiled program per integration
range (`functions.read_pairings`). A check (functional_residual,
functional_zero_residual, flabby_check, and sheaf_glue and mv_split
through them) integrates each distinct integral once, however often its
probes and sections repeat it; functional_residual reads two `==`
sections, once both pass the family's checks, as 0.0 without a probe.
The constructions:

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

import math
from collections.abc import Sequence
from functools import cached_property, reduce

from .basedensity import BaseDensity
from .densities import FormalDensity
from .distributions import (CompactFormalDistribution, FormalDistribution,
                            GeneralizedFunction, vec_add)
from .errors import (CertificateError, DomainMismatchError,
                     IncompatibilityError, SupportError)
from .functions import SupportedFormalFunction, cutoff
from .multiindex import degree, enumerate_upto, mi
from .quadrature import shares_integrals
from .scalars import QC, QC_ZERO
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



class PartitionOfUnity:
    """Functions subordinate to a cover that sum to one.

    Every function is constant in y (only the zero y-index carries a
    coefficient). The space's unit_gap checks the sum identity: exactly
    on a discrete space. On the line it is proved, not sampled, for the
    bump quotients build_pou makes, whose numerators sum to their one
    shared denominator; any other line partition (hand-built,
    reordered, scaled, or a single part) is sampled on a grid, within
    POU_GRID_TOL.
    """

    def __init__(self, cover: Cover, functions):
        functions = list(functions)
        if len(functions) != len(cover.parts):
            raise ValueError("one function per cover part, got %d for %d"
                             % (len(functions), len(cover.parts)))
        space = cover.whole.space
        j0 = mi([0] * functions[0].k)
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
        self.grid_residual = space.unit_gap([f.coeff(j0) for f in functions],
                                            cover.whole.region)
        if self.grid_residual > POU_GRID_TOL:
            raise CertificateError("partition sum deviates from one by %g"
                                   % self.grid_residual)

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


class _ProbeFamily(Sequence):
    """A dual family known by its shape: space, domain, k, the cap on
    its keys, the x-degree cap and the derivative stacks.

    Probe n is the space's base probe n // width times the key and the
    stack at n % width (keys in grlex order, stacks innermost). The
    space reads every section a check reads against its family at all
    probes at once (`values`); a probe section is built only when one
    is asked for, by index or iteration: on the line for that read, and
    on a discrete space in practice only as the witness of a failed
    check.
    """

    def __init__(self, space, domain: OpenSet, k: int, cap: int,
                 xdeg_cap: int, stacks):
        self.space, self.domain, self.k, self.cap = space, domain, k, cap
        self.xdeg_cap, self.stacks = xdeg_cap, stacks
        self.keys = enumerate_upto(k, cap)
        self.width = len(self.keys) * len(stacks)
        # where each key's first probe sits in the block of a base probe
        self.key_offset = {j: n * len(stacks) for n, j in enumerate(self.keys)}

    @cached_property
    def base(self):
        """(coefficient, support) of each probe of the space."""
        return self.space.probes(self.domain.region, self.xdeg_cap)

    def __len__(self):
        return len(self.base) * self.width

    def __bool__(self):
        # without building `base`: a space has probes over every
        # nonempty region
        return bool(self.width and self.domain.region)

    def __getitem__(self, n):
        b, r = divmod(range(len(self))[n], self.width)
        j, i = divmod(r, len(self.stacks))
        return self._probe(*self.base[b], self.keys[j], self.stacks[i])

    def check(self, section):
        """Raise what pairing the section with the probes raises:
        TypeError for a section that reads no probe of this kind,
        DomainMismatchError, TruncationError. An empty family reads
        nothing and raises nothing."""
        if not self:
            return
        if not isinstance(section, self.readers):
            raise TypeError("no probe application for %r"
                            % type(section).__name__)
        self._check_partner(section)

    def values(self, *sections):
        """The {probe position: E-vector} map of each checked section, in
        order, a position left out reading zero: every section a check
        reads against its family, read by the space as one batch
        (`probe_values`)."""
        return self.space.probe_values([(s, self) for s in sections])


class _FunctionProbes(_ProbeFamily):
    """Supported functions c * y^J, truncated at the cap."""

    readers = (FormalDensity, FormalDistribution)

    def __init__(self, space, domain, k, cap, xdeg_cap):
        super().__init__(space, domain, k, cap, xdeg_cap, ((),))
        self.trunc = cap

    def _probe(self, c, supp, j, _):
        return SupportedFormalFunction._trusted(
            self.space, self.domain, self.k, {j: c}, trunc=self.cap,
            support=supp, plateau=None)

    def _check_partner(self, section):
        section._check_partner(self, section.star_degree())


class _DensityProbes(_ProbeFamily):
    """Formal densities (c . d_x^I)(y*)^L."""

    readers = (GeneralizedFunction,)

    def _probe(self, c, supp, l, i):
        tau = BaseDensity._trusted(self.space, c, supp)
        return FormalDensity._trusted(self.space, self.domain, self.k,
                                      {l: ((i, tau),)})

    def _check_partner(self, section):
        # each probe checks the section as its partner, in key order, so
        # the first to fail is one of degree trunc + 1
        FormalDensity._trusted(self.space, self.domain, self.k, {}) \
            ._check_partner(section, min(self.cap, section.trunc + 1))


def dual_function_family(space, domain: OpenSet, k: int, trunc: int,
                         xdeg_cap: int = 2):
    """Supported-function probes for densities and distributions: each
    probe of the space times each y^J. They are built without
    validation, so domain, k and trunc must be those of a section (as
    every caller here passes).
    """
    return _FunctionProbes(space, domain, k, trunc, xdeg_cap)


def dual_density_family(space, domain: OpenSet, k: int, star_cap: int,
                        xdeg_cap: int = 2, stack_cap: int = 1):
    """Formal-density probes for generalized functions: each probe of
    the space as a density, times each (y*)^L, with each derivative
    stack up to stack_cap (a discrete space has only the empty one).
    They are built without validation, so domain and k must be those
    of a section.
    """
    return _DensityProbes(space, domain, k, star_cap, xdeg_cap,
                          enumerate_upto(space.ndim, stack_cap))


# -- functional comparison --------------------------------------------------------


def _gap(x, y) -> float:
    """|x - y| of two unequal values as a float. Two exact values never
    read as 0.0 apart: where their floats coincide the gap is the exact
    difference, or the least positive float if even that underflows."""
    gap = abs(complex(x) - complex(y))
    if gap or not (isinstance(x, QC) and isinstance(y, QC)):
        return gap
    return abs(complex(x - y)) or math.ulp(0.0)


def max_gap(xs, ys) -> float:
    """The largest gap between paired values, 0.0 when every pair is
    equal. Only an unequal pair is converted to complex."""
    return max((_gap(x, y) for x, y in zip(xs, ys) if x != y), default=0.0)


def _worst(family, va, vb, e_dim):
    """The largest gap between two value maps of the family and the
    first probe that reaches it (None when no gap is positive)."""
    zero = [QC_ZERO] * e_dim
    worst, at = 0.0, None
    for n in sorted(va.keys() | vb.keys()):
        gap = max_gap(va.get(n, zero), vb.get(n, zero))
        if gap > worst:
            worst, at = gap, n
    return worst, None if at is None else family[at]


@shares_integrals
def functional_residual(a, b, family):
    """Max probe disagreement over a dual family (from
    dual_function_family or dual_density_family) and the witnessing
    probe (None if there is none): the first probe, in family order,
    with the largest gap.

    Functionals of different E_dim raise DomainMismatchError, whatever
    the family. Equal sections, once both are checked against the
    family, read (0.0, None) without a probe value.
    """
    if a.e_dim != b.e_dim:
        raise DomainMismatchError("functionals with E_dim %d and %d are "
                                  "not comparable" % (a.e_dim, b.e_dim))
    family.check(a)
    family.check(b)
    if a == b:
        return 0.0, None
    va, vb = family.values(a, b)
    return _worst(family, va, vb, a.e_dim)


@shares_integrals
def functional_zero_residual(a, family):
    """Max probe magnitude over a dual family and the witnessing probe."""
    family.check(a)
    va, = family.values(a)
    return _worst(family, va, {}, a.e_dim)


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

    g = cutoff(space, u1, k, trunc, *space.cutoff_near(kset, v.region))
    return eta1.cutoff_restrict(g, v)


# -- cosheaf decomposition ------------------------------------------------------------


def _compact(section, verb):
    """section, refused with TypeError unless it extends by zero."""
    if not isinstance(section, (FormalDensity, SupportedFormalFunction,
                                CompactFormalDistribution)):
        raise TypeError("cannot %s %r" % (verb, type(section).__name__))
    return section


def cosheaf_decompose(section, pou: PartitionOfUnity):
    """Localize a global section along the partition of unity.

    eta -> ((eta . f_a)|_{U_a})_a for formal densities and compactly
    supported distributions; u -> ((f_a u)|_{U_a})_a for supported
    functions. Reassembling with cosheaf_reassemble recovers the
    section.
    """
    if _compact(section, "decompose").domain != pou.cover.whole:
        raise DomainMismatchError("section does not live on the whole set")
    return [section.cutoff_restrict(f, part)
            for f, part in zip(pou.functions, pou.cover.parts)]


def cosheaf_reassemble(locals_, m: OpenSet):
    """Sum of the extensions by zero of local sections over m."""
    exts = [_compact(loc, "reassemble").ext(m) for loc in locals_]
    return reduce(lambda total, e: total.add(e), exts) if exts else None


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


@shares_integrals
def flabby_check(sections, u: OpenSet, tol: float = 0.0) -> bool:
    """Does extension by zero to u kill any nonzero family member?

    True when the kernel is trivial on the family: every section with
    nonzero data extends to a functional that some probe on u still
    sees (residual above tol). A function's ext keeps its nonzero
    coefficients, so it is called only for its refusals. Every section
    is extended and checked against the family of its shape first, in
    order, so a refusal comes out before any section is decided; then
    the reads of all of them are made as one batch, and the sections
    are decided in order, each raising what its read raises.
    """
    families, reads = {}, []
    for z in sections:
        if _compact(z, "flabby-check").is_exactly_zero():
            continue
        if isinstance(z, SupportedFormalFunction):
            z.ext(u)
            continue
        e = z.ext(u)
        shape = (z.k, z.star_degree())
        if shape not in families:
            families[shape] = dual_function_family(u.space, u, *shape)
        families[shape].check(e)
        reads.append((e, families[shape]))
    for (e, family), values in zip(reads, u.space.probe_values(reads)):
        if _worst(family, values, {}, e.e_dim)[0] <= tol:
            return False
    return True
