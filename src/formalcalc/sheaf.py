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
dual_density_family), which builds a probe section only when one is
asked for, in practice a failed check's witness. `probe_values` reads
sections at its probes by the reader of the space's type: off the
coefficients on a discrete space, by one batch of pairings per check on
the line (per stage for flabby_check, which reads the block of base
probe 0 first and the other blocks only for what it left unseen).
functional_residual reads no probe for two sections proved equal
(`_proves`, one rule for every space) once both pass the family's
checks: `==` sections, and distributions whose integral terms the space
proves equal (`proves_equal`), on the line a glued or reassembled
distribution against the section it came from.
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

import copy
import math
from collections.abc import Sequence
from functools import cached_property, reduce
from itertools import islice

from .basedensity import BaseDensity
from .densities import FormalDensity
from .distributions import (CompactFormalDistribution, FormalDistribution,
                            GeneralizedFunction, PointTerm, SmoothTerm,
                            _DualSection, vec_add)
from .errors import (CertificateError, DomainMismatchError,
                     IncompatibilityError, SupportError)
from .functions import SupportedFormalFunction, cutoff, read_pairings
from .multiindex import degree, enumerate_upto, mi, mi_factorial
from .scalars import QC, QC_ZERO
from .spaces import Discrete, OpenSet, SmoothLine, same

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
            if not same(p.space, whole.space):
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
    bump quotients build_pou makes, in any order, whose numerators sum
    to their one shared denominator; any other line partition
    (hand-built, scaled, or a single part) is sampled on a grid, within
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
            if not same(f.space, space) or f.domain != cover.whole:
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
    stack at n % width (keys in grlex order, stacks innermost). A probe
    section is built only when one is asked for, by index or iteration:
    on the line to be read (`probe_values`), on a discrete space in
    practice only as a failed check's witness.
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

    def blocks(self, bases: slice):
        """The family of the probes of the base probes in the slice
        `bases` (their blocks of width probes), numbered from 0."""
        view = copy.copy(self)
        view.base = self.base[bases]
        return view

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


# -- probe values -------------------------------------------------------------


def _read_discrete(space, reads):
    """The {probe position: E-vector} map of each (section, dual family)
    read, in order, read off the section's coefficients.

    The probes are the dual basis: probe (a, J), the indicator of label
    a times y^J (or the density at a times (y*)^J), reads J! times the
    weight at a of the section's J-th coefficient. Only positions where
    the section has a weight appear; the other probes read zero. Keys
    beyond the family's cap and labels outside its base probes are read
    by no probe.
    """
    maps = []
    for section, family in reads:
        at = {p: n * family.width
              for n, (c, _) in enumerate(family.base) for p in c}
        e_dim, out = section.e_dim, {}
        for j, vec in section.weight_vectors():
            if j in family.key_offset:
                f, off = mi_factorial(j), family.key_offset[j]
                for comp, weights in enumerate(vec):
                    for p in weights.keys() & at.keys():
                        vals = out.setdefault(at[p] + off, [QC_ZERO] * e_dim)
                        vals[comp] = weights[p] * f
        maps.append(out)
    return maps


def _read_line(space, reads):
    """An iterator over the {probe position: E-vector} map of each
    (section, dual family) read, in order: each family's probes built
    once, and the pairings of every read made as one batch
    (`read_pairings`), so that the integrals of every section a check
    reads against its family are made one program per range. A map is
    summed, and a failed integral of it raised, when the iterator
    reaches it."""
    probes = {}
    for _, family in reads:
        if family not in probes:
            probes[family] = list(family)
    vecs = read_pairings(space, [section.pairing(p) for section, family
                                 in reads for p in probes[family]])
    return (dict(enumerate(islice(vecs, len(probes[family]))))
            for _, family in reads)


_PROBE_READERS = {Discrete: _read_discrete, SmoothLine: _read_line}


def probe_values(space, reads):
    """The {probe position: E-vector} map of each checked (section, dual
    family) read, in order, a position left out reading zero."""
    return _PROBE_READERS[type(space)](space, reads)


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


def _proves(a, b) -> bool:
    """a == b, or distribution sections of one kind, domain, k and key set
    whose point terms pair up by (a, i) with no gap between their scalars
    and whose integral terms the space proves equal (`proves_equal`)."""
    if a == b:
        return True
    if type(a) is not type(b) or not isinstance(a, _DualSection) \
            or (a.domain, a.k, a.coeffs.keys()) != (b.domain, b.k, b.coeffs.keys()):
        return False
    for j, vec in a.coeffs.items():
        for entries in zip(vec, b.coeffs[j]):
            (sa, pa), (sb, pb) = (
                ([(t.g, t.bound) for t in w.terms if type(t) is SmoothTerm],
                 [t for t in w.terms if type(t) is PointTerm]) for w in entries)
            if [(t.a, t.i) for t in pa] != [(t.a, t.i) for t in pb] \
                    or max_gap([t.c for t in pa], [t.c for t in pb]) \
                    or not a.space.proves_equal(sa, sb, a.domain.region):
                return False
    return True


def functional_residual(a, b, family):
    """Max probe disagreement over a dual family (from
    dual_function_family or dual_density_family) and the witnessing
    probe (None if there is none): the first probe, in family order,
    with the largest gap.

    Functionals of different E_dim raise DomainMismatchError, whatever
    the family. Sections the space proves equal (`_proves`), once both
    are checked against the family, read (0.0, None) without a probe.
    """
    if a.e_dim != b.e_dim:
        raise DomainMismatchError("functionals with E_dim %d and %d are "
                                  "not comparable" % (a.e_dim, b.e_dim))
    family.check(a)
    family.check(b)
    if _proves(a, b):
        return 0.0, None
    va, vb = probe_values(family.space, [(a, family), (b, family)])
    return _worst(family, va, vb, a.e_dim)


def functional_zero_residual(a, family):
    """Max probe magnitude over a dual family and the witnessing probe;
    an exactly zero section, once checked against the family, reads
    (0.0, None) without a probe."""
    family.check(a)
    if a.is_exactly_zero():
        return 0.0, None
    va, = probe_values(family.space, [(a, family)])
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
    if not same(eta1.space, eta2.space) or eta1.k != eta2.k:
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
        if not same(loc.space, space) or loc.domain != part:
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
    sees (residual above tol). A function's ext keeps its nonzero
    coefficients, so it is called only for its refusals. Every section
    is extended and checked against the family of its shape first, in
    order, so a refusal comes out before any section is decided.

    The probes are then read in two stages, one batch each: the block
    of base probe 0 of every section, then the other blocks of those
    the first did not see, up to the first whose read raised. So a
    section is seen, unseen, or has the error of a read it reached, and
    the first one not seen, in order, raises its error or makes the
    check False. A section seen by its first block makes no later
    integral, so none of those can raise.
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
    unseen, error = reads, None
    for bases in (slice(1), slice(1, None)):
        if unseen:
            unseen, failed = _unseen(u.space, unseen, bases, tol)
            error = failed or error
    if unseen:
        return False
    if error is not None:
        raise error
    return True


def _unseen(space, reads, bases, tol):
    """The (section, dual family) reads that the probes of the base
    probes in the slice `bases` do not see (residual at most tol), in
    order, up to the first whose read raised, and that read's error
    (None when none raised): one batch of probe values."""
    block = {f: f.blocks(bases) for f in dict.fromkeys(f for _, f in reads)}
    values = iter(probe_values(space, [(e, block[f]) for e, f in reads]))
    unseen = []
    for e, family in reads:
        try:
            got = next(values)
        except Exception as exc:  # decided in section order by the caller
            return unseen, exc
        if _worst(block[family], got, {}, e.e_dim)[0] <= tol:
            unseen.append((e, family))
    return unseen, None
