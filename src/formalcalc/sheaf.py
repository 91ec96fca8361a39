"""Covers, partitions of unity, and sheaf/cosheaf verifications.

The constructive content lives here:

* build_pou: partitions of unity subordinate to a finite cover. On the
  discrete backend these are first-match indicators, exact by
  construction. On the smooth line each part gets a sum of plateau
  bumps confined to its pieces, every function is the quotient of its
  bump by the shared denominator S = sum of all bumps, and S is proven
  strictly positive on the whole set by interval bisection before any
  quotient node is built.

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

Functional equality is decided against documented spanning families:
the finite dual basis on the discrete backend (complete, exact), and a
fixed catalogue of bump x polynomial x y-monomial probes on the smooth
line (sound for the classes this package builds, not for arbitrary
functionals).
"""

from __future__ import annotations

from fractions import Fraction

from .basedensity import BaseDensity
from .densities import FormalDensity
from .distributions import (CompactFormalDistribution, FormalDistribution,
                            GeneralizedFunction, vec_add)
from .errors import (CertificateError, DomainMismatchError,
                     IncompatibilityError, SupportError)
from .expr import ONE, X, add, bump, div, ev, mul, pow_, rising_edge, \
    falling_edge
from .functions import (SupportedFormalFunction, bump_cutoff, cutoff_product,
                        indicator_cutoff)
from .multiindex import degree, enumerate_upto, mi
from .scalars import QC
from .spaces import NEG_INF, POS_INF, OpenSet, RSet

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
    coefficient). The sum identity is checked exactly on the discrete
    backend and on a sample grid (within POU_GRID_TOL) on the smooth
    line; the construction in build_pou additionally makes it an
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
        space = self.cover.whole.space
        k = self.functions[0].k
        j0 = mi([0] * k)
        if space.kind == "discrete":
            acc = {}
            for f in self.functions:
                for p, v in f.coeff(j0).items():
                    acc[p] = acc.get(p, QC(0)) + v
            ok = all(acc.get(p, QC(0)) == QC(1) for p in self.cover.whole.region) \
                and set(acc) <= self.cover.whole.region
            return 0.0 if ok else 1.0
        worst = 0.0
        exprs = [f.coeff(j0) for f in self.functions]
        for a in space.sample_points(self.cover.whole.region):
            total = sum(complex(ev(e, a)) for e in exprs)
            worst = max(worst, abs(total - 1))
        return worst

    def __repr__(self):
        return "PartitionOfUnity(%d parts, grid_residual=%g)" % (
            len(self.functions), self.grid_residual)


# -- partition construction ------------------------------------------------------


def _lo_treatment(m_rs: RSet, lo, delta: Fraction):
    """Factor and bookkeeping for the lower end of a part piece.

    Returns (factor expr or None, positivity bound, support bound,
    support-closed flag). Bounds pair with open/closed flags for the
    RSet pieces built by the caller.
    """
    if lo == NEG_INF:
        return None, NEG_INF, NEG_INF, True
    if m_rs.contains(lo):
        return (rising_edge(lo + delta / 2, lo + delta),
                lo + delta / 2, lo + delta / 2, False)
    below = [hi2 for _, hi2, _, _ in m_rs.pieces
             if hi2 != POS_INF and hi2 <= lo]
    if not below:
        return None, lo, lo, True
    gap = lo - max(below)
    if gap > 0:
        return rising_edge(lo - gap / 2, lo), lo, lo, True
    return rising_edge(lo, lo + delta), lo, lo, True


def _hi_treatment(m_rs: RSet, hi, delta: Fraction):
    if hi == POS_INF:
        return None, POS_INF, POS_INF, True
    if m_rs.contains(hi):
        return (falling_edge(hi - delta, hi - delta / 2),
                hi - delta / 2, hi - delta / 2, False)
    above = [lo2 for lo2, _, _, _ in m_rs.pieces
             if lo2 != NEG_INF and lo2 >= hi]
    if not above:
        return None, hi, hi, True
    gap = min(above) - hi
    if gap > 0:
        return falling_edge(hi, hi + gap / 2), hi, hi, True
    return falling_edge(hi - delta, hi), hi, hi, True


def _part_bumps(m_rs: RSet, part: OpenSet, delta: Fraction):
    """Bump sum for one part: (expr or None, positivity RSet, support RSet)."""
    expr = None
    pos = RSet()
    supp = RSet()
    for lo, hi, _, _ in part.region.pieces:
        rise, plo, slo, slo_open = _lo_treatment(m_rs, lo, delta)
        fall, phi, shi, shi_open = _hi_treatment(m_rs, hi, delta)
        if rise is not None and fall is not None:
            b = mul(rise, fall)
        elif rise is not None:
            b = rise
        elif fall is not None:
            b = fall
        else:
            b = ONE
        expr = b if expr is None else add(expr, b)
        pos = pos.union(RSet([(plo, phi, True, True)]))
        supp = supp.union(RSet([(slo, shi, slo_open, shi_open)]))
    return expr, pos, supp


def build_pou(cover: Cover, k: int, trunc: int) -> PartitionOfUnity:
    """Construct a partition of unity subordinate to the cover.

    Discrete: each point is assigned to the first part containing it
    (first-match rule); the functions are exact indicators.

    SmoothLine: per-part plateau bumps shrunk by an automatically
    chosen margin, divided by the certified-positive shared sum.
    Raises CertificateError when no margin yields a covering family or
    the positivity certificate fails.
    """
    space = cover.whole.space
    if space.kind == "discrete":
        assigned = set()
        functions = []
        for part in cover.parts:
            labels = part.region - assigned
            assigned |= labels
            functions.append(indicator_cutoff(space, cover.whole, k, trunc,
                                              labels))
        return PartitionOfUnity(cover, functions)

    m_rs = cover.whole.region
    j0 = mi([0] * k)
    if len(cover.parts) == 1:
        f = SupportedFormalFunction(space, cover.whole, k, trunc, {j0: ONE},
                                    support=m_rs, plateau=m_rs)
        return PartitionOfUnity(cover, [f])

    endpoints = set()
    for part in list(cover.parts) + [cover.whole]:
        for lo, hi, _, _ in part.region.pieces:
            if lo != NEG_INF:
                endpoints.add(lo)
            if hi != POS_INF:
                endpoints.add(hi)
    eps = sorted(endpoints)
    diffs = [b - a for a, b in zip(eps, eps[1:]) if b > a]
    delta0 = min(diffs) / 4 if diffs else Fraction(1)

    built = None
    delta = delta0
    for _ in range(40):
        data = [_part_bumps(m_rs, part, delta) for part in cover.parts]
        covered = RSet()
        for _, pos, _ in data:
            covered = covered.union(pos)
        if m_rs.is_subset(covered):
            built = data
            break
        delta = delta / 2
    if built is None:
        raise CertificateError("no shrinking margin makes the bumps cover "
                               "the whole set")

    s_expr = None
    for b, _, _ in built:
        if b is not None:
            s_expr = b if s_expr is None else add(s_expr, b)
    if s_expr is None:
        raise CertificateError("cover admits no bumps at all")

    functions = []
    for idx, (b, _, supp) in enumerate(built):
        if b is None:
            f = SupportedFormalFunction(space, cover.whole, k, trunc, {},
                                        support=RSet(), plateau=RSet())
            functions.append(f)
            continue
        f_expr = div(b, s_expr, region=m_rs)
        others = RSet()
        for jdx, (_, _, osupp) in enumerate(built):
            if jdx != idx:
                others = others.union(osupp)
        plateau = supp.difference(others)
        f = SupportedFormalFunction(space, cover.whole, k, trunc,
                                    {j0: f_expr}, support=supp,
                                    plateau=plateau)
        functions.append(f)
    return PartitionOfUnity(cover, functions)


# -- spanning probe families ---------------------------------------------------


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


def _window_bump(wlo: Fraction, whi: Fraction):
    w = whi - wlo
    return bump(wlo, wlo + w / 4, whi - w / 4, whi)


def dual_function_family(space, domain: OpenSet, k: int, trunc: int,
                         xdeg_cap: int = 2):
    """Supported-function probes for densities and distributions.

    Discrete: the complete dual basis (delta at p times y^J), making
    probe equality decide functional equality exactly. SmoothLine: a
    catalogue of bump x x^e x y^J sections over fixed windows in each
    piece; sound for the coefficient classes this package constructs.
    The discrete probes are built without validation, so domain, k and
    trunc must be those of a section (as every caller here passes).
    """
    out = []
    if space.kind == "discrete":
        one, keys = QC(1), enumerate_upto(k, trunc)
        for p in sorted(domain.region):
            support = space.point_region(p)
            for j in keys:
                out.append(SupportedFormalFunction._trusted(
                    space, domain, k, {j: {p: one}}, trunc=trunc,
                    support=support, plateau=None))
        return out
    for lo, hi, _, _ in domain.region.pieces:
        for wlo, whi in _probe_windows(lo, hi):
            bexpr, supp, _ = _window_bump(wlo, whi)
            for e in range(xdeg_cap + 1):
                expr = mul(bexpr, pow_(X, e)) if e else bexpr
                for j in enumerate_upto(k, trunc):
                    out.append(SupportedFormalFunction(
                        space, domain, k, trunc, {j: expr}, support=supp))
    return out


def dual_density_family(space, domain: OpenSet, k: int, star_cap: int,
                        xdeg_cap: int = 2, stack_cap: int = 1):
    """Formal-density probes for generalized functions.

    Discrete: delta densities at each point times (y*)^L — the complete
    dual basis. SmoothLine: bump x x^e coefficient densities with
    derivative stacks up to stack_cap. The discrete probes are built
    without validation, so domain and k must be those of a section.
    """
    out = []
    if space.kind == "discrete":
        keys = enumerate_upto(k, star_cap)
        for p in sorted(domain.region):
            tau = BaseDensity._trusted(space, {p: QC(1)}, None)
            for l in keys:
                out.append(FormalDensity._trusted(space, domain, k,
                                                  {l: (((), tau),)}))
        return out
    for lo, hi, _, _ in domain.region.pieces:
        for wlo, whi in _probe_windows(lo, hi):
            bexpr, supp, _ = _window_bump(wlo, whi)
            for e in range(xdeg_cap + 1):
                expr = mul(bexpr, pow_(X, e)) if e else bexpr
                tau = BaseDensity.smooth(space, expr, supp)
                for l in enumerate_upto(k, star_cap):
                    for i in range(stack_cap + 1):
                        out.append(FormalDensity.monomial(
                            space, domain, k, l, tau, i=(i,)))
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
    return max((abs(complex(x) - complex(y)) for x, y in zip(va, vb)),
               default=0.0)


def functional_residual(a, b, probes):
    """Max probe disagreement and the witnessing probe (None if empty)."""
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

    if space.kind == "discrete":
        g = indicator_cutoff(space, u1, k, trunc, kset)
        return eta1.cutoff_restrict(g, v)

    klo, khi = kset.hull()
    home = None
    for lo, hi, _, _ in v.region.pieces:
        if lo < klo and khi < hi:
            home = (lo, hi)
            break
    if home is None:
        raise SupportError("kernel support hull spans a gap of the "
                           "intersection")
    lo, hi = home
    gl = Fraction(1) if lo == NEG_INF else klo - lo
    gr = Fraction(1) if hi == POS_INF else hi - khi
    g = bump_cutoff(space, u1, k, trunc,
                    klo - gl / 2, klo - gl / 4, khi + gr / 4, khi + gr / 2)
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
        probes = dual_function_family(z.space, u, z.k, z.star_degree())
        resid, _ = functional_zero_residual(e, probes)
        if resid <= tol:
            return False
    return True
