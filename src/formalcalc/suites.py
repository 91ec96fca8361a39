"""Seeded property suites behind the check command.

Every suite draws its instances from random.Random(seed) (the stdlib
Mersenne Twister), so a (scenario, seed) pair reproduces the same
report byte for byte. Reports are plain dicts:

    {"suite": name, "checks": n, "failures": [witnesses],
     "max_residual": float, "pass": bool}

Each suite run counts its checks in one _Tally, which builds the
report. On the discrete backend every comparison is exact (threshold
0); on the smooth line residuals are compared against the caller's
tolerance.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .basedensity import BaseDensity
from .densities import FormalDensity
from .distributions import (BaseDistribution, CompactFormalDistribution,
                            FormalDistribution, GeneralizedFunction,
                            PointTerm, SmoothTerm, cutoff_extend,
                            dist_space_dimension, jet_kernel_check,
                            normalized_monomial, point_basis)
from .errors import FormalcalcError
from .expr import Const, X, add, mul, pow_, window_bump
from .functions import FormalFunction, SupportedFormalFunction, cutoff
from .multiindex import degree, enumerate_upto, mi
from .scalars import QC
from .sheaf import (Cover, build_pou, cosheaf_decompose,
                    cosheaf_reassemble, dual_density_family,
                    dual_function_family, flabby_check, functional_residual,
                    functional_zero_residual, max_gap, mv_phi, mv_psi,
                    mv_split, sheaf_glue)
from .spaces import NEG_INF, OpenSet, POS_INF, RSet

SUITE_NAMES = ("mv", "glue", "cosheaf", "flabby", "duality", "jets")


class _Tally:
    """The checks of one suite run, its failure witnesses and its worst
    residual. A residual check passes at or below the threshold thr; an
    exact check holds or fails, and leaves max_residual alone."""

    def __init__(self, thr=0.0):
        self.thr, self.checks, self.failures, self.worst = thr, 0, [], 0.0

    def residual(self, r, **witness):
        self.checks += 1
        self.worst = max(self.worst, r)
        if r > self.thr:
            self.failures.append({**witness, "residual": r})

    def exact(self, ok, checks=1, residual=None, **witness):
        self.checks += checks
        if not ok:
            self.failures.append({**witness, "residual": residual})

    def report(self, name):
        return {"suite": name, "checks": self.checks,
                "failures": self.failures, "max_residual": self.worst,
                "pass": not self.failures}


# -- random instance generators ------------------------------------------------


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def rand_qc(rng: random.Random) -> QC:
    if rng.randint(0, 1):
        return QC(rand_fraction(rng), rand_fraction(rng))
    return QC(rand_fraction(rng))


def rand_weights(rng, labels):
    out = {}
    for p in sorted(labels):
        if rng.randint(0, 2):
            v = rand_qc(rng)
            if v:
                out[p] = v
    return out


def rand_poly(rng, deg: int = 2):
    e = Const(rand_qc(rng))
    for d in range(1, deg + 1):
        if rng.randint(0, 1):
            e = add(e, mul(Const(rand_qc(rng)), pow_(X, d)))
    return e


def _bounded_box(domain: OpenSet):
    """A bounded (lo, hi) window inside the first piece of a smooth set."""
    lo, hi, _, _ = domain.region.pieces[0]
    if lo == NEG_INF and hi == POS_INF:
        return Fraction(-2), Fraction(2)
    if lo == NEG_INF:
        return hi - 4, Fraction(hi)
    if hi == POS_INF:
        return Fraction(lo), lo + 4
    return Fraction(lo), Fraction(hi)


def rand_window(rng, lo: Fraction, hi: Fraction):
    w = hi - lo
    i = rng.randint(1, 4)
    j = rng.randint(i + 2, 7)
    return lo + w * Fraction(i, 8), lo + w * Fraction(j, 8)


def rand_smooth_tau(rng, space, lo, hi) -> BaseDensity:
    bexpr, supp, _ = window_bump(*rand_window(rng, lo, hi))
    return BaseDensity.smooth(space, mul(bexpr, rand_poly(rng)), supp)


def rand_density(rng, space, domain, k, star) -> FormalDensity:
    """Compactly supported formal density with random coefficients."""
    coeffs = {}
    if space.kind == "discrete":
        for l in enumerate_upto(k, star):
            if rng.randint(0, 1):
                w = rand_weights(rng, domain.region)
                if w:
                    coeffs[mi(l)] = ((mi(()), BaseDensity.discrete(space, w)),)
    else:
        lo, hi = _bounded_box(domain)
        for l in enumerate_upto(k, star):
            if rng.randint(0, 1):
                terms = []
                for _ in range(rng.randint(1, 2)):
                    stack = mi((rng.randint(0, 1),))
                    terms.append((stack, rand_smooth_tau(rng, space, lo, hi)))
                coeffs[mi(l)] = tuple(terms)
    return FormalDensity(space, domain, k, coeffs)


def rand_function(rng, space, domain, k, trunc) -> FormalFunction:
    coeffs = {}
    for j in enumerate_upto(k, trunc):
        if rng.randint(0, 2):
            if space.kind == "discrete":
                c = rand_weights(rng, domain.region)
                if c:
                    coeffs[mi(j)] = c
            else:
                coeffs[mi(j)] = rand_poly(rng)
    return FormalFunction(space, domain, k, trunc, coeffs)


def rand_supported_function(rng, space, domain, k, trunc):
    if space.kind == "discrete":
        pts = sorted(domain.region)
        support = {p for p in pts if rng.randint(0, 1)} or {pts[0]}
        coeffs = {}
        for j in enumerate_upto(k, trunc):
            if rng.randint(0, 2):
                c = {p: rand_qc(rng) for p in sorted(support) if rng.randint(0, 1)}
                c = {p: v for p, v in c.items() if v}
                if c:
                    coeffs[mi(j)] = c
        return SupportedFormalFunction(space, domain, k, trunc, coeffs,
                                       support=frozenset(support))
    lo, hi = _bounded_box(domain)
    bexpr, supp, _ = window_bump(*rand_window(rng, lo, hi))
    coeffs = {mi([0] * k): mul(bexpr, rand_poly(rng))}
    for j in enumerate_upto(k, trunc):
        if degree(j) and rng.randint(0, 1):
            coeffs[mi(j)] = mul(bexpr, rand_poly(rng))
    return SupportedFormalFunction(space, domain, k, trunc, coeffs,
                                   support=supp)


def _rand_base_distribution(rng, space, domain, window=None):
    if space.kind == "discrete":
        return BaseDistribution(space, weights=rand_weights(rng, domain.region))
    terms = []
    if window is not None:
        wlo, whi = window
        bexpr, bsupp, _ = window_bump(wlo, whi)
        terms.append(SmoothTerm(mul(bexpr, rand_poly(rng)), bsupp))
        if rng.randint(0, 1):
            a = wlo + (whi - wlo) * Fraction(rng.randint(2, 6), 8)
            terms.append(PointTerm(a, rng.randint(0, 1), rand_qc(rng)))
    else:
        terms.append(SmoothTerm(rand_poly(rng)))
        lo, hi = _bounded_box(domain)
        if rng.randint(0, 1):
            a = lo + (hi - lo) * Fraction(rng.randint(1, 7), 8)
            terms.append(PointTerm(a, rng.randint(0, 1), rand_qc(rng)))
    return BaseDistribution(space, terms=terms)


def rand_distribution(rng, space, domain, k, star, e_dim) -> FormalDistribution:
    coeffs = {}
    for l in enumerate_upto(k, star):
        if rng.randint(0, 1):
            coeffs[mi(l)] = tuple(_rand_base_distribution(rng, space, domain)
                                  for _ in range(e_dim))
    return FormalDistribution(space, domain, k, e_dim, coeffs)


def rand_compact_distribution(rng, space, domain, k, star, e_dim):
    if space.kind == "discrete":
        pts = sorted(domain.region)
        support = {p for p in pts if rng.randint(0, 1)} or {pts[0]}
        coeffs = {}
        for l in enumerate_upto(k, star):
            if rng.randint(0, 1):
                coeffs[mi(l)] = tuple(
                    BaseDistribution(space, weights=rand_weights(rng, support))
                    for _ in range(e_dim))
        return CompactFormalDistribution(space, domain, k, e_dim, coeffs,
                                         support=frozenset(support))
    lo, hi = _bounded_box(domain)
    window = rand_window(rng, lo, hi)
    coeffs = {}
    for l in enumerate_upto(k, star):
        if rng.randint(0, 1):
            coeffs[mi(l)] = tuple(
                _rand_base_distribution(rng, space, domain, window=window)
                for _ in range(e_dim))
    support = RSet.closed_pairs([window])
    return CompactFormalDistribution(space, domain, k, e_dim, coeffs,
                                     support=support)


def rand_generalized(rng, space, domain, k, trunc, e_dim) -> GeneralizedFunction:
    coeffs = {}
    for j in enumerate_upto(k, trunc):
        if rng.randint(0, 1):
            coeffs[mi(j)] = tuple(_rand_base_distribution(rng, space, domain)
                                  for _ in range(e_dim))
    return GeneralizedFunction(space, domain, k, trunc, e_dim, coeffs)


# -- shared fixtures ---------------------------------------------------------------


def _mv_parts(space):
    if space.kind == "discrete":
        pts = space.points
        n = len(pts)
        u1 = OpenSet(space, pts[:2 * n // 3 + 1])
        u2 = OpenSet(space, pts[n // 3:])
        return u1, u2
    return (OpenSet(space, [(NEG_INF, Fraction(1))]),
            OpenSet(space, [(Fraction(-1), POS_INF)]))


def _three_part_cover(space) -> Cover:
    if space.kind == "discrete":
        pts = space.points
        n = len(pts)
        a, b = n // 3, 2 * n // 3
        parts = [OpenSet(space, pts[:a + 1]),
                 OpenSet(space, pts[a:b + 1]),
                 OpenSet(space, pts[b:])]
        return Cover(space.whole(), parts)
    whole = OpenSet(space, [(Fraction(-6), Fraction(6))])
    parts = [OpenSet(space, [(Fraction(-6), Fraction(-1))]),
             OpenSet(space, [(Fraction(-3), Fraction(3))]),
             OpenSet(space, [(Fraction(1), Fraction(6))])]
    return Cover(whole, parts)


def function_residual(a: FormalFunction, b: FormalFunction) -> float:
    """Max coefficient disagreement where either coefficient can be
    nonzero: at their labels on the discrete backend, on a sample grid
    of the domain on the smooth line. Equal coefficients are skipped;
    unequal exact values never read as 0.0 apart."""
    space = a.space
    worst = 0.0
    for j in set(a.coeffs) | set(b.coeffs):
        ca, cb = a.coeff(j), b.coeff(j)
        if ca == cb:
            continue
        pts = space.sample_points(space.support((ca, cb), a.domain.region))
        worst = max(worst, max_gap([space.ev(ca, x) for x in pts],
                                   [space.ev(cb, x) for x in pts]))
    return worst


# -- the suites -------------------------------------------------------------------------


def suite_mv(space, k, seed, tol, rounds=100):
    """phi o psi = 0 and mv_split recovers psi-preimages."""
    rng = random.Random(seed)
    smooth = space.kind == "smoothline"
    tally = _Tally(tol if smooth else 0.0)
    u1, u2 = _mv_parts(space)
    v = u1.intersect(u2)
    for rd in range(rounds):
        star = rng.randint(0, 2)
        zeta = rand_density(rng, space, v, k, star)
        eta1, eta2 = mv_psi(zeta, u1, u2)
        comp = mv_phi(eta1, eta2)
        if smooth:
            r, _ = functional_zero_residual(
                comp, dual_function_family(space, u1.union(u2), k, star))
            tally.residual(r, round=rd, law="phi-psi")
        else:
            tally.exact(comp.is_exactly_zero(), round=rd, law="phi-psi")
        try:
            split = mv_split(eta1, eta2, tol)
        except FormalcalcError as e:
            tally.failures.append({"round": rd, "law": "split",
                                   "error": str(e)})
            continue
        if smooth:
            r1, _ = functional_residual(split.ext(u1), eta1,
                                        dual_function_family(space, u1, k, star))
            r2, _ = functional_residual(split.ext(u2).scale(-1), eta2,
                                        dual_function_family(space, u2, k, star))
            tally.residual(max(r1, r2), round=rd, law="split-ext")
        else:
            tally.exact(split.ext(u1) == eta1
                        and split.ext(u2).scale(-1) == eta2,
                        round=rd, law="split-ext")
    return tally.report("mv")


def suite_glue(space, k, e_dim, seed, tol, rounds=25):
    """Restrict-then-glue is the identity on spanning families."""
    rng = random.Random(seed)
    smooth = space.kind == "smoothline"
    tally = _Tally(tol if smooth else 0.0)
    if smooth:
        e_dim = 1
    cover = _three_part_cover(space)
    pou = build_pou(cover, k, 4)
    m = cover.whole
    xcap, scap = (1, 0) if smooth else (2, 1)
    for rd in range(rounds):
        g = rand_generalized(rng, space, m, k, 2, e_dim)
        locs = [g.restrict(p) for p in cover.parts]
        glued = sheaf_glue(locs, pou, tol)
        probes = dual_density_family(space, m, k, 2, xdeg_cap=xcap,
                                     stack_cap=scap)
        r, _ = functional_residual(glued, g, probes)
        tally.residual(r, round=rd, law="glue-generalized")
        star = rng.randint(0, 2)
        t = rand_distribution(rng, space, m, k, star, e_dim)
        locs = [t.restrict(p) for p in cover.parts]
        glued = sheaf_glue(locs, pou, tol)
        probes = dual_function_family(space, m, k, star, xdeg_cap=xcap)
        r, _ = functional_residual(glued, t, probes)
        tally.residual(r, round=rd, law="glue-distribution")
    return tally.report("glue")


def suite_cosheaf(space, k, e_dim, seed, tol, rounds=25):
    """Decompose-then-extend is the identity for all three section kinds."""
    rng = random.Random(seed)
    smooth = space.kind == "smoothline"
    tally = _Tally(tol if smooth else 0.0)
    if smooth:
        e_dim = 1
    cover = _three_part_cover(space)
    pou = build_pou(cover, k, 4)
    m = cover.whole
    xcap = 1 if smooth else 2
    for rd in range(rounds):
        star = rng.randint(0, 2)
        eta = rand_density(rng, space, m, k, star)
        back = cosheaf_reassemble(cosheaf_decompose(eta, pou), m)
        if smooth:
            r, _ = functional_residual(
                back, eta, dual_function_family(space, m, k, star,
                                                xdeg_cap=xcap))
            tally.residual(r, round=rd, law="cosheaf-density")
        else:
            tally.exact(back == eta, round=rd, law="cosheaf-density")
        u = rand_supported_function(rng, space, m, k, 2)
        back = cosheaf_reassemble(cosheaf_decompose(u, pou), m)
        tally.residual(function_residual(back, u), round=rd,
                       law="cosheaf-function")
        t = rand_compact_distribution(rng, space, m, k, star, e_dim)
        back = cosheaf_reassemble(cosheaf_decompose(t, pou), m)
        probes = dual_function_family(space, m, k, star, xdeg_cap=xcap)
        r, _ = functional_residual(back, t, probes)
        tally.residual(r, round=rd, law="cosheaf-distribution")
    return tally.report("cosheaf")


def suite_flabby(space, k, seed, tol, rounds=20):
    """Extension by zero has trivial kernel on dual spanning families."""
    rng = random.Random(seed)
    tally = _Tally()
    m = space.whole()
    if space.kind == "discrete":
        pts = sorted(m.region)
        subsets = []
        if len(pts) <= 4:
            for mask in range(1, 2 ** len(pts)):
                subsets.append([p for i, p in enumerate(pts)
                                if mask & (1 << i)])
        else:
            for _ in range(rounds):
                sub = [p for p in pts if rng.randint(0, 1)]
                subsets.append(sub or [pts[0]])
        for sub in subsets:
            v = OpenSet(space, sub)
            fam = list(dual_density_family(space, v, k, 2))
            fam.append(rand_density(rng, space, v, k, 2))
            tally.exact(flabby_check(fam, m, tol=0.0), checks=len(fam),
                        subset=sorted(sub), law="flabby")
        return tally.report("flabby")
    for wlo, whi in ((Fraction(-2), Fraction(2)), (Fraction(-3), Fraction(1))):
        v = OpenSet(space, [(wlo, whi)])
        fam = dual_density_family(space, v, k, 1, xdeg_cap=2, stack_cap=0)
        tally.exact(flabby_check(fam, m, tol=tol), checks=len(fam),
                    window=[str(wlo), str(whi)], law="flabby")
    return tally.report("flabby")


def suite_duality(space, k, trunc, e_dim, seed, tol, rounds=60):
    """cutoff_extend values agree across distinct admissible cutoffs."""
    rng = random.Random(seed)
    smooth = space.kind == "smoothline"
    tally = _Tally(tol if smooth else 0.0)
    if smooth:
        e_dim = 1
    m = space.whole()
    star = min(2, trunc)
    cap = max(trunc, star, 1)
    if smooth:
        u = OpenSet(space, [(Fraction(-4), Fraction(4))])
        box = OpenSet(space, [(Fraction(-1), Fraction(1))])
        f1, f2 = (cutoff(space, m, k, cap, RSet.closed_pairs([(-b, b)]),
                         RSet.closed_pairs([(-b - 1, b + 1)]))
                  for b in (Fraction(2), Fraction(5, 2)))
    else:
        pts = space.points
        u = OpenSet(space, pts[:-1]) if len(pts) > 1 else m
    for rd in range(rounds):
        if smooth:
            t = rand_compact_distribution(rng, space, box, k, star, e_dim)
            t = t.ext(u)
        else:
            t = rand_compact_distribution(rng, space, u, k, star, e_dim)
            s = t.support
            f1 = cutoff(space, m, k, cap, s, s)
            extra = s | {sorted(u.region)[rng.randrange(len(u.region))]}
            f2 = cutoff(space, m, k, cap, extra, extra)
        ufn = rand_function(rng, space, m, k, cap)
        v1 = cutoff_extend(t, f1)(ufn)
        v2 = cutoff_extend(t, f2)(ufn)
        tally.residual(max_gap(v1, v2), round=rd, law="cutoff-extend")
    return tally.report("duality")


def suite_jets(space, k, trunc, seed, tol):
    """Point-distribution basis duality and jet-ideal membership flags."""
    del seed, tol
    tally = _Tally()
    m = space.whole()
    ndim = space.ndim
    r = min(trunc, 4)
    a = space.origin()
    basis = point_basis(space, m, k, a, r)
    keys = enumerate_upto(ndim + k, r)
    tally.exact(len(basis) == dist_space_dimension(ndim, k, r)
                == math.comb(ndim + k + r, ndim + k), law="dimension")
    for row, pd in enumerate(basis):
        for col, mkey in enumerate(keys):
            i, j = mkey[:ndim], mkey[ndim:]
            mono = normalized_monomial(space, m, k, r, i, j)
            val = pd.apply(mono)[0]
            expect = QC(1) if row == col else QC(0)
            ok = val == expect
            tally.exact(ok, law="basis", row=row, col=col, residual=None if ok
                        else abs(complex(val) - complex(expect)))
    for mkey in keys:
        i, j = mkey[:ndim], mkey[ndim:]
        d = degree(mkey)
        mono = normalized_monomial(space, m, k, r, i, j)
        tally.exact(jet_kernel_check(mono, a, d), law="jet-ideal",
                    key=list(mkey))
        if d < r:
            tally.exact(not jet_kernel_check(mono, a, d + 1),
                        law="jet-ideal-sharp", key=list(mkey))
    zero = FormalFunction(space, m, k, r, {})
    tally.exact(jet_kernel_check(zero, a, r), law="jet-zero")
    return tally.report("jets")


def run_suite(name, space, k, trunc, e_dim, seed, tol):
    """Dispatch one named suite with backend-appropriate round counts."""
    smooth = space.kind == "smoothline"
    if name == "mv":
        return suite_mv(space, k, seed, tol, rounds=6 if smooth else 100)
    if name == "glue":
        return suite_glue(space, k, e_dim, seed, tol, rounds=2 if smooth else 25)
    if name == "cosheaf":
        return suite_cosheaf(space, k, e_dim, seed, tol,
                             rounds=2 if smooth else 25)
    if name == "flabby":
        return suite_flabby(space, k, seed, tol)
    if name == "duality":
        return suite_duality(space, k, trunc, e_dim, seed, tol,
                             rounds=4 if smooth else 60)
    if name == "jets":
        return suite_jets(space, k, trunc, seed, tol)
    raise ValueError("unknown suite %r (one of %s)"
                     % (name, ", ".join(SUITE_NAMES)))
