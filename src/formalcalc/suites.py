"""Seeded property suites behind the check command.

Every suite draws its instances from random.Random(seed) (the stdlib
Mersenne Twister), so a (scenario, seed) pair reproduces the same
report byte for byte. Reports are plain dicts:

    {"suite": name, "checks": n, "failures": [witnesses],
     "max_residual": float, "pass": bool}

Each suite run counts its checks in one _Tally, which builds the
report. Every law compares its two sections one way, by `agree`: the
worst functional residual over a dual family, a function read as its
generalized function. Generators and suites are written once; what the
backends draw differently sits in one draw object each, picked by the
space's type: _DiscreteDraws (weights on labels, threshold 0) and
_LineDraws (bumps times polynomials, point terms, the caller's
tolerance, E_dim 1). Each also holds its backend's fixtures, probe
caps, round counts, flabby cases and duality cutoffs.
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
from .multiindex import degree, enumerate_upto
from .scalars import QC, qc_triple
from .sheaf import (Cover, build_pou, cosheaf_decompose,
                    cosheaf_reassemble, dual_density_family,
                    dual_function_family, flabby_check, functional_residual,
                    functional_zero_residual, max_gap, mv_phi, mv_psi,
                    mv_split, sheaf_glue)
from .spaces import NEG_INF, Discrete, OpenSet, POS_INF, RSet, SmoothLine

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


def _below(rng: random.Random, n: int) -> int:
    """The draw of randrange(n) on rng, leaving rng where randrange
    leaves it: the getrandbits loop of CPython's Random._randbelow,
    without randrange's argument checks. Every draw of this module goes
    through it."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def rand_qc(rng: random.Random) -> QC:
    """(a/b) + (c/e) i, or a/b, for a, c in -6..6 and b, e in 1..3."""
    if _below(rng, 2):
        a, b = _below(rng, 13) - 6, _below(rng, 3) + 1
        c, e = _below(rng, 13) - 6, _below(rng, 3) + 1
        return qc_triple(a * e, c * b, b * e)
    return qc_triple(_below(rng, 13) - 6, 0, _below(rng, 3) + 1)


def rand_weights(rng, labels):
    out = {}
    for p in sorted(labels):
        if _below(rng, 3):
            v = rand_qc(rng)
            if v:
                out[p] = v
    return out


def rand_poly(rng, deg: int = 2):
    e = Const(rand_qc(rng))
    for d in range(1, deg + 1):
        if _below(rng, 2):
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
    i = 1 + _below(rng, 4)
    j = i + 2 + _below(rng, 6 - i)
    return lo + w * Fraction(i, 8), lo + w * Fraction(j, 8)


def rand_smooth_tau(rng, space, lo, hi) -> BaseDensity:
    bexpr, supp, _ = window_bump(*rand_window(rng, lo, hi))
    return BaseDensity.smooth(space, mul(bexpr, rand_poly(rng)), supp)


class _DiscreteDraws:
    """Instances on labels."""

    rounds = {"mv": 100, "glue": 25, "cosheaf": 25, "duality": 60}
    xcap, scap = 2, 1

    def __init__(self, space):
        self.space = space

    def tally(self, tol):
        return _Tally()

    def e_dim(self, e_dim):
        return e_dim

    def coeff(self, rng, domain):
        return rand_weights(rng, domain.region)

    def density_terms(self, rng, domain):
        w = rand_weights(rng, domain.region)
        if w:
            return (((), BaseDensity.discrete(self.space, w)),)

    def base(self, rng, domain, where=None):
        """Weights on the domain's labels, or on the labels where."""
        labels = domain.region if where is None else where
        return BaseDistribution(self.space, weights=rand_weights(rng, labels))

    def compact(self, rng, domain):
        """(where, support): a nonempty subset of the domain's labels."""
        pts = sorted(domain.region)
        support = {p for p in pts if _below(rng, 2)} or {pts[0]}
        return support, frozenset(support)

    def supported(self, rng, domain):
        """A support and the drawer of a coefficient on it (None: none)."""
        where, support = self.compact(rng, domain)

        def coeff(rng, j):
            if _below(rng, 3):
                c = {p: rand_qc(rng) for p in sorted(where) if _below(rng, 2)}
                return {p: v for p, v in c.items() if v}
        return support, coeff

    def mv_parts(self):
        pts, n = self.space.points, len(self.space.points)
        return (OpenSet(self.space, pts[:2 * n // 3 + 1]),
                OpenSet(self.space, pts[n // 3:]))

    def three_part_cover(self):
        pts, n = self.space.points, len(self.space.points)
        a, b = n // 3, 2 * n // 3
        parts = (pts[:a + 1], pts[a:b + 1], pts[b:])
        return Cover(self.space.whole(), [OpenSet(self.space, p) for p in parts])

    def flabby_cases(self, rng, m, k, rounds):
        """Every nonempty subset of up to four labels, else rounds random
        ones, each with its dual family and one random density."""
        space, pts = self.space, sorted(m.region)
        if len(pts) <= 4:
            subsets = [[p for i, p in enumerate(pts) if mask & (1 << i)]
                       for mask in range(1, 2 ** len(pts))]
        else:
            subsets = [[p for p in pts if _below(rng, 2)] or [pts[0]]
                       for _ in range(rounds)]
        for sub in subsets:
            v = OpenSet(space, sub)
            fam = list(dual_density_family(space, v, k, 2))
            fam.append(rand_density(rng, space, v, k, 2))
            yield fam, {"subset": sorted(sub)}

    def duality_cases(self, rng, m, k, star, cap, e_dim, rounds):
        """A compact distribution on all labels but the last, with its
        support's cutoff and one with a label more."""
        space, pts = self.space, self.space.points
        u = OpenSet(space, pts[:-1]) if len(pts) > 1 else m
        for _ in range(rounds):
            t = rand_compact_distribution(rng, space, u, k, star, e_dim)
            s = t.support
            extra = s | {sorted(u.region)[_below(rng, len(u.region))]}
            yield t, cutoff(space, m, k, cap, s, s), \
                cutoff(space, m, k, cap, extra, extra)


class _LineDraws:
    """Bumps and polynomials on the line."""

    rounds = {"mv": 6, "glue": 2, "cosheaf": 2, "duality": 4}
    xcap, scap = 1, 0

    def __init__(self, space):
        self.space = space

    def tally(self, tol):
        return _Tally(tol)

    def e_dim(self, e_dim):
        return 1

    def coeff(self, rng, domain):
        return rand_poly(rng)

    def density_terms(self, rng, domain):
        lo, hi = _bounded_box(domain)
        return tuple(((_below(rng, 2),),
                      rand_smooth_tau(rng, self.space, lo, hi))
                     for _ in range(1 + _below(rng, 2)))

    def base(self, rng, domain, where=None):
        """A polynomial, or a bump on the window where times one, perhaps
        with a point term in the domain's bounded box or inside where."""
        if where is None:
            terms = [SmoothTerm(rand_poly(rng))]
            (lo, hi), eighths = _bounded_box(domain), (1, 7)
        else:
            (lo, hi), eighths = where, (2, 6)
            bexpr, bsupp, _ = window_bump(lo, hi)
            terms = [SmoothTerm(mul(bexpr, rand_poly(rng)), bsupp)]
        if _below(rng, 2):
            first, last = eighths
            a = lo + (hi - lo) * Fraction(
                first + _below(rng, last - first + 1), 8)
            terms.append(PointTerm(a, _below(rng, 2), rand_qc(rng)))
        return BaseDistribution(self.space, terms=terms)

    def compact(self, rng, domain):
        """(where, support): a window inside the domain."""
        window = rand_window(rng, *_bounded_box(domain))
        return window, RSet.closed_pairs([window])

    def supported(self, rng, domain):
        """A window bump's support and the drawer of a coefficient on it,
        always at degree 0 (None: none)."""
        bexpr, supp, _ = window_bump(*rand_window(rng, *_bounded_box(domain)))

        def coeff(rng, j):
            if not degree(j) or _below(rng, 2):
                return mul(bexpr, rand_poly(rng))
        return supp, coeff

    def mv_parts(self):
        return (OpenSet(self.space, [(NEG_INF, Fraction(1))]),
                OpenSet(self.space, [(Fraction(-1), POS_INF)]))

    def three_part_cover(self):
        whole, *parts = (OpenSet(self.space, [(Fraction(lo), Fraction(hi))])
                         for lo, hi in ((-6, 6), (-6, -1), (-3, 3), (1, 6)))
        return Cover(whole, parts)

    def flabby_cases(self, rng, m, k, rounds):
        """Two fixed windows, each with its dual family."""
        for wlo, whi in ((Fraction(-2), Fraction(2)), (Fraction(-3), Fraction(1))):
            v = OpenSet(self.space, [(wlo, whi)])
            yield (dual_density_family(self.space, v, k, 1, xdeg_cap=2,
                                       stack_cap=0),
                   {"window": [str(wlo), str(whi)]})

    def duality_cases(self, rng, m, k, star, cap, e_dim, rounds):
        """A compact distribution on (-1, 1), extended to (-4, 4), with
        two fixed cutoffs."""
        space = self.space
        u = OpenSet(space, [(Fraction(-4), Fraction(4))])
        box = OpenSet(space, [(Fraction(-1), Fraction(1))])
        f1, f2 = (cutoff(space, m, k, cap, RSet.closed_pairs([(-b, b)]),
                         RSet.closed_pairs([(-b - 1, b + 1)]))
                  for b in (Fraction(2), Fraction(5, 2)))
        for _ in range(rounds):
            t = rand_compact_distribution(rng, space, box, k, star, e_dim)
            yield t.ext(u), f1, f2


_DRAWS = {Discrete: _DiscreteDraws, SmoothLine: _LineDraws}


def _draws(space):
    return _DRAWS[type(space)](space)


def rand_density(rng, space, domain, k, star) -> FormalDensity:
    """Compactly supported formal density with random coefficients."""
    draws = _draws(space)
    return FormalDensity(space, domain, k, {
        l: terms for l in enumerate_upto(k, star)
        if _below(rng, 2) and (terms := draws.density_terms(rng, domain))})


def rand_function(rng, space, domain, k, trunc) -> FormalFunction:
    draws = _draws(space)
    return FormalFunction(space, domain, k, trunc, {
        j: c for j in enumerate_upto(k, trunc)
        if _below(rng, 3) and (c := draws.coeff(rng, domain))})


def rand_supported_function(rng, space, domain, k, trunc):
    support, coeff = _draws(space).supported(rng, domain)
    coeffs = {j: c for j in enumerate_upto(k, trunc) if (c := coeff(rng, j))}
    return SupportedFormalFunction(space, domain, k, trunc, coeffs,
                                   support=support)


def _vectors(rng, draws, domain, k, deg, e_dim, where=None):
    """Perhaps an E-vector of base distributions at each key."""
    return {l: tuple(draws.base(rng, domain, where) for _ in range(e_dim))
            for l in enumerate_upto(k, deg) if _below(rng, 2)}


def rand_distribution(rng, space, domain, k, star, e_dim) -> FormalDistribution:
    return FormalDistribution(space, domain, k, e_dim, _vectors(
        rng, _draws(space), domain, k, star, e_dim))


def rand_compact_distribution(rng, space, domain, k, star, e_dim):
    draws = _draws(space)
    where, support = draws.compact(rng, domain)
    return CompactFormalDistribution(space, domain, k, e_dim, _vectors(
        rng, draws, domain, k, star, e_dim, where), support=support)


def rand_generalized(rng, space, domain, k, trunc, e_dim) -> GeneralizedFunction:
    return GeneralizedFunction(space, domain, k, trunc, e_dim, _vectors(
        rng, _draws(space), domain, k, trunc, e_dim))


# -- shared fixtures ---------------------------------------------------------------


def _mv_parts(space):
    return _draws(space).mv_parts()


def _three_part_cover(space) -> Cover:
    return _draws(space).three_part_cover()


def agree(tally, pairs, **witness):
    """One check: the worst functional residual of a against b (None:
    zero) over the dual family, for (a, b, family) in pairs. A pair the
    space proves equal (`==` on a discrete space) reads 0.0 without a
    probe; any other is read at the family's probes, the exact dual
    basis on a discrete space."""
    tally.residual(max((functional_zero_residual(a, fam) if b is None
                        else functional_residual(a, b, fam))[0]
                       for a, b, fam in pairs), **witness)


# -- the suites -------------------------------------------------------------------------


def suite_mv(space, k, seed, tol, rounds=100):
    """phi o psi = 0 and mv_split recovers psi-preimages."""
    rng = random.Random(seed)
    draws = _draws(space)
    tally = draws.tally(tol)
    u1, u2 = _mv_parts(space)
    v, whole = u1.intersect(u2), u1.union(u2)
    for rd in range(rounds):
        star = _below(rng, 3)
        fam1, fam2, fam = (dual_function_family(space, u, k, star)
                           for u in (u1, u2, whole))
        zeta = rand_density(rng, space, v, k, star)
        eta1, eta2 = mv_psi(zeta, u1, u2)
        agree(tally, [(mv_phi(eta1, eta2), None, fam)], round=rd,
              law="phi-psi")
        try:
            split = mv_split(eta1, eta2, tol)
        except FormalcalcError as e:
            tally.failures.append({"round": rd, "law": "split",
                                   "error": str(e)})
            continue
        agree(tally, [(split.ext(u1), eta1, fam1),
                      (split.ext(u2).scale(-1), eta2, fam2)],
              round=rd, law="split-ext")
    return tally.report("mv")


def suite_glue(space, k, e_dim, seed, tol, rounds=25):
    """Restrict-then-glue is the identity on spanning families."""
    rng = random.Random(seed)
    draws = _draws(space)
    tally = draws.tally(tol)
    e_dim = draws.e_dim(e_dim)
    cover = _three_part_cover(space)
    pou = build_pou(cover, k, 4)
    m = cover.whole
    gprobes = dual_density_family(space, m, k, 2, xdeg_cap=draws.xcap,
                                  stack_cap=draws.scap)
    for rd in range(rounds):
        g = rand_generalized(rng, space, m, k, 2, e_dim)
        glued = sheaf_glue([g.restrict(p) for p in cover.parts], pou, tol)
        agree(tally, [(glued, g, gprobes)], round=rd, law="glue-generalized")
        star = _below(rng, 3)
        t = rand_distribution(rng, space, m, k, star, e_dim)
        glued = sheaf_glue([t.restrict(p) for p in cover.parts], pou, tol)
        probes = dual_function_family(space, m, k, star, xdeg_cap=draws.xcap)
        agree(tally, [(glued, t, probes)], round=rd, law="glue-distribution")
    return tally.report("glue")


def suite_cosheaf(space, k, e_dim, seed, tol, rounds=25):
    """Decompose-then-extend is the identity for all three section kinds."""
    rng = random.Random(seed)
    draws = _draws(space)
    tally = draws.tally(tol)
    e_dim = draws.e_dim(e_dim)
    cover = _three_part_cover(space)
    pou = build_pou(cover, k, 4)
    m = cover.whole
    embed = GeneralizedFunction.embed
    gprobes = dual_density_family(space, m, k, 2, xdeg_cap=draws.xcap,
                                  stack_cap=draws.scap)
    for rd in range(rounds):
        star = _below(rng, 3)
        probes = dual_function_family(space, m, k, star, xdeg_cap=draws.xcap)
        eta = rand_density(rng, space, m, k, star)
        back = cosheaf_reassemble(cosheaf_decompose(eta, pou), m)
        agree(tally, [(back, eta, probes)], round=rd, law="cosheaf-density")
        u = rand_supported_function(rng, space, m, k, 2)
        back = cosheaf_reassemble(cosheaf_decompose(u, pou), m)
        agree(tally, [(embed(back), embed(u), gprobes)], round=rd,
              law="cosheaf-function")
        t = rand_compact_distribution(rng, space, m, k, star, e_dim)
        back = cosheaf_reassemble(cosheaf_decompose(t, pou), m)
        agree(tally, [(back, t, probes)], round=rd,
              law="cosheaf-distribution")
    return tally.report("cosheaf")


def suite_flabby(space, k, seed, tol, rounds=20):
    """Extension by zero has trivial kernel on dual spanning families."""
    rng = random.Random(seed)
    draws = _draws(space)
    tally = draws.tally(tol)
    m = space.whole()
    for fam, witness in draws.flabby_cases(rng, m, k, rounds):
        tally.exact(flabby_check(fam, m, tol=tally.thr),
                    checks=len(fam), **witness, law="flabby")
    return tally.report("flabby")


def suite_duality(space, k, trunc, e_dim, seed, tol, rounds=60):
    """cutoff_extend values agree across distinct admissible cutoffs."""
    rng = random.Random(seed)
    draws = _draws(space)
    tally = draws.tally(tol)
    m = space.whole()
    star = min(2, trunc)
    cap = max(trunc, star, 1)
    cases = draws.duality_cases(rng, m, k, star, cap, draws.e_dim(e_dim),
                                rounds)
    for rd, (t, f1, f2) in enumerate(cases):
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
    monos = [normalized_monomial(space, m, k, r, mkey[:ndim], mkey[ndim:])
             for mkey in keys]
    for row, pd in enumerate(basis):
        for col, mono in enumerate(monos):
            val = pd.apply(mono)[0]
            expect = QC(1) if row == col else QC(0)
            ok = val == expect
            tally.exact(ok, law="basis", row=row, col=col, residual=None if ok
                        else abs(complex(val) - complex(expect)))
    for mkey, mono in zip(keys, monos):
        d = degree(mkey)
        tally.exact(jet_kernel_check(mono, a, d), law="jet-ideal",
                    key=list(mkey))
        if d < r:
            tally.exact(not jet_kernel_check(mono, a, d + 1),
                        law="jet-ideal-sharp", key=list(mkey))
    zero = FormalFunction(space, m, k, r, {})
    tally.exact(jet_kernel_check(zero, a, r), law="jet-zero")
    return tally.report("jets")


def run_suite(name, space, k, trunc, e_dim, seed, tol):
    """Dispatch one named suite with its backend's round counts."""
    args = {"mv": (k,), "glue": (k, e_dim), "cosheaf": (k, e_dim),
            "flabby": (k,), "duality": (k, trunc, e_dim), "jets": (k, trunc)}
    if name not in args:
        raise ValueError("unknown suite %r (one of %s)"
                         % (name, ", ".join(SUITE_NAMES)))
    rounds = _draws(space).rounds
    extra = {"rounds": rounds[name]} if name in rounds else {}
    # looked up at call time, so that a wrapped suite_<name> is the one run
    return globals()["suite_" + name](space, *args[name], seed, tol, **extra)
