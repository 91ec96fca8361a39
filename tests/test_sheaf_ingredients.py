"""The sheaf constructions against the per-backend code they replaced.

`ref_dual_function_family`, `ref_dual_density_family`, `ref_build_pou`,
`ref_sum_residual` and `ref_mv_cutoff` are the probe families, the
partition of unity, its sum check and the Mayer-Vietoris cutoff as
`sheaf.py` built them when it still branched on the backend, before
each space supplied its own probes, partitions, cutoffs and unit
check. They stay here as oracles: on seeded domains and covers of both
backends the single code path must build the same sections (equal
`to_json`, in the same order), the same residuals and the same errors.
On the line the sum check read the 101-point grid of each piece
(`grid_points`), which now only tests read: the package proves a sum.
"""

import random
import re
from fractions import Fraction

import pytest

from formalcalc import spaces
from formalcalc.basedensity import BaseDensity
from formalcalc.densities import FormalDensity
from formalcalc.errors import (CertificateError, SupportError,
                               UndecidedCertificateError)
from formalcalc.expr import (ONE, X, add, bump, div, ev, falling_edge, mul,
                             pow_, rising_edge)
from formalcalc.functions import SupportedFormalFunction, cutoff
from formalcalc.multiindex import enumerate_upto, mi
from formalcalc.scalars import QC
from formalcalc.sheaf import (Cover, PartitionOfUnity, build_pou,
                              dual_density_family, dual_function_family,
                              mv_psi, mv_split)
from formalcalc.spaces import NEG_INF, POS_INF, Discrete, OpenSet, RSet, \
    SmoothLine

DS = Discrete(["a", "b", "c", "d", "e", "f"])
SL = SmoothLine()


# -- the per-backend constructions, as they were ------------------------------------


def ref_probe_windows(lo, hi):
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


def ref_window_bump(wlo, whi):
    w = whi - wlo
    return bump(wlo, wlo + w / 4, whi - w / 4, whi)


def ref_dual_function_family(space, domain, k, trunc, xdeg_cap=2):
    out = []
    if isinstance(space, Discrete):
        one, keys = QC(1), enumerate_upto(k, trunc)
        for p in sorted(domain.region):
            support = space.point_region(p)
            for j in keys:
                out.append(SupportedFormalFunction._trusted(
                    space, domain, k, {j: {p: one}}, trunc=trunc,
                    support=support, plateau=None))
        return out
    for lo, hi, _, _ in domain.region.pieces:
        for wlo, whi in ref_probe_windows(lo, hi):
            bexpr, supp, _ = ref_window_bump(wlo, whi)
            for e in range(xdeg_cap + 1):
                expr = mul(bexpr, pow_(X, e)) if e else bexpr
                for j in enumerate_upto(k, trunc):
                    out.append(SupportedFormalFunction(
                        space, domain, k, trunc, {j: expr}, support=supp))
    return out


def ref_dual_density_family(space, domain, k, star_cap, xdeg_cap=2,
                            stack_cap=1):
    out = []
    if isinstance(space, Discrete):
        keys = enumerate_upto(k, star_cap)
        for p in sorted(domain.region):
            tau = BaseDensity._trusted(space, {p: QC(1)}, None)
            for l in keys:
                out.append(FormalDensity._trusted(space, domain, k,
                                                  {l: (((), tau),)}))
        return out
    for lo, hi, _, _ in domain.region.pieces:
        for wlo, whi in ref_probe_windows(lo, hi):
            bexpr, supp, _ = ref_window_bump(wlo, whi)
            for e in range(xdeg_cap + 1):
                expr = mul(bexpr, pow_(X, e)) if e else bexpr
                tau = BaseDensity.smooth(space, expr, supp)
                for l in enumerate_upto(k, star_cap):
                    for i in range(stack_cap + 1):
                        out.append(FormalDensity.monomial(
                            space, domain, k, l, tau, i=(i,)))
    return out


def ref_lo_treatment(m_rs, lo, delta):
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


def ref_hi_treatment(m_rs, hi, delta):
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


def ref_part_bumps(m_rs, part, delta):
    expr = None
    pos = RSet()
    supp = RSet()
    for lo, hi, _, _ in part.region.pieces:
        rise, plo, slo, slo_open = ref_lo_treatment(m_rs, lo, delta)
        fall, phi, shi, shi_open = ref_hi_treatment(m_rs, hi, delta)
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


def ref_build_pou(cover, k, trunc):
    """The functions of the partition (not checked for their sum)."""
    space = cover.whole.space
    if isinstance(space, Discrete):
        assigned = set()
        functions = []
        for part in cover.parts:
            labels = part.region - assigned
            assigned |= labels
            functions.append(cutoff(space, cover.whole, k, trunc, labels,
                                    labels))
        return functions

    m_rs = cover.whole.region
    j0 = mi([0] * k)
    if len(cover.parts) == 1:
        return [SupportedFormalFunction(space, cover.whole, k, trunc,
                                        {j0: ONE}, support=m_rs,
                                        plateau=m_rs)]

    endpoints = set()
    for part in list(cover.parts) + [cover.whole]:
        for lo, hi, _, _ in part.region.pieces:
            if lo != NEG_INF:
                endpoints.add(lo)
            if hi != POS_INF:
                endpoints.add(hi)
    eps = sorted(endpoints)
    diffs = [b - a for a, b in zip(eps, eps[1:]) if b > a]
    delta = min(diffs) / 4 if diffs else Fraction(1)

    built = None
    for _ in range(40):
        data = [ref_part_bumps(m_rs, part, delta) for part in cover.parts]
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
            functions.append(SupportedFormalFunction(
                space, cover.whole, k, trunc, {}, support=RSet(),
                plateau=RSet()))
            continue
        f_expr = div(b, s_expr, region=m_rs)
        others = RSet()
        for jdx, (_, _, osupp) in enumerate(built):
            if jdx != idx:
                others = others.union(osupp)
        functions.append(SupportedFormalFunction(
            space, cover.whole, k, trunc, {j0: f_expr}, support=supp,
            plateau=supp.difference(others)))
    return functions


def grid_points(region):
    """101 rationals inside each piece of a line region; an unbounded
    piece is sampled over width 10 at its finite end (around 0 if none)."""
    pts = []
    for lo, hi, _, _ in region.pieces:
        if lo == NEG_INF and hi == POS_INF:
            a, b = Fraction(-10), Fraction(10)
        elif lo == NEG_INF:
            a, b = hi - 10, hi
        elif hi == POS_INF:
            a, b = lo, lo + 10
        else:
            a, b = lo, hi
        pts += [a + (b - a) * Fraction(2 * i + 1, 202) for i in range(101)]
    return pts


def ref_sum_residual(space, whole_region, coeffs):
    if isinstance(space, Discrete):
        acc = {}
        for c in coeffs:
            for p, v in c.items():
                acc[p] = acc.get(p, QC(0)) + v
        ok = all(acc.get(p, QC(0)) == QC(1) for p in whole_region) \
            and set(acc) <= whole_region
        return 0.0 if ok else 1.0
    worst = 0.0
    for a in grid_points(whole_region):
        total = sum(complex(ev(e, a)) for e in coeffs)
        worst = max(worst, abs(total - 1))
    return worst


def ref_mv_cutoff(space, u1, v, kset, k, trunc):
    if isinstance(space, Discrete):
        return cutoff(space, u1, k, trunc, kset, kset)
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
    return cutoff(space, u1, k, trunc,
                  RSet.closed_pairs([(klo - gl / 4, khi + gr / 4)]),
                  RSet.closed_pairs([(klo - gl / 2, khi + gr / 2)]))


# -- seeded domains and covers --------------------------------------------------------


def rand_labels(rng):
    return [p for p in DS.points if rng.randint(0, 1)] or [DS.points[0]]


def rand_line_region(rng):
    """1 to 3 pieces over sorted rational endpoints; the outer ends may
    be infinite."""
    n = rng.randint(1, 3)
    ends = sorted(set(Fraction(rng.randint(-24, 24), rng.choice([1, 2, 4]))
                      for _ in range(2 * n + 2)))[:2 * n]
    while len(ends) < 2 * n:
        ends.append(ends[-1] + 1 if ends else Fraction(0))
    if rng.randint(0, 2) == 0:
        ends[0] = NEG_INF
    if rng.randint(0, 2) == 0:
        ends[-1] = POS_INF
    return OpenSet(SL, list(zip(ends[::2], ends[1::2])))


def rand_discrete_cover(rng):
    whole = OpenSet(DS, rand_labels(rng))
    labels = sorted(whole.region)
    n = rng.randint(1, 3)
    parts = [set() for _ in range(n)]
    for p in labels:
        for i in rng.sample(range(n), rng.randint(1, n)):
            parts[i].add(p)
    return Cover(whole, [OpenSet(DS, s) for s in parts])


def rand_line_cover(rng):
    """Parts cut from the whole set by overlapping windows (-inf, c1 + d),
    (c1 - d, c2 + d), ..., (c_last - d, inf), and at times an empty one."""
    whole = rand_line_region(rng)
    lo, hi = whole.region.hull()
    lo = Fraction(-12) if lo == NEG_INF else lo
    hi = Fraction(12) if hi == POS_INF else hi
    n = rng.randint(1, 3)
    cuts = sorted(lo + (hi - lo) * Fraction(rng.randint(1, 15), 16)
                  for _ in range(n - 1))
    d = (hi - lo) / rng.choice([16, 32, 64])
    bounds = [NEG_INF] + cuts + [POS_INF]
    parts = []
    for a, b in zip(bounds, bounds[1:]):
        window = OpenSet(SL, [(a if a == NEG_INF else a - d,
                               b if b == POS_INF else b + d)])
        parts.append(whole.intersect(window))
    if n < 3 and rng.randint(0, 2) == 0:
        parts.insert(rng.randint(0, n), OpenSet(SL, []))
    return Cover(whole, parts)


def line_window(rng, v):
    """A bounded window strictly inside a random piece of v."""
    lo, hi, _, _ = rng.choice(v.region.pieces)
    lo = hi - 6 if lo == NEG_INF and hi != POS_INF else lo
    lo = Fraction(-3) if lo == NEG_INF else lo
    hi = lo + 6 if hi == POS_INF else hi
    w = hi - lo
    i = rng.randint(1, 5)
    return lo + w * Fraction(i, 8), lo + w * Fraction(rng.randint(i + 1, 7), 8)


# -- the oracles -------------------------------------------------------------------------


def _json(sections):
    return [s.to_json() for s in sections]


def test_probe_families_match_discrete():
    rng = random.Random(901)
    for _ in range(60):
        dom = OpenSet(DS, rand_labels(rng))
        k, cap = rng.randint(0, 2), rng.randint(0, 2)
        xcap, scap = rng.randint(0, 2), rng.randint(0, 2)
        new = dual_function_family(DS, dom, k, cap, xdeg_cap=xcap)
        ref = ref_dual_function_family(DS, dom, k, cap, xdeg_cap=xcap)
        assert _json(new) == _json(ref)
        assert [f.support for f in new] == [f.support for f in ref]
        new = dual_density_family(DS, dom, k, cap, xcap, scap)
        ref = ref_dual_density_family(DS, dom, k, cap, xcap, scap)
        assert _json(new) == _json(ref)
        assert list(new) == ref


def test_probe_families_match_line():
    rng = random.Random(907)
    for _ in range(12):
        dom = rand_line_region(rng)
        k, cap = rng.randint(0, 1), rng.randint(0, 1)
        xcap, scap = rng.randint(0, 2), rng.randint(0, 1)
        new = dual_function_family(SL, dom, k, cap, xdeg_cap=xcap)
        ref = ref_dual_function_family(SL, dom, k, cap, xdeg_cap=xcap)
        assert _json(new) == _json(ref)
        assert [f.plateau for f in new] == [None] * len(new)
        new = dual_density_family(SL, dom, k, cap, xcap, scap)
        ref = ref_dual_density_family(SL, dom, k, cap, xcap, scap)
        assert _json(new) == _json(ref)
        assert list(new) == ref


@pytest.mark.parametrize("space, make_cover, seed, rounds", [
    (DS, rand_discrete_cover, 911, 80),
    (SL, rand_line_cover, 919, 14),
])
def test_build_pou_matches(space, make_cover, seed, rounds):
    rng = random.Random(seed)
    parts_seen = set()
    for _ in range(rounds):
        cover = make_cover(rng)
        parts_seen.add(len(cover))
        k, trunc = rng.randint(0, 2), rng.randint(0, 2)
        try:
            ref = ref_build_pou(cover, k, trunc)
        except CertificateError as exc:
            with pytest.raises(CertificateError, match=str(exc)):
                build_pou(cover, k, trunc)
            continue
        pou = build_pou(cover, k, trunc)
        assert _json(pou.functions) == _json(ref)
        assert [f.plateau for f in pou.functions] == [f.plateau for f in ref]
        j0 = mi([0] * k)
        assert pou.grid_residual == ref_sum_residual(
            space, cover.whole.region, [f.coeff(j0) for f in ref])
    assert parts_seen == {1, 2, 3}


def _part_bumps_calls(monkeypatch):
    """The parts `spaces._part_bumps` is called on, as they come."""
    calls, part_bumps = [], spaces._part_bumps

    def counted(whole, part, delta):
        calls.append(part)
        return part_bumps(whole, part, delta)

    monkeypatch.setattr(spaces, "_part_bumps", counted)
    return calls


def test_line_partition_builds_in_one_pass(monkeypatch):
    """On covers the first margin already covers, so each part's bumps
    are built once and the partition equals the halving reference."""
    calls = _part_bumps_calls(monkeypatch)
    rng = random.Random(947)
    for _ in range(100):
        cover = rand_line_cover(rng)
        k, trunc = rng.randint(0, 1), rng.randint(0, 1)
        parts = [p.region for p in cover.parts]
        built = parts if len(parts) > 1 else []
        calls.clear()
        try:
            ref = ref_build_pou(cover, k, trunc)
        except CertificateError as exc:
            # an edge too narrow to certify stops the one pass early
            with pytest.raises(CertificateError, match=re.escape(str(exc))):
                build_pou(cover, k, trunc)
            assert calls and calls == built[:len(calls)]
            continue
        pou = build_pou(cover, k, trunc)
        assert _json(pou.functions) == _json(ref)
        assert [f.plateau for f in pou.functions] == [f.plateau for f in ref]
        assert calls == built


def test_line_partition_refuses_parts_that_miss_the_whole_set(monkeypatch):
    # the reference halves its margin here until a certificate fails
    calls = _part_bumps_calls(monkeypatch)
    whole = RSet.open_pairs([(-3, Fraction(2, 3))])
    parts = [RSet.open_pairs([(Fraction(1, 2), Fraction(2, 3))]),
             RSet.open_pairs([(Fraction(-4, 3), Fraction(2, 3))])]
    with pytest.raises(CertificateError,
                       match="the parts do not cover the whole set"):
        SL.partition(whole, parts)
    assert calls == []


def test_line_partition_of_the_empty_set_has_no_bumps():
    with pytest.raises(CertificateError,
                       match="cover admits no bumps at all"):
        SL.partition(RSet(), [RSet(), RSet()])


def test_unit_gap_matches_on_sums_that_fail():
    """The sum proofs refuse the coefficient lists whose sum misses one."""
    rng = random.Random(929)
    vals = [QC(0), QC(1), QC(Fraction(1, 2)), QC(-1), QC(2)]
    for _ in range(200):
        whole = frozenset(rand_labels(rng))
        coeffs = [{p: v for p in sorted(whole)
                   if (v := rng.choice(vals))} for _ in range(rng.randint(1, 3))]
        if ref_sum_residual(DS, whole, coeffs):
            with pytest.raises(CertificateError):
                DS.prove_unit(coeffs, whole)
        else:
            DS.prove_unit(coeffs, whole)
    whole = OpenSet(SL, [(-4, 4)])
    pou = build_pou(Cover(whole, [OpenSet(SL, [(-4, 1)]),
                                  OpenSet(SL, [(-1, 4)])]), 1, 0)
    coeffs = [f.coeff((0,)) for f in pou.functions]
    coeffs[0] = SL.scale(coeffs[0], 2)
    assert ref_sum_residual(SL, whole.region, coeffs) > 0.5
    with pytest.raises(UndecidedCertificateError):
        SL.prove_unit(coeffs, whole.region)
    doubled = SupportedFormalFunction(SL, whole, 1, 0, {(0,): coeffs[0]},
                                      support=pou.functions[0].support)
    with pytest.raises(UndecidedCertificateError):
        PartitionOfUnity(pou.cover, [doubled, pou.functions[1]])


def _discrete_kernel_pair(rng):
    u1, u2 = OpenSet(DS, rand_labels(rng)), OpenSet(DS, rand_labels(rng))
    v = u1.intersect(u2)
    k = rng.randint(1, 2)
    coeffs = {}
    for l in enumerate_upto(k, rng.randint(0, 2)):
        w = {p: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
             for p in sorted(v.region) if rng.randint(0, 1)}
        if any(w.values()):
            coeffs[l] = ((mi(()), BaseDensity.discrete(DS, w)),)
    return u1, u2, v, FormalDensity(DS, v, k, coeffs)


def _line_kernel_pair(rng):
    while True:
        # u2 = u1 at times, so that v has several pieces and the
        # support may span a gap
        u1 = rand_line_region(rng)
        u2 = u1 if rng.randint(0, 1) else rand_line_region(rng)
        v = u1.intersect(u2)
        if not v.is_empty:
            break
    coeffs = {}
    for _ in range(rng.randint(1, 2)):
        e, supp, _ = ref_window_bump(*line_window(rng, v))
        coeffs[(0,)] = coeffs.get((0,), ()) + (
            ((rng.randint(0, 1),), BaseDensity.smooth(SL, e, supp)),)
    return u1, u2, v, FormalDensity(SL, v, 1, coeffs)


@pytest.mark.parametrize("make_pair, seed, rounds", [
    (_discrete_kernel_pair, 937, 60),
    (_line_kernel_pair, 941, 10),
])
def test_mv_split_cutoff_matches(make_pair, seed, rounds):
    rng = random.Random(seed)
    for _ in range(rounds):
        u1, u2, v, z = make_pair(rng)
        e1, e2 = mv_psi(z, u1, u2)
        kset = e1.support() | e2.support()
        trunc = max(e1.star_degree(), e2.star_degree())
        if not kset:
            assert mv_split(e1, e2) == FormalDensity.zero(z.space, v, z.k)
            continue
        try:
            g = ref_mv_cutoff(z.space, u1, v, kset, z.k, trunc)
        except SupportError as exc:
            with pytest.raises(SupportError, match=str(exc)):
                mv_split(e1, e2)
            continue
        got = mv_split(e1, e2)
        want = e1.cutoff_restrict(g, v)
        assert got.to_json() == want.to_json()
        assert got == want
