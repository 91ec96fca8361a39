"""End-to-end acceptance gate.

Eleven verifications, one test each, covering the pairing normal form,
operator/pairing consistency, naturality of extension, flabbiness,
the Mayer-Vietoris sequence, sheaf gluing, the cosheaf right inverse,
cutoff-independence of dual extension, point-basis duality, vector
value spaces, and smooth-backend sanity. Discrete checks are exact
(no tolerance); smooth checks run at the stated tolerances. Each test
prints a single PASS line; wall-clock budgets are asserted where the
contract pins them.
"""

import math
import random
import string
import time
from fractions import Fraction

from formalcalc.basedensity import BaseDensity
from formalcalc.densities import FormalDensity
from formalcalc.diffops import DensityDiffOp
from formalcalc.distributions import (BaseDistribution,
                                      CompactFormalDistribution,
                                      FormalDistribution,
                                      GeneralizedFunction, cutoff_extend,
                                      dist_space_dimension,
                                      normalized_monomial, point_basis)
from formalcalc.expr import Const, X, add, bump, ev, mul, pow_
from formalcalc.functions import (FormalFunction, SupportedFormalFunction,
                                  cutoff)
from formalcalc.multiindex import enumerate_upto, mi, mi_factorial
from formalcalc.scalars import QC
from formalcalc.sheaf import (Cover, build_pou, cosheaf_decompose,
                              cosheaf_reassemble, dual_density_family,
                              dual_function_family, flabby_check,
                              functional_residual, mv_phi, mv_psi, mv_split,
                              sheaf_glue)
from formalcalc.spaces import Discrete, OpenSet, SmoothLine

MODULE_START = time.monotonic()

SL = SmoothLine()


def rand_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def rand_qc(rng):
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


def rand_poly(rng, deg=2):
    e = Const(rand_qc(rng))
    for d in range(1, deg + 1):
        if rng.randint(0, 1):
            e = add(e, mul(Const(rand_qc(rng)), pow_(X, d)))
    return e


def rand_bump_tau(rng, lo, hi):
    w = hi - lo
    i = rng.randint(1, 4)
    j = rng.randint(i + 2, 7)
    wlo, whi = lo + w * Fraction(i, 8), lo + w * Fraction(j, 8)
    ww = whi - wlo
    bexpr, supp, _ = bump(wlo, wlo + ww / 4, whi - ww / 4, whi)
    return BaseDensity.smooth(SL, mul(bexpr, rand_poly(rng)), supp), supp


def test_pairing_normal_form_matches_brute_force_summation():
    """The canonical pairing agrees with a raw-dictionary evaluation of
    sum_L L! sum_terms sum_p tau_L[p] * u_L[p] on 1000 random instances."""
    rng = random.Random(20260817)
    t0 = time.monotonic()
    for _ in range(1000):
        npts = rng.randint(1, 5)
        space = Discrete(list(string.ascii_lowercase[:npts]))
        dom = space.whole()
        k = rng.randint(1, 2)
        trunc = rng.randint(0, 4)
        star = rng.randint(0, trunc)
        raw_dens = {}
        for l in enumerate_upto(k, star):
            terms = []
            for _t in range(rng.randint(0, 2)):
                w = rand_weights(rng, dom.region)
                if w:
                    terms.append((mi(()), dict(w)))
            if terms:
                raw_dens[mi(l)] = terms
        raw_fun = {}
        for j in enumerate_upto(k, trunc):
            w = rand_weights(rng, dom.region)
            if w:
                raw_fun[mi(j)] = w
        eta = FormalDensity(space, dom, k, {
            l: tuple((i, BaseDensity.discrete(space, tau)) for i, tau in terms)
            for l, terms in raw_dens.items()})
        u = FormalFunction(space, dom, k, trunc, raw_fun)
        want = QC(0)
        for l, terms in raw_dens.items():
            ul = raw_fun.get(l, {})
            for _i, tau in terms:
                for p, w in tau.items():
                    want = want + mi_factorial(l) * w * ul.get(p, QC(0))
        assert eta.pair(u) == want
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print("PASS: pairing normal form == brute force on 1000 random "
          "instances, exact, %.2fs" % elapsed)


def test_operator_normal_form_pairs_like_direct_application():
    """pair(rho(D), u) equals integrate(apply(D, u)): 500 exact discrete
    instances and 50 smooth instances within 1e-8, under 60 seconds."""
    rng = random.Random(20260818)
    t0 = time.monotonic()
    for _ in range(500):
        npts = rng.randint(1, 5)
        space = Discrete(list(string.ascii_lowercase[:npts]))
        dom = space.whole()
        k = rng.randint(1, 2)
        star = rng.randint(0, 2)
        terms = {}
        for l in enumerate_upto(k, star):
            if rng.randint(0, 1):
                w = rand_weights(rng, dom.region)
                if w:
                    terms[(mi(()), mi(l))] = BaseDensity.discrete(space, w)
        op = DensityDiffOp(space, dom, k, terms)
        trunc = rng.randint(star, star + 2)
        coeffs = {}
        for j in enumerate_upto(k, trunc):
            w = rand_weights(rng, dom.region)
            if w:
                coeffs[mi(j)] = w
        u = FormalFunction(space, dom, k, trunc, coeffs)
        assert op.rho().pair(u) == op.apply(u).integrate(dom)
    dom = OpenSet(SL, [(-4, 4)])
    for _ in range(50):
        star = rng.randint(0, 2)
        terms = {}
        for l in enumerate_upto(1, star):
            if rng.randint(0, 1):
                tau, _ = rand_bump_tau(rng, Fraction(-2), Fraction(2))
                terms[(mi((rng.randint(0, 1),)), mi(l))] = tau
        op = DensityDiffOp(SL, dom, 1, terms)
        trunc = rng.randint(star, star + 1)
        u = FormalFunction(SL, dom, 1, trunc,
                           {mi(j): rand_poly(rng)
                            for j in enumerate_upto(1, trunc)
                            if rng.randint(0, 2)})
        lhs = op.rho().pair(u)
        rhs = op.apply(u).integrate(dom)
        assert abs(complex(lhs) - complex(rhs)) < 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print("PASS: pair(rho(D), u) == integrate(apply(D, u)) on 500 discrete "
          "(exact) + 50 smooth (1e-8) instances, %.2fs" % elapsed)


def test_normal_form_commutes_with_extension_by_zero():
    """rho after extension equals extension after rho, 200 exact
    discrete instances."""
    rng = random.Random(20260819)
    space = Discrete(["a", "b", "c", "d", "e"])
    whole = space.whole()
    for _ in range(200):
        pts = sorted(whole.region)
        sub = [p for p in pts if rng.randint(0, 1)] or [pts[0]]
        v = OpenSet(space, sub)
        k = rng.randint(1, 2)
        terms = {}
        for l in enumerate_upto(k, rng.randint(0, 2)):
            if rng.randint(0, 1):
                w = rand_weights(rng, v.region)
                if w:
                    terms[(mi(()), mi(l))] = BaseDensity.discrete(space, w)
        op = DensityDiffOp(space, v, k, terms)
        assert op.ext(whole).rho() == op.rho().ext(whole)
    print("PASS: rho(ext(D)) == ext(rho(D)) on 200 random discrete "
          "operators, exact")


def test_extension_by_zero_has_trivial_kernel_on_dual_families():
    """Over a four-point base, extension by zero from every nonempty
    open subset kills no member of the full dual density family."""
    space = Discrete(["a", "b", "c", "d"])
    whole = space.whole()
    pts = sorted(whole.region)
    subsets = 0
    for mask in range(1, 2 ** len(pts)):
        sub = [p for i, p in enumerate(pts) if mask & (1 << i)]
        v = OpenSet(space, sub)
        for k in (1, 2):
            fam = dual_density_family(space, v, k, 2)
            assert flabby_check(fam, whole, tol=0.0)
        subsets += 1
    assert subsets == 15
    print("PASS: extension kernel trivial on the full dual family for "
          "all 15 open subsets of a 4-point base, exact")


def test_mayer_vietoris_sequence_is_exact():
    """phi o psi = 0 for every two-set configuration of a four-point
    base, and mv_split inverts psi on 100 random kernel pairs with both
    extension identities exact."""
    rng = random.Random(20260820)
    space = Discrete(["a", "b", "c", "d"])
    pts = sorted(space.whole().region)
    configs = []
    for m1 in range(1, 16):
        for m2 in range(1, 16):
            if m1 | m2 != 15:
                continue
            u1 = OpenSet(space, [p for i, p in enumerate(pts) if m1 & (1 << i)])
            u2 = OpenSet(space, [p for i, p in enumerate(pts) if m2 & (1 << i)])
            configs.append((u1, u2))
    # each point sits in U1 only, U2 only, or both: 3^4 - 2 empty-side cases
    assert len(configs) == 79
    with_overlap = []
    for u1, u2 in configs:
        v = u1.intersect(u2)
        if v.is_empty:
            continue
        with_overlap.append((u1, u2, v))
        for _ in range(2):
            z = _rand_discrete_density(rng, space, v, 1, 2)
            e1, e2 = mv_psi(z, u1, u2)
            assert mv_phi(e1, e2).is_exactly_zero()
    for rd in range(100):
        u1, u2, v = with_overlap[rng.randrange(len(with_overlap))]
        k = rng.randint(1, 2)
        z = _rand_discrete_density(rng, space, v, k, 2)
        e1, e2 = mv_psi(z, u1, u2)
        split = mv_split(e1, e2)
        assert split.ext(u1) == e1
        assert split.ext(u2).scale(-1) == e2
    print("PASS: phi o psi == 0 on all %d overlapping configurations and "
          "mv_split inverts psi on 100 kernel pairs, exact"
          % len(with_overlap))


def _rand_discrete_density(rng, space, domain, k, star):
    coeffs = {}
    for l in enumerate_upto(k, star):
        if rng.randint(0, 1):
            w = rand_weights(rng, domain.region)
            if w:
                coeffs[mi(l)] = ((mi(()), BaseDensity.discrete(space, w)),)
    return FormalDensity(space, domain, k, coeffs)


def test_restrict_then_glue_is_the_identity():
    """Gluing the restrictions of a global functional over a 3-part
    cover reproduces it: exact on a 6-point base, within 1e-8 on the
    smooth line."""
    rng = random.Random(20260821)
    space = Discrete(["a", "b", "c", "d", "e", "f"])
    whole = space.whole()
    cover = Cover(whole, [OpenSet(space, ["a", "b", "c"]),
                          OpenSet(space, ["c", "d", "e"]),
                          OpenSet(space, ["e", "f"])])
    pou = build_pou(cover, 1, 3)
    for _ in range(50):
        coeffs = {}
        for j in enumerate_upto(1, 2):
            w = {p: tuple(rand_qc(rng) for _ in range(1))
                 for p in sorted(whole.region) if rng.randint(0, 1)}
            if w:
                coeffs[mi(j)] = tuple(
                    BaseDistribution(space,
                                     weights={p: v[0] for p, v in w.items()})
                    for _ in range(1))
        g = GeneralizedFunction(space, whole, 1, 2, 1, coeffs)
        glued = sheaf_glue([g.restrict(p) for p in cover.parts], pou)
        probes = dual_density_family(space, whole, 1, 2)
        assert functional_residual(glued, g, probes)[0] == 0.0
        t = FormalDistribution(space, whole, 1, 1, {
            mi(l): (BaseDistribution(space,
                                     weights=rand_weights(rng, whole.region)),)
            for l in enumerate_upto(1, 2) if rng.randint(0, 1)})
        glued = sheaf_glue([t.restrict(p) for p in cover.parts], pou)
        probes = dual_function_family(space, whole, 1, 2)
        assert functional_residual(glued, t, probes)[0] == 0.0
    m = OpenSet(SL, [(-6, 6)])
    scover = Cover(m, [OpenSet(SL, [(-6, -1)]), OpenSet(SL, [(-3, 3)]),
                       OpenSet(SL, [(1, 6)])])
    spou = build_pou(scover, 1, 2)
    for _ in range(2):
        u = FormalFunction(SL, m, 1, 1,
                           {(0,): rand_poly(rng), (1,): rand_poly(rng)})
        g = GeneralizedFunction.embed(u)
        glued = sheaf_glue([g.restrict(p) for p in scover.parts], spou)
        probes = dual_density_family(SL, m, 1, 1, xdeg_cap=1, stack_cap=1)
        resid, _ = functional_residual(glued, g, probes)
        assert resid < 1e-8
    print("PASS: restrict-then-glue identity on 50 discrete families "
          "(exact) and 2 smooth families (1e-8)")


def test_cosheaf_decomposition_right_inverts_extension():
    """Decompose-then-extend is the identity for supported functions,
    densities, and compactly supported distributions (60 random
    discrete instances each, exact)."""
    rng = random.Random(20260822)
    space = Discrete(["a", "b", "c", "d", "e", "f"])
    whole = space.whole()
    cover = Cover(whole, [OpenSet(space, ["a", "b", "c"]),
                          OpenSet(space, ["c", "d", "e"]),
                          OpenSet(space, ["e", "f"])])
    pou = build_pou(cover, 1, 2)
    for _ in range(60):
        coeffs = {}
        for j in enumerate_upto(1, 2):
            w = rand_weights(rng, whole.region)
            if w:
                coeffs[mi(j)] = w
        u = SupportedFormalFunction(space, whole, 1, 2, coeffs)
        back = cosheaf_reassemble(cosheaf_decompose(u, pou), whole)
        assert back.coeffs == u.coeffs
        eta = _rand_discrete_density(rng, space, whole, 1, 2)
        back = cosheaf_reassemble(cosheaf_decompose(eta, pou), whole)
        assert back == eta
        dist = CompactFormalDistribution(space, whole, 1, 1, {
            mi(l): (BaseDistribution(space,
                                     weights=rand_weights(rng, whole.region)),)
            for l in enumerate_upto(1, 2) if rng.randint(0, 1)})
        back = cosheaf_reassemble(cosheaf_decompose(dist, pou), whole)
        probes = dual_function_family(space, whole, 1, 2)
        assert functional_residual(back, dist, probes)[0] == 0.0
    print("PASS: cosheaf decompose-then-extend identity for functions, "
          "densities, distributions; 60 exact instances each")


def test_dual_extension_is_cutoff_independent():
    """cutoff_extend reads the same values through any admissible
    cutoff: 100 random global sections against two cutoffs, exact."""
    rng = random.Random(20260823)
    space = Discrete(["a", "b", "c", "d", "e"])
    whole = space.whole()
    for _ in range(100):
        pts = sorted(whole.region)
        supp = frozenset(p for p in pts if rng.randint(0, 1)) \
            or frozenset({pts[0]})
        coeffs = {}
        for l in enumerate_upto(1, 2):
            if rng.randint(0, 1):
                w = rand_weights(rng, supp)
                if w:
                    coeffs[mi(l)] = (BaseDistribution(space, weights=w),)
        eta = CompactFormalDistribution(space, whole, 1, 1, coeffs,
                                        support=supp)
        f1 = cutoff(space, whole, 1, 2, supp, supp)
        extra = supp | {pts[rng.randrange(len(pts))]}
        f2 = cutoff(space, whole, 1, 2, extra, extra)
        u = FormalFunction(space, whole, 1, 2,
                           {mi(j): rand_weights(rng, whole.region)
                            for j in enumerate_upto(1, 2)})
        assert cutoff_extend(eta, f1)(u) == cutoff_extend(eta, f2)(u)
    print("PASS: dual extension agrees across admissible cutoffs on 100 "
          "random sections, exact")


def test_point_functionals_are_dual_to_normalized_monomials():
    """On the smooth line the point-distribution basis evaluates the
    normalized monomials x^I y^J / (I! J!) with |I|+|J| <= 4 to the
    identity matrix, symbolically exactly, for k = 1 and k = 2; the
    basis size matches the monomial count."""
    r = 4
    m = SL.whole()
    a = Fraction(0)
    total = 0
    for k in (1, 2):
        basis = point_basis(SL, m, k, a, r)
        keys = enumerate_upto(1 + k, r)
        assert len(basis) == len(keys) == dist_space_dimension(1, k, r) \
            == math.comb(1 + k + r, 1 + k)
        for row, pd in enumerate(basis):
            for col, mkey in enumerate(keys):
                i, j = mkey[:1], mkey[1:]
                mono = normalized_monomial(SL, m, k, r, i, j)
                got = pd.apply(mono)[0]
                assert got == (QC(1) if row == col else QC(0))
                total += 1
    print("PASS: point-basis evaluation matrix is the exact identity "
          "(%d entries over k=1,2, orders <= 4)" % total)


def test_vector_valued_distributions_act_componentwise():
    """With a three-dimensional value space, application, addition, and
    scaling all reduce to the three scalar components: 200 random
    exact instances."""
    rng = random.Random(20260824)
    space = Discrete(["a", "b", "c", "d"])
    whole = space.whole()
    for _ in range(200):
        k = rng.randint(1, 2)
        star = rng.randint(0, 2)
        coeffs = {}
        for l in enumerate_upto(k, star):
            if rng.randint(0, 1):
                coeffs[mi(l)] = tuple(
                    BaseDistribution(space,
                                     weights=rand_weights(rng, whole.region))
                    for _ in range(3))
        eta = FormalDistribution(space, whole, k, 3, coeffs)
        other = FormalDistribution(space, whole, k, 3, {
            mi(l): tuple(BaseDistribution(space,
                                          weights=rand_weights(rng,
                                                               whole.region))
                         for _ in range(3))
            for l in enumerate_upto(k, star) if rng.randint(0, 1)})
        c = rand_qc(rng)
        trunc = rng.randint(star, star + 2)
        fc = {}
        for j in enumerate_upto(k, trunc):
            w = rand_weights(rng, whole.region)
            if w:
                fc[mi(j)] = w
        u = SupportedFormalFunction(space, whole, k, trunc, fc)
        whole_vec = eta.apply(u)
        sum_vec = eta.add(other).apply(u)
        scaled_vec = eta.scale(c).apply(u)
        other_vec = other.apply(u)
        assert len(whole_vec) == 3
        for j in range(3):
            assert eta.component(j).apply(u) == [whole_vec[j]]
            assert sum_vec[j] == whole_vec[j] + other_vec[j]
            assert scaled_vec[j] == c * whole_vec[j]
    print("PASS: three-component value space acts componentwise on 200 "
          "random instances, exact")


def test_smooth_backend_sanity():
    """Total derivatives of compactly supported densities integrate to
    zero (1e-8); bump plateaus are exactly one and tails exactly zero;
    a smooth partition of unity sums to one within 1e-12 on the grid;
    and the whole acceptance module stays under three minutes."""
    rng = random.Random(20260825)
    whole = SL.whole()
    box = OpenSet(SL, [(-5, 5)])
    for _ in range(5):
        tau, _supp = rand_bump_tau(rng, Fraction(-4), Fraction(4))
        total = tau.diff().integrate(box)
        assert abs(complex(total)) < 1e-8
    bexpr, _supp, _plat = bump(Fraction(-2), Fraction(-1), Fraction(1),
                               Fraction(2))
    for x in (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1)):
        assert ev(bexpr, x) == 1
    for x in (Fraction(-3), Fraction(-2), Fraction(2), Fraction(7, 2)):
        assert ev(bexpr, x) == QC(0)
    m = OpenSet(SL, [(-6, 6)])
    cover = Cover(m, [OpenSet(SL, [(-6, -1)]), OpenSet(SL, [(-3, 3)]),
                      OpenSet(SL, [(1, 6)])])
    pou = build_pou(cover, 1, 2)
    assert pou.grid_residual <= 1e-12
    elapsed = time.monotonic() - MODULE_START
    assert elapsed < 180.0
    print("PASS: total-derivative integrals vanish (1e-8), bump values "
          "exact on plateau and tails, partition grid residual %.3g "
          "(<= 1e-12), module time %.1fs (< 180s)"
          % (pou.grid_residual, elapsed))
