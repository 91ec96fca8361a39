"""Covers, partitions of unity, Mayer-Vietoris, cosheaf, gluing, flabbiness."""

import math
import random
from fractions import Fraction

import pytest

from formalcalc.basedensity import BaseDensity
from formalcalc.densities import FormalDensity
from formalcalc.distributions import (BaseDistribution,
                                      CompactFormalDistribution,
                                      FormalDistribution,
                                      GeneralizedFunction, PointTerm,
                                      SmoothTerm)
from formalcalc.errors import (CertificateError, DomainMismatchError,
                               IncompatibilityError, SupportError)
from formalcalc.expr import ONE, X, bump, pow_
from formalcalc.functions import (FormalFunction, SupportedFormalFunction,
                                  cutoff)
from formalcalc.multiindex import enumerate_upto, mi
from formalcalc.scalars import QC
from formalcalc.sheaf import (Cover, PartitionOfUnity, build_pou,
                              cosheaf_decompose, cosheaf_reassemble,
                              dual_density_family, dual_function_family,
                              flabby_check, functional_residual,
                              functional_zero_residual, mv_phi, mv_psi,
                              mv_split, sheaf_glue)
from formalcalc.spaces import Discrete, OpenSet, RSet, SmoothLine

DS = Discrete(["a", "b", "c", "d"])
SL = SmoothLine()
U1 = OpenSet(DS, ["a", "b", "c"])
U2 = OpenSet(DS, ["b", "c", "d"])
VV = OpenSet(DS, ["b", "c"])


def rand_density(rng, domain, k, star):
    coeffs = {}
    for l in enumerate_upto(k, star):
        if rng.random() < 0.3:
            continue
        tau = BaseDensity.discrete(
            DS, {p: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for p in sorted(domain.region) if rng.random() < 0.7})
        coeffs[l] = ((mi(()), tau),)
    return FormalDensity(DS, domain, k, coeffs)


# -- covers and partitions of unity ----------------------------------------------


def test_cover_validation():
    c = Cover(DS.whole(), [U1, U2])
    assert len(c) == 2
    with pytest.raises(ValueError):
        Cover(DS.whole(), [])
    with pytest.raises(ValueError):
        Cover(U1, [U1, U2])  # part escapes the whole set
    with pytest.raises(ValueError):
        Cover(DS.whole(), [U1])  # does not exhaust
    with pytest.raises(DomainMismatchError):
        Cover(DS.whole(), [OpenSet(SL, [(0, 1)])])


def test_discrete_pou_first_match_indicators():
    pou = build_pou(Cover(DS.whole(), [U1, U2]), 1, 2)
    assert pou.grid_residual == 0.0
    f1, f2 = pou.functions
    assert f1.coeff((0,)) == {"a": QC(1), "b": QC(1), "c": QC(1)}
    assert f2.coeff((0,)) == {"d": QC(1)}
    assert f1.support <= U1.region and f2.support <= U2.region


def test_pou_constructor_validations():
    cover = Cover(DS.whole(), [U1, U2])
    ind1 = cutoff(DS, DS.whole(), 1, 1, U1.region, U1.region)
    ind2 = cutoff(DS, DS.whole(), 1, 1, U2.region, U2.region)
    with pytest.raises(ValueError):
        PartitionOfUnity(cover, [ind1])
    with pytest.raises(CertificateError):
        PartitionOfUnity(cover, [ind1, ind2])  # double-counts b and c
    ydep = SupportedFormalFunction(DS, DS.whole(), 1, 1, {(1,): {"a": 1}},
                                   support=frozenset({"a"}))
    with pytest.raises(ValueError):
        PartitionOfUnity(cover, [ydep, ind2])
    off = cutoff(DS, U1, 1, 1, ["a"], ["a"])
    with pytest.raises(DomainMismatchError):
        PartitionOfUnity(cover, [off, ind2])
    wide = cutoff(DS, DS.whole(), 1, 1, ["a", "d"], ["a", "d"])
    with pytest.raises(SupportError):
        PartitionOfUnity(cover, [wide, cutoff(DS, DS.whole(), 1, 1, ["b", "c"],
                                              ["b", "c"])])


def test_smooth_pou_two_parts():
    whole = OpenSet(SL, [(-4, 4)])
    cover = Cover(whole, [OpenSet(SL, [(-4, 1)]), OpenSet(SL, [(-1, 4)])])
    pou = build_pou(cover, 1, 1)
    assert pou.grid_residual <= 1e-12
    for f, part in zip(pou.functions, cover.parts):
        assert f.support.is_subset(part.region)
        assert list(f.coeffs) == [(0,)]
    # the shared-denominator construction is an algebraic identity
    assert pou.grid_residual < 1e-20


def test_smooth_pou_single_part_is_constant_one():
    whole = OpenSet(SL, [(-2, 2)])
    pou = build_pou(Cover(whole, [whole]), 1, 0)
    assert pou.functions[0].coeff((0,)) is ONE or \
        pou.functions[0].coeff((0,)) == ONE


def test_smooth_pou_three_parts_with_gap_piece():
    whole = OpenSet(SL, [(-6, 6)])
    cover = Cover(whole, [OpenSet(SL, [(-6, -1)]), OpenSet(SL, [(-2, 2)]),
                          OpenSet(SL, [(1, 6)])])
    pou = build_pou(cover, 1, 0)
    assert pou.grid_residual <= 1e-12
    for f, part in zip(pou.functions, cover.parts):
        assert f.support.is_subset(part.region)


# -- spanning families --------------------------------------------------------------


def test_discrete_dual_families_are_complete_bases():
    fam = dual_function_family(DS, DS.whole(), 2, 1)
    assert len(fam) == 4 * len(enumerate_upto(2, 1))
    assert all(len(f.support) == 1 for f in fam)
    dens = dual_density_family(DS, VV, 1, 2)
    assert len(dens) == 2 * len(enumerate_upto(1, 2))


def test_smooth_dual_families_are_bounded_probes():
    dom = OpenSet(SL, [(-4, 4)])
    fam = dual_function_family(SL, dom, 1, 1, xdeg_cap=1)
    assert fam and all(f.support.is_bounded for f in fam)
    dens = dual_density_family(SL, dom, 1, 1, xdeg_cap=0, stack_cap=1)
    stacks = {next(iter(t))[0] for d in dens
              for t in (d.coeffs.get(l) for l in d.coeffs)}
    assert stacks == {(0,), (1,)}


def test_functional_residual_reports_worst_witness():
    eta = rand_density(random.Random(7), DS.whole(), 1, 1)
    shifted = eta.add(FormalDensity.monomial(
        DS, DS.whole(), 1, (0,), BaseDensity.discrete(DS, {"c": 5})))
    probes = dual_function_family(DS, DS.whole(), 1, 1)
    resid, witness = functional_residual(eta, shifted, probes)
    assert resid == 5.0
    assert witness.support == frozenset({"c"})
    assert functional_zero_residual(eta.add(eta.scale(-1)), probes) == (0.0, None)


def test_exact_gaps_below_float_resolution_are_not_zero():
    # 1 and 1 + 10^-30 are one float apart by 0.0, and 10^-400 is 0.0 as
    # a float: the first gap is read exactly, the second as the least
    # positive float, so neither unequal pair passes at tolerance 0
    probes = dual_function_family(DS, DS.whole(), 1, 0)
    one, near = (FormalDensity.monomial(DS, DS.whole(), 1, (0,),
                                        BaseDensity.discrete(DS, {"c": w}))
                 for w in (1, 1 + Fraction(1, 10 ** 30)))
    resid, witness = functional_residual(one, near, probes)
    assert resid == 1e-30 and witness.support == frozenset({"c"})
    tiny = FormalDensity.monomial(DS, VV, 1, (0,), BaseDensity.discrete(
        DS, {"b": Fraction(1, 10 ** 400)}))
    probes = dual_function_family(DS, VV, 1, 0)
    assert functional_zero_residual(tiny, probes)[0] == math.ulp(0.0)
    assert flabby_check([tiny], DS.whole())


def test_functional_residual_refuses_different_value_dimensions():
    # comparing only the shared E-components read T1 and T2 as equal
    z = BaseDistribution.zero(DS)
    w = BaseDistribution.point(DS, "a")
    t1 = FormalDistribution(DS, DS.whole(), 1, 1, {(0,): (z,)})
    t2 = FormalDistribution(DS, DS.whole(), 1, 2, {(0,): (z, w)})
    probes = dual_function_family(DS, DS.whole(), 1, 1)
    with pytest.raises(DomainMismatchError):
        functional_residual(t1, t2, probes)
    with pytest.raises(DomainMismatchError):
        functional_residual(t2, t1, probes)
    assert functional_residual(t2, t2, probes) == (0.0, None)


def test_functional_residual_refuses_different_value_dimensions_without_probes():
    # with no probe to read, E_dim 1 against E_dim 2 read as equal
    empty = OpenSet(DS, [])
    t1 = FormalDistribution(DS, empty, 1, 1)
    t2 = FormalDistribution(DS, empty, 1, 2)
    for probes in (dual_function_family(DS, empty, 1, 1), []):
        with pytest.raises(DomainMismatchError):
            functional_residual(t1, t2, probes)
    assert functional_residual(t2, t2, dual_function_family(
        DS, empty, 1, 1)) == (0.0, None)


# -- Mayer-Vietoris ------------------------------------------------------------------


def test_mv_phi_after_psi_is_zero_discrete():
    rng = random.Random(223)
    for _ in range(100):
        z = rand_density(rng, VV, rng.randint(1, 2), rng.randint(0, 2))
        e1, e2 = mv_psi(z, U1, U2)
        assert mv_phi(e1, e2).is_exactly_zero()


def test_mv_split_recovers_kernel_pairs_discrete():
    rng = random.Random(227)
    for _ in range(100):
        k = rng.randint(1, 2)
        z = rand_density(rng, VV, k, rng.randint(0, 2))
        e1, e2 = mv_psi(z, U1, U2)
        z2 = mv_split(e1, e2)
        assert z2.domain == VV
        p1 = dual_function_family(DS, U1, k, max(z.star_degree(), 0))
        p2 = dual_function_family(DS, U2, k, max(z.star_degree(), 0))
        assert functional_residual(z2.ext(U1), e1, p1)[0] == 0.0
        assert functional_residual(z2.scale(-1).ext(U2), e2, p2)[0] == 0.0


def test_mv_split_rejects_non_kernel_pairs():
    tau = BaseDensity.discrete(DS, {"a": 1})
    e1 = FormalDensity.monomial(DS, U1, 1, (0,), tau)
    e2 = FormalDensity.zero(DS, U2, 1)
    with pytest.raises(IncompatibilityError) as exc:
        mv_split(e1, e2)
    assert exc.value.residual == 1.0
    assert exc.value.first == 0 and exc.value.second == 1
    assert exc.value.probe is not None


def test_mv_split_smooth_line():
    u1 = OpenSet(SL, [(-2, 1)])
    u2 = OpenSet(SL, [(-1, 2)])
    e, supp, _ = bump(Fraction(-1, 2), Fraction(-1, 4), Fraction(1, 4),
                      Fraction(1, 2))
    tau = BaseDensity.smooth(SL, e, supp)
    z = FormalDensity.monomial(SL, u1.intersect(u2), 1, (1,), tau, i=(1,))
    e1, e2 = mv_psi(z, u1, u2)
    z2 = mv_split(e1, e2)
    probes = dual_function_family(SL, u1, 1, 1)
    resid, _ = functional_residual(z2.ext(u1), e1, probes)
    assert resid < 1e-8


def test_mv_split_smooth_rejects_support_spanning_a_gap():
    u1 = OpenSet(SL, [(-2, 0), (0, 1)])
    u2 = OpenSet(SL, [(-1, 2)])
    v = u1.intersect(u2)
    el, sl_, _ = bump(Fraction(-4, 5), Fraction(-3, 5), Fraction(-2, 5),
                      Fraction(-1, 5))
    er, sr, _ = bump(Fraction(1, 5), Fraction(2, 5), Fraction(3, 5),
                     Fraction(4, 5))
    z = FormalDensity(SL, v, 1, {
        (0,): ((mi((0,)), BaseDensity.smooth(SL, el, sl_)),
               (mi((0,)), BaseDensity.smooth(SL, er, sr)))})
    e1, e2 = mv_psi(z, u1, u2)
    with pytest.raises(SupportError):
        mv_split(e1, e2)


# -- cosheaf decomposition ------------------------------------------------------------


def test_cosheaf_roundtrip_densities_discrete():
    rng = random.Random(229)
    pou = build_pou(Cover(DS.whole(), [U1, U2]), 1, 2)
    probes = dual_function_family(DS, DS.whole(), 1, 2)
    for _ in range(60):
        eta = rand_density(rng, DS.whole(), 1, 2)
        locs = cosheaf_decompose(eta, pou)
        assert [loc.domain for loc in locs] == [U1, U2]
        back = cosheaf_reassemble(locs, DS.whole())
        assert functional_residual(back, eta, probes)[0] == 0.0


def test_cosheaf_roundtrip_functions_discrete():
    rng = random.Random(233)
    pou = build_pou(Cover(DS.whole(), [U1, U2]), 1, 2)
    for _ in range(60):
        coeffs = {j: {p: Fraction(rng.randint(-4, 4), 2) for p in DS.points
                      if rng.random() < 0.7}
                  for j in enumerate_upto(1, 2)}
        u = SupportedFormalFunction(DS, DS.whole(), 1, 2, coeffs)
        back = cosheaf_reassemble(cosheaf_decompose(u, pou), DS.whole())
        assert back.coeffs == u.coeffs


def test_cosheaf_roundtrip_compact_distributions_discrete():
    rng = random.Random(239)
    pou = build_pou(Cover(DS.whole(), [U1, U2]), 1, 1)
    probes = dual_function_family(DS, DS.whole(), 1, 1)
    for _ in range(60):
        w = BaseDistribution(
            DS, weights={p: Fraction(rng.randint(-3, 3), 2) for p in DS.points
                 if rng.random() < 0.7})
        eta = CompactFormalDistribution(DS, DS.whole(), 1, 1,
                                        {(0,): (w,), (1,): (w.scale(-2),)})
        if eta.is_exactly_zero():
            continue
        locs = cosheaf_decompose(eta, pou)
        for loc, part in zip(locs, pou.cover.parts):
            assert loc.domain == part
        back = cosheaf_reassemble(locs, DS.whole())
        assert functional_residual(back, eta, probes)[0] == 0.0


def test_cosheaf_roundtrip_smooth_density():
    whole = OpenSet(SL, [(-4, 4)])
    cover = Cover(whole, [OpenSet(SL, [(-4, 1)]), OpenSet(SL, [(-1, 4)])])
    pou = build_pou(cover, 1, 1)
    e, supp, _ = bump(Fraction(-1, 2), Fraction(-1, 4), Fraction(1, 4),
                      Fraction(1, 2))
    eta = FormalDensity.monomial(SL, whole, 1, (1,),
                                 BaseDensity.smooth(SL, e, supp), i=(1,))
    back = cosheaf_reassemble(cosheaf_decompose(eta, pou), whole)
    probes = dual_function_family(SL, whole, 1, 1, xdeg_cap=1)
    resid, _ = functional_residual(back, eta, probes)
    assert resid < 1e-8


def test_cosheaf_roundtrip_smooth_compact_distribution():
    whole = OpenSet(SL, [(-4, 4)])
    cover = Cover(whole, [OpenSet(SL, [(-4, 1)]), OpenSet(SL, [(-1, 4)])])
    pou = build_pou(cover, 1, 1)
    box = RSet.closed_pairs([(Fraction(-1, 2), Fraction(1, 2))])
    w = BaseDistribution(SL, terms=(SmoothTerm(X, box),
                                    PointTerm(Fraction(0), 1, 1)))
    eta = CompactFormalDistribution(SL, whole, 1, 1,
                                    {(0,): (w,), (1,): (w,)}, support=box)
    locs = cosheaf_decompose(eta, pou)
    for loc, part in zip(locs, cover.parts):
        assert loc.support.is_subset(part.region)
    back = cosheaf_reassemble(locs, whole)
    probes = dual_function_family(SL, whole, 1, 1, xdeg_cap=1)
    resid, _ = functional_residual(back, eta, probes)
    assert resid < 1e-8


def test_cosheaf_decompose_rejects_foreign_sections():
    pou = build_pou(Cover(DS.whole(), [U1, U2]), 1, 1)
    with pytest.raises(TypeError):
        cosheaf_decompose(3, pou)
    with pytest.raises(TypeError):
        cosheaf_reassemble([3], DS.whole())
    off = rand_density(random.Random(5), U1, 1, 1)
    with pytest.raises(DomainMismatchError):
        cosheaf_decompose(off, pou)


# -- sheaf gluing ----------------------------------------------------------------------


def test_glue_generalized_functions_discrete():
    rng = random.Random(241)
    pou = build_pou(Cover(DS.whole(), [U1, U2]), 1, 2)
    for _ in range(40):
        coeffs = {j: {p: Fraction(rng.randint(-4, 4), 2) for p in DS.points
                      if rng.random() < 0.7}
                  for j in enumerate_upto(1, 2)}
        g = GeneralizedFunction.embed(FormalFunction(DS, DS.whole(), 1, 2,
                                                     coeffs))
        glued = sheaf_glue([g.restrict(U1), g.restrict(U2)], pou)
        assert glued.trunc == 2
        probes = dual_density_family(DS, DS.whole(), 1, 2)
        assert functional_residual(glued, g, probes)[0] == 0.0


def test_glue_generalized_locals_of_unequal_trunc_keeps_the_least():
    # the glued cap is the least trunc: the keys of degree 2 the first
    # local holds are dropped, not refused
    pou = build_pou(Cover(DS.whole(), [U1, U2]), 1, 2)
    coeffs = {(0,): {"a": 1, "c": 2}, (1,): {"b": 3}, (2,): {"a": 5, "d": 1}}
    high = GeneralizedFunction.embed(FormalFunction(DS, DS.whole(), 1, 2,
                                                    coeffs))
    low = GeneralizedFunction.embed(FormalFunction(
        DS, DS.whole(), 1, 1, {j: c for j, c in coeffs.items() if j != (2,)}))
    glued = sheaf_glue([high.restrict(U1), low.restrict(U2)], pou)
    assert glued.trunc == 1 and set(glued.coeffs) == {(0,), (1,)}
    probes = dual_density_family(DS, DS.whole(), 1, 1)
    assert functional_residual(glued, low, probes)[0] == 0.0


def test_glue_formal_distributions_discrete():
    rng = random.Random(251)
    pou = build_pou(Cover(DS.whole(), [U1, U2]), 1, 1)
    for _ in range(40):
        coeffs = {}
        for l in enumerate_upto(1, 1):
            coeffs[l] = (BaseDistribution(
                DS, weights={p: Fraction(rng.randint(-3, 3), 2) for p in DS.points
                     if rng.random() < 0.7}),)
        eta = FormalDistribution(DS, DS.whole(), 1, 1, coeffs)
        glued = sheaf_glue([eta.restrict(U1), eta.restrict(U2)], pou)
        probes = dual_function_family(DS, DS.whole(), 1, 1)
        assert functional_residual(glued, eta, probes)[0] == 0.0


def test_glue_rejects_incompatible_locals():
    pou = build_pou(Cover(DS.whole(), [U1, U2]), 1, 1)
    w = BaseDistribution(DS, weights={"a": 1, "b": 2})
    eta = FormalDistribution(DS, DS.whole(), 1, 1, {(0,): (w,)})
    bad = eta.restrict(U2).add(FormalDistribution(
        DS, U2, 1, 1, {(0,): (BaseDistribution(DS, weights={"c": 1}),)}))
    with pytest.raises(IncompatibilityError) as exc:
        sheaf_glue([eta.restrict(U1), bad], pou)
    assert exc.value.first == 0 and exc.value.second == 1
    assert exc.value.residual == 1.0


def test_glue_structural_validations():
    pou = build_pou(Cover(DS.whole(), [U1, U2]), 1, 1)
    w = BaseDistribution(DS, weights={"a": 1})
    eta = FormalDistribution(DS, DS.whole(), 1, 1, {(0,): (w,)})
    g = GeneralizedFunction.zero(DS, U1, 1, 1)
    with pytest.raises(ValueError):
        sheaf_glue([eta.restrict(U1)], pou)
    with pytest.raises(TypeError):
        sheaf_glue([g, eta.restrict(U2)], pou)
    with pytest.raises(DomainMismatchError):
        sheaf_glue([eta.restrict(U2), eta.restrict(U2)], pou)


def test_glue_generalized_smooth_line():
    whole = OpenSet(SL, [(-4, 4)])
    cover = Cover(whole, [OpenSet(SL, [(-4, 1)]), OpenSet(SL, [(-1, 4)])])
    pou = build_pou(cover, 1, 1)
    u = FormalFunction(SL, whole, 1, 1, {(0,): pow_(X, 2), (1,): X})
    g = GeneralizedFunction.embed(u)
    glued = sheaf_glue([g.restrict(p) for p in cover.parts], pou)
    probes = dual_density_family(SL, whole, 1, 1, xdeg_cap=1, stack_cap=1)
    resid, _ = functional_residual(glued, g, probes)
    assert resid < 1e-8


# -- flabbiness ---------------------------------------------------------------------------


def test_flabby_check_discrete_family():
    rng = random.Random(257)
    sections = [rand_density(rng, VV, 1, 1) for _ in range(20)]
    sections.append(FormalDensity.zero(DS, VV, 1))
    w = BaseDistribution(DS, weights={"b": Fraction(1, 3)})
    sections.append(CompactFormalDistribution(DS, VV, 1, 1, {(0,): (w,)}))
    sections.append(SupportedFormalFunction(DS, VV, 1, 1, {(0,): {"c": 2}},
                                            support=frozenset({"c"})))
    assert flabby_check(sections, DS.whole())
    with pytest.raises(TypeError):
        flabby_check([3], DS.whole())


def test_flabby_check_smooth_positive():
    v = OpenSet(SL, [(-1, 1)])
    whole = OpenSet(SL, [(-4, 4)])
    e, supp, _ = bump(Fraction(1, 5), Fraction(2, 5), Fraction(3, 5),
                      Fraction(4, 5))
    eta = FormalDensity.monomial(SL, v, 1, (0,), BaseDensity.smooth(SL, e, supp))
    assert flabby_check([eta], whole)


def test_flabby_check_sees_only_what_probes_reach():
    # the smooth probe family leaves a margin near the boundary; a
    # density hiding entirely inside that margin is invisible to it, so
    # the check reports failure rather than pretending completeness
    v = OpenSet(SL, [(3, 4)])
    whole = OpenSet(SL, [(-4, 4)])
    e, supp, _ = bump(Fraction(16, 5), Fraction(33, 10), Fraction(17, 5),
                      Fraction(18, 5))
    eta = FormalDensity.monomial(SL, v, 1, (0,), BaseDensity.smooth(SL, e, supp))
    assert not flabby_check([eta], whole)
