"""Distributions, generalized functions, and point functionals."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from formalcalc.basedensity import BaseDensity
from formalcalc.densities import FormalDensity
from formalcalc.distributions import (BaseDistribution,
                                      CompactFormalDistribution,
                                      FormalDistribution,
                                      GeneralizedFunction, PointDistribution,
                                      PointTerm, SmoothTerm, cutoff_extend,
                                      dist_space_dimension, jet_kernel_check,
                                      normalized_monomial, point_basis)
from formalcalc.errors import (DomainMismatchError, SupportError,
                               TruncationError)
from formalcalc.expr import ONE, X, Const, bump, mul, pow_, window_bump
from formalcalc.functions import (FormalFunction, SupportedFormalFunction,
                                  _fin, cutoff)
from formalcalc.multiindex import degree, enumerate_upto, mi, mi_factorial
from formalcalc.scalars import QC, QC_ZERO
from formalcalc.spaces import Discrete, OpenSet, RSet, SmoothLine
from formalcalc.suites import rand_function, rand_poly, rand_qc

DS = Discrete(["a", "b", "c", "d"])
SL = SmoothLine()


def rand_supported(rng, domain, k, trunc):
    pts = sorted(domain.region)
    supp = frozenset(p for p in pts if rng.random() < 0.7) or frozenset(pts[:1])
    coeffs = {}
    for j in enumerate_upto(k, trunc):
        if rng.random() < 0.3:
            continue
        coeffs[j] = {p: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for p in sorted(supp) if rng.random() < 0.7}
    return SupportedFormalFunction(DS, domain, k, trunc, coeffs, support=supp)


def rand_distribution(rng, domain, k, star, e_dim):
    coeffs = {}
    for l in enumerate_upto(k, star):
        if rng.random() < 0.4:
            continue
        coeffs[l] = tuple(
            BaseDistribution(
                DS, weights={p: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for p in sorted(domain.region) if rng.random() < 0.6})
            for _ in range(e_dim))
    return FormalDistribution(DS, domain, k, e_dim, coeffs)


def brute_apply(eta, u):
    """Raw-dict evaluation of sum_L L! <w_L, u_L> per component."""
    out = []
    for comp in range(eta.e_dim):
        acc = QC(0)
        for l, vec in eta.coeffs.items():
            ul = u.coeffs.get(l, {})
            for p, w in vec[comp].weights.items():
                acc = acc + mi_factorial(l) * w * ul.get(p, QC(0))
        out.append(acc)
    return out


def test_apply_matches_raw_summation_componentwise():
    rng = random.Random(151)
    for _ in range(150):
        k = rng.randint(1, 2)
        star = rng.randint(0, 2)
        e_dim = rng.randint(1, 3)
        eta = rand_distribution(rng, DS.whole(), k, star, e_dim)
        u = rand_supported(rng, DS.whole(), k, rng.randint(star, star + 2))
        assert eta.apply(u) == brute_apply(eta, u)


def test_componentwise_law():
    rng = random.Random(157)
    for _ in range(60):
        eta = rand_distribution(rng, DS.whole(), 1, 2, 3)
        u = rand_supported(rng, DS.whole(), 1, 3)
        whole = eta.apply(u)
        for j in range(3):
            assert eta.component(j).apply(u) == [whole[j]]


def test_apply_validations():
    eta = rand_distribution(random.Random(163), DS.whole(), 1, 2, 1)
    low = rand_supported(random.Random(167), DS.whole(), 1, 1)
    with pytest.raises(TruncationError):
        eta.apply(low)
    plain = FormalFunction(DS, DS.whole(), 1, 3, {(0,): {"a": 1}})
    with pytest.raises(SupportError):
        eta.apply(plain)


def test_module_action_adjunction():
    rng = random.Random(173)
    for _ in range(120):
        k = rng.randint(1, 2)
        star = rng.randint(0, 2)
        eta = rand_distribution(rng, DS.whole(), k, star, rng.randint(1, 2))
        f = FormalFunction(DS, DS.whole(), k, rng.randint(star, 3),
                           {j: {p: Fraction(rng.randint(-3, 3), 2)
                                for p in DS.points if rng.random() < 0.6}
                            for j in enumerate_upto(k, star)})
        u = rand_supported(rng, DS.whole(), k, 3)
        fu = f.mul(u)
        fu = SupportedFormalFunction(DS, DS.whole(), k, fu.trunc, fu.coeffs,
                                     support=u.support)
        assert eta.module_action(f).apply(u) == eta.apply(fu)


def test_restrict_is_transpose_of_extension():
    rng = random.Random(179)
    v = OpenSet(DS, ["a", "b", "c"])
    for _ in range(80):
        eta = rand_distribution(rng, DS.whole(), 1, 2, 1)
        u = rand_supported(rng, v, 1, 3)
        assert eta.restrict(v).apply(u) == eta.apply(u.ext(DS.whole()))


def test_compact_support_inference_and_validation():
    w = BaseDistribution(DS, weights={"a": 1, "b": 2})
    t = CompactFormalDistribution(DS, DS.whole(), 1, 1, {(0,): (w,)})
    assert t.support == frozenset({"a", "b"})
    with pytest.raises(SupportError):
        CompactFormalDistribution(DS, DS.whole(), 1, 1, {(0,): (w,)},
                                  support=frozenset({"a"}))
    small = OpenSet(DS, ["a"])
    with pytest.raises(SupportError):
        CompactFormalDistribution(DS, small, 1, 1,
                                  {(0,): (BaseDistribution(DS, weights={"a": 1}),)},
                                  support=frozenset({"a", "b"}))


def test_compact_ext_restrict_roundtrip():
    rng = random.Random(181)
    v = OpenSet(DS, ["a", "b"])
    for _ in range(40):
        w = BaseDistribution(
            DS, weights={p: Fraction(rng.randint(-3, 3), 2) for p in ["a", "b"]})
        t = CompactFormalDistribution(DS, v, 1, 1, {(1,): (w,)})
        up = t.ext(DS.whole())
        assert up.domain == DS.whole()
        back = up.restrict(v)
        assert back.coeffs == t.coeffs
        assert back.support == t.support
    with pytest.raises(DomainMismatchError):
        t.ext(OpenSet(DS, ["a"]))


def test_component_keeps_the_support_witness():
    w = BaseDistribution(DS, weights={"b": 1})
    zero = BaseDistribution.zero(DS)
    v = OpenSet(DS, ["a", "b"])
    t = CompactFormalDistribution(DS, v, 1, 2, {(0,): (w, w), (1,): (zero, w)})
    first = t.component(0)
    assert isinstance(first, CompactFormalDistribution)
    assert first.e_dim == 1 and first.support == t.support
    # a vector whose one entry is zero is not stored
    assert first.coeffs == {(0,): (w,)}
    up = first.ext(DS.whole())
    assert up.domain == DS.whole() and up.coeffs == first.coeffs
    assert t.component(1).coeffs == {(0,): (w,), (1,): (w,)}


def test_a_compact_distribution_plus_a_plain_one_is_plain():
    # the sum has no witness: the plain partner's support may be
    # anywhere in the domain
    w, d = (BaseDistribution(DS, weights={p: 1}) for p in "bd")
    compact = CompactFormalDistribution(DS, DS.whole(), 1, 1, {(0,): (w,)})
    plain = FormalDistribution(DS, DS.whole(), 1, 1, {(0,): (w,), (1,): (d,)})
    total = compact.add(plain)
    assert type(total) is FormalDistribution
    assert total.coeffs == {(0,): (w.scale(2),), (1,): (d,)}
    assert type(compact.add(compact)) is CompactFormalDistribution


def test_cutoff_extension_is_cutoff_independent():
    rng = random.Random(191)
    for _ in range(60):
        w = BaseDistribution(
            DS, weights={"b": Fraction(rng.randint(-3, 3), 2), "c": rng.randint(-2, 2)})
        eta = CompactFormalDistribution(DS, DS.whole(), 1, 1,
                                        {(0,): (w,), (1,): (w.scale(2),)},
                                        support=frozenset({"b", "c"}))
        f1 = cutoff(DS, DS.whole(), 1, 2, ["b", "c"], ["b", "c"])
        f2 = cutoff(DS, DS.whole(), 1, 2, ["a", "b", "c"], ["a", "b", "c"])
        u = FormalFunction(DS, DS.whole(), 1, 2,
                           {j: {p: Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                                for p in DS.points}
                            for j in enumerate_upto(1, 2)})
        v1 = cutoff_extend(eta, f1)(u)
        v2 = cutoff_extend(eta, f2)(u)
        assert v1 == v2


def test_cutoff_extension_demands_plateau_over_support():
    w = BaseDistribution(DS, weights={"b": 1, "c": 1})
    eta = CompactFormalDistribution(DS, DS.whole(), 1, 1, {(0,): (w,)})
    small = cutoff(DS, DS.whole(), 1, 1, ["b"], ["b"])
    with pytest.raises(SupportError):
        cutoff_extend(eta, small)


def test_generalized_embedding_reproduces_density_pairing():
    rng = random.Random(193)
    for _ in range(100):
        k = rng.randint(1, 2)
        star = rng.randint(0, 2)
        coeffs = {}
        for l in enumerate_upto(k, star):
            tau = BaseDensity.discrete(
                DS, {p: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for p in DS.points if rng.random() < 0.6})
            coeffs[l] = ((mi(()), tau),)
        eta = FormalDensity(DS, DS.whole(), k, coeffs)
        trunc = rng.randint(star, 3)
        u = FormalFunction(DS, DS.whole(), k, trunc,
                           {j: {p: Fraction(rng.randint(-4, 4), 2)
                                for p in DS.points if rng.random() < 0.7}
                            for j in enumerate_upto(k, trunc)})
        assert GeneralizedFunction.embed(u).apply(eta) == [eta.pair(u)]


def test_generalized_module_action_adjunction():
    rng = random.Random(197)
    for _ in range(80):
        k = 1
        star = rng.randint(0, 2)
        tau = BaseDensity.discrete(
            DS, {p: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for p in DS.points if rng.random() < 0.7})
        eta = FormalDensity.monomial(DS, DS.whole(), k, (star,), tau)
        f = FormalFunction(DS, DS.whole(), k, 3,
                           {j: {p: Fraction(rng.randint(-3, 3), 2)
                                for p in DS.points if rng.random() < 0.6}
                            for j in enumerate_upto(k, 2)})
        u = FormalFunction(DS, DS.whole(), k, 3,
                           {j: {p: Fraction(rng.randint(-3, 3), 2)
                                for p in DS.points if rng.random() < 0.6}
                            for j in enumerate_upto(k, 3)})
        g = GeneralizedFunction.embed(u)
        lhs = g.module_action(f).apply(eta)
        rhs = g.apply(eta.module_action(f))
        assert lhs == rhs


def test_generalized_truncation_guard():
    g = GeneralizedFunction.zero(DS, DS.whole(), 1, 1)
    tau = BaseDensity.discrete(DS, {"a": 1})
    eta = FormalDensity.monomial(DS, DS.whole(), 1, (2,), tau)
    with pytest.raises(TruncationError):
        g.apply(eta)


def test_point_distribution_applies_jets():
    u = FormalFunction(DS, DS.whole(), 1, 2,
                       {(0,): {"a": 3}, (2,): {"a": 5, "b": 1}})
    p = PointDistribution(DS, DS.whole(), 1, "a", 2,
                          {(mi(()), (0,)): (QC(1), QC(0)),
                           (mi(()), (2,)): (QC(0), QC(1))})
    got = p.apply(u)
    assert got == [QC(3), QC(10)]  # 2! * 5 in the second slot


def test_point_distribution_refuses_an_empty_value_space():
    for e_dim in (0, -2):
        with pytest.raises(ValueError, match="at least 1"):
            PointDistribution(DS, DS.whole(), 1, "a", e_dim)
        with pytest.raises(ValueError, match="at least 1"):
            PointDistribution.from_json(DS, DS.whole(), 1,
                                        {"a": "a", "E_dim": e_dim})
        with pytest.raises(ValueError, match="at least 1"):
            point_basis(DS, DS.whole(), 1, "a", 1, e_dim)


def test_point_basis_is_dual_to_normalized_monomials():
    r = 3
    for space, domain, a, n in ((DS, DS.whole(), "a", 0),
                                (SL, SL.whole(), Fraction(0), 1)):
        for k in (1, 2):
            basis = point_basis(space, domain, k, a, r)
            idx = [(m[:n], m[n:]) for m in enumerate_upto(n + k, r)]
            assert len(basis) == dist_space_dimension(n, k, r)
            for row, p in enumerate(basis):
                for col, (i, j) in enumerate(idx):
                    um = normalized_monomial(space, domain, k, r, i, j)
                    got = p.apply(um)[0]
                    want = QC(1) if row == col else QC(0)
                    assert got == want


def test_dist_space_dimension_matches_binomial():
    for n in (0, 1):
        for k in (1, 2, 3):
            for r in range(0, 5):
                assert dist_space_dimension(n, k, r) == math.comb(n + k + r, n + k)


def test_point_to_compact_agrees_discrete():
    rng = random.Random(199)
    for _ in range(60):
        coeffs = {(mi(()), j): (Fraction(rng.randint(-3, 3), 2),)
                  for j in enumerate_upto(1, 2) if rng.random() < 0.8}
        p = PointDistribution(DS, DS.whole(), 1, "b", 1, coeffs)
        u = rand_supported(rng, DS.whole(), 1, 2)
        assert p.to_compact().apply(u) == p.apply(u)


def test_point_to_compact_agrees_smooth():
    dom = OpenSet(SL, [(-3, 3)])
    p = PointDistribution(SL, dom, 1, Fraction(1, 2), 1,
                          {((1,), (1,)): (QC(2),), ((0,), (0,)): (QC(1),)})
    e, supp, _ = bump(-2, -1, 1, 2)
    u = SupportedFormalFunction(SL, dom, 1, 2,
                                {(0,): mul(e, X), (1,): mul(e, pow_(X, 2))},
                                support=supp)
    assert p.to_compact().apply(u) == p.apply(u)


# -- a point distribution against the jet sum it stands for -------------------


def jet_sum(p, u):
    """The jet loop a point distribution was once applied by, kept as
    the reference: sum c_{I,J} * jet(u, a, I, J) componentwise, in the
    order (|I| + |J|, I, J)."""
    out = []
    for comp in range(p.e_dim):
        acc = QC_ZERO
        for (i, j) in sorted(p.terms, key=lambda ij: (
                degree(ij[0]) + degree(ij[1]), ij[0], ij[1])):
            c = p.terms[(i, j)][comp]
            if c:
                acc = acc + c * _fin(u.jet(p.a, i, j))
        out.append(_fin(acc))
    return out


def rand_point(rng, space, domain, a, k, trunc, scalar):
    """Several x-orders I at one J, e_dim 1 to 3, some entries zero."""
    e_dim = rng.randint(1, 3)
    coeffs = {}
    for j in enumerate_upto(k, trunc):
        for i in ([()] if space.ndim == 0 else [(0,), (1,), (2,)]):
            if rng.random() < 0.6:
                coeffs[(i, j)] = tuple(scalar(rng) if rng.random() < 0.7
                                       else 0 for _ in range(e_dim))
    return PointDistribution(space, domain, k, a, e_dim, coeffs)


def float_complex(rng):
    return complex(rng.randint(-6, 6), rng.randint(-6, 6)) / rng.randint(1, 3)


def line_function(rng, k, trunc, factor=ONE):
    """factor times polynomials of degree up to 4, on the whole line."""
    return FormalFunction(SL, SL.whole(), k, trunc, {
        j: mul(factor, rand_poly(rng, 4)) for j in enumerate_upto(k, trunc)
        if rng.random() < 0.8})


def test_a_point_distribution_applies_its_jet_sum():
    rng = random.Random(5101)
    kernels = mul(window_bump(-1, 3)[0], X)
    for _ in range(40):
        k, trunc = rng.randint(1, 2), rng.randint(0, 3)
        # exact partners: the same values, exactly
        for space, a, u in (
                (DS, "b", rand_function(rng, DS, DS.whole(), k, trunc)),
                (SL, Fraction(rng.randint(-6, 6), 4),
                 line_function(rng, k, trunc))):
            p = rand_point(rng, space, space.whole(), a, k, trunc, rand_qc)
            assert p.apply(u) == jet_sum(p, u)
            assert p == p.to_compact()
            back = PointDistribution.from_json(space, space.whole(), k,
                                               p.to_json())
            assert back == p and back.terms == p.terms
            assert back.to_json() == p.to_json()
        # float partners or coefficients on the line: the terms are summed
        # in another order, so the values agree to rounding, 1e-14 relative
        a = Fraction(rng.choice((-3, 5)), 4)  # on the kernels' edges
        for scalar, u in ((rand_qc, line_function(rng, k, trunc, kernels)),
                          (float_complex, line_function(rng, k, trunc)),
                          (float_complex,
                           line_function(rng, k, trunc, kernels))):
            p = rand_point(rng, SL, SL.whole(), a, k, trunc, scalar)
            for got, want in zip(p.apply(u), jet_sum(p, u)):
                assert cmath.isclose(got, want, rel_tol=1e-14, abs_tol=0.0)


def test_a_point_distribution_refuses_what_its_compact_form_refuses():
    # a label's weight is exact, so a float complex is refused there, as
    # to_compact refused it
    with pytest.raises(TypeError, match="as a rational"):
        PointDistribution(DS, DS.whole(), 1, "a", 1, {((), (0,)): (1 + 2j,)})
    with pytest.raises(ValueError, match="x-index"):
        PointDistribution(SL, SL.whole(), 1, 0, 1, {((1, 1), (0,)): (1,)})
    # a vector of the wrong length, alone, beside another at its J, or zero
    for space, a, coeffs in (
            (DS, "a", {((), (0,)): (1,)}),
            (SL, 0, {((0,), (0,)): (1, 2), ((1,), (0,)): (1,)}),
            (SL, 0, {((0,), (0,)): (0,), ((1,), (1,)): (1, 2)})):
        with pytest.raises(ValueError):
            PointDistribution(space, space.whole(), 1, a, 2, coeffs)


def test_jet_kernel_check_orders():
    u = FormalFunction(SL, SL.whole(), 1, 4, {(1,): pow_(X, 2)})
    assert jet_kernel_check(u, Fraction(0), 3)
    assert not jet_kernel_check(u, Fraction(0), 4)
    assert jet_kernel_check(FormalFunction.zero(SL, SL.whole(), 1, 4),
                            Fraction(0), 4)
    with pytest.raises(TruncationError):
        jet_kernel_check(u, Fraction(0), 5)


def test_smooth_term_bound_clips_integration():
    dom = OpenSet(SL, [(-4, 4)])
    narrow = FormalDistribution(
        SL, dom, 1, 1,
        {(0,): (BaseDistribution.smooth(SL, ONE,
                                        RSet.closed_pairs([(0, Fraction(1, 4))])),)})
    e, supp, _ = bump(-3, -1, 1, 3)
    u = SupportedFormalFunction(SL, dom, 1, 1, {(0,): e}, support=supp)
    got = narrow.apply(u)[0]
    # the partner is exactly 1 on the clipped range [0, 1/4]
    assert abs(got - 0.25) < 1e-10
    wide = FormalDistribution(
        SL, dom, 1, 1, {(0,): (BaseDistribution.smooth(SL, ONE),)})
    assert wide.apply(u)[0].real > 2.0


def test_point_term_action_is_exact_on_plateaus():
    dom = OpenSet(SL, [(-4, 4)])
    w = FormalDistribution(
        SL, dom, 1, 1, {(0,): (BaseDistribution.point(SL, Fraction(0), 1, 2),)})
    e, supp, _ = bump(-3, -1, 1, 3)
    u = SupportedFormalFunction(SL, dom, 1, 1, {(0,): mul(e, X)}, support=supp)
    # 2 * d/dx (x * bump)(0) = 2 on the plateau, where bump' vanishes
    assert w.apply(u)[0] == 2


def test_smooth_restrict_keeps_inside_point_terms():
    dom = OpenSet(SL, [(-4, 4)])
    w = BaseDistribution(SL, terms=(PointTerm(Fraction(2), 0, 1),
                                    PointTerm(Fraction(0), 0, 1)))
    eta = FormalDistribution(SL, dom, 1, 1, {(0,): (w,)})
    r = eta.restrict(OpenSet(SL, [(-1, 1)]))
    terms = r.coeffs[(0,)][0].terms
    assert len(terms) == 1 and terms[0].a == 0


def test_smooth_module_action_adjunction_quadrature():
    dom = OpenSet(SL, [(-4, 4)])
    box = RSet.closed_pairs([(-1, 1)])
    w0 = BaseDistribution(SL, terms=(SmoothTerm(X, box),
                                     PointTerm(Fraction(1, 2), 1, 1)))
    eta = CompactFormalDistribution(SL, dom, 1, 1,
                                    {(0,): (w0,), (1,): (w0.scale(2),)},
                                    support=box)
    f = FormalFunction(SL, dom, 1, 2, {(0,): pow_(X, 2), (1,): X})
    e, supp, _ = bump(-2, -1, 1, 2)
    u = SupportedFormalFunction(SL, dom, 1, 2,
                                {(0,): mul(e, X), (1,): e},
                                support=supp)
    fu = f.mul(u)
    fu = SupportedFormalFunction(SL, dom, 1, fu.trunc, fu.coeffs,
                                 support=supp)
    lhs = eta.module_action(f).apply(u)[0]
    rhs = eta.apply(fu)[0]
    assert abs(lhs - rhs) < 1e-9


def test_smooth_compact_validation():
    dom = OpenSet(SL, [(-4, 4)])
    wide = BaseDistribution.smooth(SL, X, RSet.closed_pairs([(-3, 3)]))
    with pytest.raises(SupportError):
        CompactFormalDistribution(SL, dom, 1, 1, {(0,): (wide,)},
                                  support=RSet.closed_pairs([(-1, 1)]))
    unbounded = BaseDistribution.smooth(SL, X)
    with pytest.raises(SupportError):
        CompactFormalDistribution(SL, dom, 1, 1, {(0,): (unbounded,)})
    outside = BaseDistribution.point(SL, Fraction(2), 0, 1)
    with pytest.raises(SupportError):
        CompactFormalDistribution(SL, dom, 1, 1, {(0,): (outside,)},
                                  support=RSet.closed_pairs([(-1, 1)]))


def test_smooth_cutoff_extension_cutoff_independence():
    dom = OpenSet(SL, [(-4, 4)])
    box = RSet.closed_pairs([(-1, 1)])
    w0 = BaseDistribution(SL, terms=(SmoothTerm(ONE, box),
                                     PointTerm(Fraction(0), 1, 1)))
    eta = CompactFormalDistribution(SL, dom, 1, 1, {(0,): (w0,), (1,): (w0,)},
                                    support=box)
    f1 = cutoff(SL, dom, 1, 2, RSet.closed_pairs([(-2, 2)]),
                RSet.closed_pairs([(-3, 3)]))
    f2 = cutoff(SL, dom, 1, 2,
                RSet.closed_pairs([(Fraction(-5, 2), Fraction(5, 2))]),
                RSet.closed_pairs([(Fraction(-7, 2), Fraction(7, 2))]))
    u = FormalFunction(SL, dom, 1, 2, {(0,): pow_(X, 2), (1,): X})
    v1 = cutoff_extend(eta, f1)(u)[0]
    v2 = cutoff_extend(eta, f2)(u)[0]
    assert abs(v1 - v2) < 1e-9
    small = cutoff(SL, dom, 1, 2, RSet.closed_pairs([(0, 0)]),
                   RSet.closed_pairs([(Fraction(-1, 2), Fraction(1, 2))]))
    with pytest.raises(SupportError):
        cutoff_extend(eta, small)


def test_base_distribution_json_roundtrip_with_bounds():
    w = BaseDistribution(SL, terms=(
        SmoothTerm(pow_(X, 2), RSet.closed_pairs([(0, 1)])),
        SmoothTerm(Const(2)),
        PointTerm(Fraction(1, 2), 2, QC(Fraction(-1, 3))),
    ))
    back = BaseDistribution.from_json(SL, w.to_json())
    assert back == w
    d = BaseDistribution(DS, weights={"a": Fraction(1, 2)})
    assert BaseDistribution.from_json(DS, d.to_json()) == d
    with pytest.raises(ValueError):
        BaseDistribution.from_json(SL, [{"kind": "mystery"}])


def test_formal_distribution_json_roundtrip():
    rng = random.Random(211)
    eta = rand_distribution(rng, DS.whole(), 2, 2, 2)
    back = FormalDistribution.from_json(DS, DS.whole(), 2, eta.to_json())
    assert back == eta
    w = BaseDistribution(DS, weights={"a": 1})
    t = CompactFormalDistribution(DS, DS.whole(), 1, 1, {(0,): (w,)})
    back = CompactFormalDistribution.from_json(DS, DS.whole(), 1, t.to_json())
    assert back.support == t.support and back.coeffs == t.coeffs


def test_generalized_and_point_json_roundtrip():
    u = FormalFunction(DS, DS.whole(), 1, 2, {(1,): {"a": Fraction(1, 2)}})
    g = GeneralizedFunction.embed(u)
    back = GeneralizedFunction.from_json(DS, DS.whole(), 1, g.to_json())
    assert back == g
    with pytest.raises(ValueError):
        GeneralizedFunction.from_json(DS, DS.whole(), 1, {"coeffs": {}})
    p = PointDistribution(SL, SL.whole(), 1, Fraction(1, 3), 2,
                          {((1,), (1,)): (QC(1), QC(Fraction(2, 5)))})
    back = PointDistribution.from_json(SL, SL.whole(), 1, p.to_json())
    assert back.a == p.a and back.coeffs == p.coeffs


def test_generalized_refuses_coefficients_over_another_space():
    w = BaseDistribution(Discrete(["a", "z"]), weights={"a": 1})
    with pytest.raises(DomainMismatchError):
        GeneralizedFunction(DS, DS.whole(), 1, 1, 1, {(0,): (w,)})
    with pytest.raises(DomainMismatchError):
        FormalDistribution(DS, DS.whole(), 1, 1, {(0,): (w,)})


def test_equality_tells_the_kinds_apart():
    w = BaseDistribution(DS, weights={"a": 1})
    plain = FormalDistribution(DS, DS.whole(), 1, 1, {(0,): (w,)})
    compact = CompactFormalDistribution(DS, DS.whole(), 1, 1, {(0,): (w,)})
    gen = GeneralizedFunction(DS, DS.whole(), 1, 1, 1, {(0,): (w,)})
    assert compact == plain and plain == compact
    assert gen != plain and plain != gen
    assert gen != GeneralizedFunction(DS, DS.whole(), 1, 2, 1, {(0,): (w,)})
    assert gen != gen.restrict(OpenSet(DS, ["a", "b"]))


def test_smooth_json_roundtrips_with_point_terms_and_bounds():
    from formalcalc.suites import (rand_compact_distribution, rand_distribution
                                   as rand_smooth_distribution, rand_generalized)
    dom = OpenSet(SL, [(-4, 4)])
    kinds = set()
    for seed in range(12):
        rng = random.Random(seed)
        for cls, x in (
                (FormalDistribution,
                 rand_smooth_distribution(rng, SL, dom, 1, 2, 2)),
                (CompactFormalDistribution,
                 rand_compact_distribution(rng, SL, dom, 1, 2, 2)),
                (GeneralizedFunction, rand_generalized(rng, SL, dom, 1, 2, 2))):
            back = cls.from_json(SL, dom, 1, x.to_json())
            assert type(back) is cls and back == x
            assert back.to_json() == x.to_json()
            if cls is CompactFormalDistribution:
                assert back.support == x.support
            for vec in x.coeffs.values():
                for w in vec:
                    for t in w.terms:
                        kinds.add("point" if isinstance(t, PointTerm) else
                                  "bounded" if t.bound is not None else "plain")
    assert kinds == {"point", "bounded", "plain"}
