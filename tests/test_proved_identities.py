"""What the construction guarantees is proved, not measured.

A line partition built by build_pou sums to one because the summands of
its numerators are those of the one interned denominator they share, in
any order, so its unit proof samples nothing; any other coefficient list
is proved against one by the piece rule, or is undecided. The same
identity proves a supported function's coefficient equal to its
reassembly from the partition, so the cosheaf function law reads no
probe either, and a glued or reassembled distribution equal to the
section it came from, term by term, so those laws integrate nothing.
Two equal sections agree on every probe, so comparing them integrates
nothing, once both are checked against the family.
"""

import operator
import random
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

from formalcalc import expr, quadrature, sheaf, spaces, suites
from formalcalc.densities import FormalDensity
from formalcalc.distributions import (BaseDistribution,
                                      CompactFormalDistribution,
                                      FormalDistribution, GeneralizedFunction,
                                      PointTerm, SmoothTerm)
from formalcalc.errors import (CertificateError, DomainMismatchError,
                               TruncationError, UndecidedCertificateError)
from formalcalc.expr import (ONE, X, Add, add, bump, certified, div, ev,
                            mul, window_bump)
from formalcalc.functions import FormalFunction, SupportedFormalFunction
from formalcalc.scenario import Scenario
from formalcalc.sheaf import (Cover, PartitionOfUnity, build_pou,
                              cosheaf_decompose, cosheaf_reassemble,
                              dual_density_family, dual_function_family,
                              functional_residual, max_gap)
from formalcalc.spaces import OpenSet, RSet, SmoothLine
from test_sheaf_ingredients import (grid_points, rand_line_cover,
                                    ref_sum_residual)

SL = SmoothLine()
DOM = OpenSet(SL, [(-4, 4)])
SMOOTH = Path(__file__).resolve().parent.parent / "scenarios" \
    / "smooth_demo.json"


class Measured(Exception):
    """Raised by a sample or a quadrature where a proof was expected."""


def refuse(monkeypatch, module, name):
    def measured(*args, **kw):
        raise Measured
    monkeypatch.setattr(module, name, measured)


def refuse_sampling(monkeypatch):
    refuse(monkeypatch, spaces, "ev")


def two_part_cover():
    return Cover(DOM, [OpenSet(SL, [(-4, 1)]), OpenSet(SL, [(-1, 4)])])


COVERS = {
    "smooth_demo C": lambda: Scenario.load(SMOOTH).cover("C"),
    "three parts": lambda: suites._three_part_cover(SL),
    "two parts": two_part_cover,
}


@pytest.mark.parametrize("name", sorted(COVERS))
def test_a_built_line_partition_is_proved_without_sampling(name,
                                                           monkeypatch):
    cover = COVERS[name]()
    refuse_sampling(monkeypatch)
    # nor by the piece rule, the fallback of prove_unit
    refuse(monkeypatch, SmoothLine, "proves_equal")
    pou = build_pou(cover, 1, 1)
    assert pou.grid_residual == 0.0


def test_a_random_line_partition_is_proved_by_the_partition_identity_alone(
        monkeypatch):
    rng = random.Random(919)
    covers = [c for c in (rand_line_cover(rng) for _ in range(40))
              if len(c) > 1]
    assert len(covers) == 30
    refuse_sampling(monkeypatch)
    refuse(monkeypatch, SmoothLine, "proves_equal")
    for cover in covers:
        build_pou(cover, 1, 0)


def test_any_other_coefficient_list_is_sampled(monkeypatch):
    pou = build_pou(two_part_cover(), 1, 1)
    c0, c1 = (f.coeff((0,)) for f in pou.functions)
    doubled = div(mul(2, c0.num), c0.den, region=DOM.region)
    wider = OpenSet(SL, [(-5, 5)]).region
    # the last case needs S unproved on wider, but a node another test
    # keeps alive keeps its proofs: drop every one holding wider
    den = c0.den
    monkeypatch.setitem(expr._CERTIFIED, den, {
        r for r in expr._CERTIFIED[den] if not wider <= r})
    assert not certified(den, wider)
    refuse_sampling(monkeypatch)
    SL.prove_unit([c0, c1], DOM.region)
    SL.prove_unit([c1, c0], DOM.region)                 # reordered
    SL.prove_unit([ONE], DOM.region)                    # a single part
    for coeffs, region in (([doubled, c1], DOM.region),  # sum is not S
                           ([mul(2, c0), c1], DOM.region),  # scaled
                           ([c0, c1], wider)):           # S not certified
        with pytest.raises(UndecidedCertificateError):
            SL.prove_unit(coeffs, region)


def test_a_partition_whose_numerators_miss_s_is_refused():
    cover = two_part_cover()
    f0, f1 = build_pou(cover, 1, 1).functions
    c0 = f0.coeff((0,))
    c0 = div(mul(2, c0.num), c0.den, region=DOM.region)
    doubled = SupportedFormalFunction(SL, DOM, 1, 1, {(0,): c0},
                                      support=f0.support, plateau=f0.plateau)
    with pytest.raises(CertificateError):
        PartitionOfUnity(cover, [doubled, f1])


def test_a_partition_off_by_a_bump_between_grid_points_is_refused():
    # the bump is 1 on [2/100, 3/100] and 0 outside (1/100, 4/100), so
    # the sum is 2 at x = 1/40; the 101-point grid on (-4, 4) steps by
    # 8/101 and has no point in (1/100, 4/100)
    cover = two_part_cover()
    f0, f1 = build_pou(cover, 1, 1).functions
    b, _, _ = bump(Fraction(1, 100), Fraction(2, 100), Fraction(3, 100),
                   Fraction(4, 100))
    c0 = add(f0.coeff((0,)), b)
    assert ev(c0, Fraction(1, 40)) + ev(f1.coeff((0,)), Fraction(1, 40)) == 2
    assert ref_sum_residual(SL, DOM.region, [c0, f1.coeff((0,))]) == 0.0
    off = SupportedFormalFunction(SL, DOM, 1, 1, {(0,): c0},
                                  support=f0.support, plateau=f0.plateau)
    with pytest.raises(UndecidedCertificateError):
        PartitionOfUnity(cover, [off, f1])


def test_a_true_hand_built_partition_is_proved_without_sampling(
        monkeypatch):
    # g is 1 on [-9/2, 0] and 0 from 1/2 on, so 1 - g is 0 on (-4, 0]
    cover = two_part_cover()
    g, g_support, g_plateau = bump(-5, Fraction(-9, 2), 0, Fraction(1, 2))
    rest = SL.add(ONE, SL.scale(g, -1))
    c = build_pou(cover, 1, 1).functions[0].coeff((0,))
    parts = [SupportedFormalFunction(SL, DOM, 1, 1, {(0,): g},
                                     support=g_support, plateau=g_plateau),
             SupportedFormalFunction(SL, DOM, 1, 1, {(0,): rest},
                                     support=RSet.closed_pairs([(0, 5)]))]
    refuse_sampling(monkeypatch)
    assert PartitionOfUnity(cover, parts).grid_residual == 0.0
    SL.prove_unit([ONE], DOM.region)
    SL.prove_unit([c, SL.add(ONE, SL.scale(c, -1))], DOM.region)


def three_quotients():
    """The three quotients b_i / S of the three-part cover's partition,
    its whole set's region, and S = (b_0 + b_1) + b_2."""
    pou = build_pou(suites._three_part_cover(SL), 1, 1)
    quots = [f.coeff((0,)) for f in pou.functions]
    assert quots[0].den is add(add(*(q.num for q in quots[:2])), quots[2].num)
    return quots, pou.cover.whole.region


def test_the_partition_identity_is_order_free(monkeypatch):
    (q0, q1, q2), region = three_quotients()
    den = q0.den
    cb = suites.rand_function(random.Random(0), SL, DOM, 1, 0).coeff((0,))
    # one numerator nesting b_2 + (b_1 + b_0), the reverse of S
    reverse = div(add(q2.num, add(q1.num, q0.num)), den, region=region)
    first_two = div(add(q1.num, q0.num), den, region=region)
    refuse_sampling(monkeypatch)
    for quots in ([q2, q0, q1], [q1, q2, q0], [reverse], [q2, first_two]):
        SL.prove_unit(quots, region)
        back = reduce(add, [mul(q, cb) for q in quots])
        assert SL.proves_equal(one(back), one(cb), region)
        assert SL.proves_equal(one(cb), one(back), region)


def test_a_wrong_order_free_sum_is_still_sampled(monkeypatch):
    (q0, q1, q2), region = three_quotients()
    den = q0.den
    doubled = div(mul(2, q0.num), den, region=region)
    repeated = div(add(q0.num, q1.num), den, region=region)
    wider = RSet.open_pairs([(-9, 9)])
    cb = suites.rand_function(random.Random(0), SL, DOM, 1, 0).coeff((0,))
    refuse_sampling(monkeypatch)
    for quots, r in (([q2, doubled, q1], region),      # one numerator doubled
                     ([q2, q0], region),               # one part dropped
                     ([q2, repeated, q1], region),     # b_1 counted twice
                     ([q1, q0, q2, q1], region),       # one part repeated
                     ([q2, q1, q0], wider)):           # S not certified there
        with pytest.raises(UndecidedCertificateError):
            SL.prove_unit(quots, r)
        back = reduce(add, [mul(q, cb) for q in quots])
        assert not SL.proves_equal(one(back), one(cb), r)
        assert not SL.proves_equal(one(cb), one(back), r)


def test_a_proof_does_not_depend_on_which_nodes_are_alive(monkeypatch):
    # the (-4, 4) two-part partition builds the very quotient nodes of
    # smooth_demo's cover C, whose whole set is the line; with it alive,
    # C's partition and its reassemblies are proved all the same
    alive = build_pou(two_part_cover(), 1, 1)
    cover = COVERS["smooth_demo C"]()
    assert cover.whole == SL.whole() != alive.cover.whole
    refuse_sampling(monkeypatch)
    pou = build_pou(cover, 1, 4)
    assert pou.grid_residual == 0.0
    assert [f.coeff((0,)) for f in pou.functions] \
        == [f.coeff((0,)) for f in alive.functions]
    pairs = [reassembled(pou, seed) for seed in range(4)]
    assert sum(len(u.coeffs) for _, u in pairs) == 9
    refuse(monkeypatch, quadrature, "_adaptive")
    for back, u in pairs:
        assert function_gap(back, u) == 0.0
        assert function_gap(u, back) == 0.0
    assert alive.grid_residual == 0.0


def test_equal_sections_read_zero_without_integrating(monkeypatch):
    t = suites.rand_distribution(random.Random(0), SL, DOM, 1, 1, 2)
    same = suites.rand_distribution(random.Random(0), SL, DOM, 1, 1, 2)
    other = suites.rand_distribution(random.Random(1), SL, DOM, 1, 1, 2)
    g = suites.rand_generalized(random.Random(0), SL, DOM, 1, 1, 1)
    assert same is not t and same == t
    fam = dual_function_family(SL, DOM, 1, 1)
    refuse(monkeypatch, quadrature, "_adaptive")
    assert functional_residual(t, t, fam) == (0.0, None)
    assert functional_residual(t, same, fam) == (0.0, None)
    assert functional_residual(g, g, dual_density_family(SL, DOM, 1, 1)) \
        == (0.0, None)
    with pytest.raises(Measured):
        functional_residual(t, other, fam)


def test_equal_sections_are_still_checked_against_the_family():
    t = suites.rand_distribution(random.Random(0), SL, DOM, 1, 1, 2)
    eta = suites.rand_density(random.Random(0), SL, DOM, 1, 2)
    assert eta.star_degree() == 1
    with pytest.raises(TypeError):
        functional_residual(t, t, dual_density_family(SL, DOM, 1, 1))
    with pytest.raises(TruncationError):
        functional_residual(eta, eta, dual_function_family(SL, DOM, 1, 0))
    narrower = OpenSet(SL, [(-3, 3)])
    with pytest.raises(DomainMismatchError):
        functional_residual(t, t, dual_function_family(SL, narrower, 1, 1))


def test_equal_function_coefficients_are_not_sampled(monkeypatch):
    u = suites.rand_function(random.Random(0), SL, DOM, 1, 2)
    assert u.coeffs
    v = suites.rand_function(random.Random(1), SL, DOM, 1, 2)
    refuse(monkeypatch, quadrature, "_adaptive")
    assert function_gap(u, u) == 0.0
    with pytest.raises(Measured):
        function_gap(u, v)


# -- the cosheaf function law ---------------------------------------------------


def reassembled(pou, seed):
    """(back, u): a seeded supported function on the cover's whole set,
    as the cosheaf suite draws it, and its reassembly from the partition."""
    m = pou.cover.whole
    u = suites.rand_supported_function(random.Random(seed), SL, m, 1, 2)
    return cosheaf_reassemble(cosheaf_decompose(u, pou), m), u


def function_gap(a, b):
    """The residual of function a against b as the cosheaf suite reads
    it: one `suites.agree` of their generalized functions over the
    suite's density family, its star cap their trunc (2 in the suite)."""
    draws, tally = suites._draws(a.space), suites._Tally()
    fam = dual_density_family(a.space, a.domain, a.k, a.trunc,
                              xdeg_cap=draws.xcap, stack_cap=draws.scap)
    embed = GeneralizedFunction.embed
    suites.agree(tally, [(embed(a), embed(b), fam)])
    return tally.worst


@pytest.mark.parametrize("name", sorted(COVERS))
def test_the_cosheaf_function_law_is_proved_without_sampling(name,
                                                             monkeypatch):
    pou = build_pou(COVERS[name](), 1, 4)
    pairs = [reassembled(pou, seed) for seed in range(4)]
    refuse(monkeypatch, quadrature, "_adaptive")
    for back, u in pairs:
        assert any(back.coeff(j) is not c for j, c in u.coeffs.items())
        assert function_gap(back, u) == 0.0
        assert function_gap(u, back) == 0.0


def test_the_cosheaf_suite_samples_no_function(monkeypatch):
    refuse_sampling(monkeypatch)
    assert suites.suite_cosheaf(SL, 1, 1, 0, 1e-8, rounds=2)["pass"]


def one(c):
    """A coefficient as a list of one (coefficient, bound) term."""
    return [(c, None)]


def summands(e):
    """The terms of a left-nested sum, in order."""
    out = []
    while type(e) is Add:
        e, t = e.a, e.b
        out.append(t)
    return [e] + out[::-1]


def test_a_perturbed_reassembly_is_measured(monkeypatch):
    pou = build_pou(suites._three_part_cover(SL), 1, 4)
    back, u = reassembled(pou, 0)
    m = u.domain
    ca, cb = back.coeff((0,)), u.coeff((0,))
    quots = [t.a for t in summands(ca)]
    assert len(quots) == 3 and all(t.b is cb for t in summands(ca))
    den, region = quots[0].den, m.region

    def rebuilt(qs):
        return reduce(add, [mul(q, cb) for q in qs])
    scaled = div(mul(2, quots[0].num), den, region=region)
    twice = [div(q.num, mul(2, den), region=region) for q in quots]
    wider = OpenSet(SL, [(-7, 7)])
    assert SL.proves_equal(one(ca), one(cb), m.region)
    assert SL.proves_equal(one(rebuilt(quots)), one(cb), m.region)
    cases = [(m, ca, add(cb, mul(X, window_bump(-1, 1)[0]))),  # u + x bump
             (m, rebuilt([scaled] + quots[1:]), cb),           # one scaled
             (m, rebuilt(quots[:2]), cb),                      # one dropped
             (m, rebuilt(twice[:1] + quots[1:]), cb),          # other den
             (m, rebuilt(twice), cb),                          # all over 2S
             (wider, ca, cb)]                                  # not certified
    refuse(monkeypatch, quadrature, "_adaptive")
    for dom, a, b in cases:
        assert not SL.proves_equal(one(a), one(b), dom.region)
        assert not SL.proves_equal(one(b), one(a), dom.region)
        with pytest.raises(Measured):
            function_gap(FormalFunction(SL, dom, 1, 2, {(0,): a}),
                         FormalFunction(SL, dom, 1, 2, {(0,): b}))


def test_a_bump_between_two_grid_points_is_measured():
    # the bump is 1 on [1/200, 1/100] and 0 outside (1/500, 1/60): it
    # lies between two points of a 101-point grid on (-1, 1), not
    # between the density probes
    dom = OpenSet(SL, [(-1, 1)])
    b, _, _ = bump(Fraction(1, 500), Fraction(1, 200), Fraction(1, 100),
                   Fraction(1, 60))
    zero, u = (FormalFunction(SL, dom, 1, 2, c) for c in ({}, {(0,): b}))
    assert function_gap(zero, u) > 1e-3
    assert function_gap(u, zero) > 1e-3


def test_every_proved_reassembly_samples_to_zero():
    pou = build_pou(suites._three_part_cover(SL), 1, 4)
    proved = []
    for seed in range(20):
        back, u = reassembled(pou, seed)
        for j in u.coeffs:
            assert SL.proves_equal(one(back.coeff(j)), one(u.coeff(j)),
                                   u.domain.region)
        proved.append((back, u))
    # an oracle that reads no proof: each coefficient pair sampled at
    # 30 digits on the grid of their support
    for back, u in proved:
        for j in u.coeffs.keys() | back.coeffs.keys():
            ca, cb = back.coeff(j), u.coeff(j)
            pts = grid_points(SL.support((ca, cb), u.domain.region))
            assert max_gap([ev(ca, x) for x in pts],
                           [ev(cb, x) for x in pts]) == 0.0


# -- glued and reassembled distributions ------------------------------------------


def test_every_proved_glue_and_reassembly_measures_to_zero(monkeypatch):
    seen = []

    def recording(a, b, family):
        seen.append((a, b, family))
        return functional_residual(a, b, family)
    monkeypatch.setattr(suites, "functional_residual", recording)
    for seed in range(20):
        suites.suite_glue(SL, 1, 1, seed, 1e-8, rounds=1)
        suites.suite_cosheaf(SL, 1, 1, seed, 1e-8, rounds=1)
    proved = [(a, b, fam) for a, b, fam in seen
              if a != b and sheaf._proves(a, b)]
    # both glue laws and the cosheaf distribution and density laws
    assert {type(a) for a, _, _ in proved} == {
        GeneralizedFunction, FormalDistribution, CompactFormalDistribution,
        FormalDensity}
    monkeypatch.setattr(sheaf, "_proves", operator.eq)
    for a, b, fam in proved:
        assert functional_residual(a, b, fam)[0] <= 1e-12


def edited(section, edit, support=None):
    """section with the terms of its first entry passed through edit."""
    j = min(section.coeffs)
    coeffs = dict(section.coeffs)
    coeffs[j] = (BaseDistribution(SL, terms=edit(list(coeffs[j][0].terms))),)
    return CompactFormalDistribution(SL, section.domain, 1, 1, coeffs,
                                     support=section.support if support is None
                                     else support)


def test_a_perturbed_distribution_reassembly_is_measured(monkeypatch):
    pou = build_pou(suites._three_part_cover(SL), 1, 4)
    m = pou.cover.whole
    t = suites.rand_compact_distribution(random.Random(6), SL, m, 1, 1, 1)
    back = cosheaf_reassemble(cosheaf_decompose(t, pou), m)
    split = [n for n, s in enumerate(back.coeffs[min(back.coeffs)][0].terms)
             if isinstance(s, SmoothTerm)]
    assert len(split) == 3

    def dropped(terms):
        del terms[split[0]]
        return terms

    def doubled(terms):
        g = terms[split[0]].g
        q = div(mul(2, g.a.num), g.a.den, region=m.region)
        terms[split[0]] = SmoothTerm(mul(q, g.b), terms[split[0]].bound)
        return terms

    def shrunk(terms):
        bounds = [terms[n].bound for n in split]
        top = max(split, key=lambda n: terms[n].bound.hull()[1])
        lo, hi = terms[top].bound.hull()
        terms[top] = SmoothTerm(terms[top].g,
                                RSet.closed_pairs([(lo, hi - (hi - lo) / 4)]))
        whole = reduce(RSet.union, bounds)
        assert not whole <= reduce(RSet.union,
                                   [terms[n].bound for n in split])
        return terms

    beyond = RSet.closed_pairs([(5, Fraction(11, 2))])

    def widened(terms):
        n = split[0]
        terms[n] = SmoothTerm(terms[n].g, terms[n].bound | beyond)
        return terms

    def moved(terms):
        p = terms[-1]
        assert isinstance(p, PointTerm)
        terms[-1] = PointTerm(p.a, p.i, complex(p.c) + 1e-12)
        return terms
    bexpr, bsupp, _ = window_bump(-1, 1)
    bumped = t.add(CompactFormalDistribution(
        SL, m, 1, 1, {(0,): (BaseDistribution.smooth(SL, mul(X, bexpr),
                                                     bsupp),)}))
    wider = OpenSet(SL, [(-7, 7)])
    cases = [(edited(back, e), t) for e in (dropped, doubled, shrunk, moved)] \
        + [(back, bumped)]
    # equal pairs that the partition identity leaves unknown, a bound
    # widened where its coefficient is 0 and both sides extended past the
    # denominator's certificate, are proved on the pieces of their bounds
    true = [(edited(back, widened, back.support | beyond), t),
            (back.ext(wider), t.ext(wider))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sheaf, "_proves", lambda a, b=None: a == b)
        for a, b in true:
            fam = dual_function_family(SL, a.domain, 1, 1)
            assert functional_residual(a, b, fam)[0] < 1e-12
    refuse(monkeypatch, quadrature, "_adaptive")
    fam = dual_function_family(SL, m, 1, 1)
    assert back != t and functional_residual(back, t, fam) == (0.0, None)
    for a, b in true:
        assert sheaf._proves(a, b) and sheaf._proves(b, a)
    for a, b in cases:
        assert not sheaf._proves(a, b)
        assert not sheaf._proves(b, a)
        with pytest.raises(Measured):
            functional_residual(a, b, dual_function_family(SL, a.domain, 1, 1))
