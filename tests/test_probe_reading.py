"""Probe values read by coordinates against the per-probe pairing loop.

On a discrete space `functional_residual` and `functional_zero_residual`
read a section's probe values off its coefficient table and compare two
sections only where either has a weight. `ref_*` below is the loop it
replaced, kept verbatim: eager probe lists, and one pairing per probe
through `ref_apply_probe`. On seeded densities, distributions, compactly
supported distributions and generalized functions both must give the
same residual (the same float), the same witness (equal `to_json`) and
the same errors, and `flabby_check`, `mv_split` and `sheaf_glue` must
decide and report as the loop made them.
"""

import random
from fractions import Fraction

import pytest

from formalcalc.basedensity import BaseDensity
from formalcalc.densities import FormalDensity
from formalcalc.distributions import (BaseDistribution,
                                      CompactFormalDistribution,
                                      FormalDistribution, GeneralizedFunction)
from formalcalc.errors import (DomainMismatchError, FormalcalcError,
                               IncompatibilityError)
from formalcalc.functions import SupportedFormalFunction
from formalcalc.multiindex import enumerate_upto, mi, mi_factorial
from formalcalc.scalars import QC
from formalcalc.sheaf import (Cover, build_pou, dual_density_family,
                              dual_function_family, flabby_check,
                              functional_residual, functional_zero_residual,
                              mv_phi, mv_split, sheaf_glue)
from formalcalc.spaces import Discrete, OpenSet, SmoothLine
from formalcalc.suites import (rand_compact_distribution, rand_density,
                               rand_distribution, rand_generalized)

DS = Discrete(["a", "b", "c", "d", "e"])
SL = SmoothLine()
KINDS = ("density", "distribution", "compact", "generalized")


# -- the per-probe loop, as it was ----------------------------------------------------


def ref_dual_function_family(space, domain, k, trunc, xdeg_cap=2):
    keys = enumerate_upto(k, trunc)
    return [SupportedFormalFunction._trusted(
                space, domain, k, {j: c}, trunc=trunc, support=supp,
                plateau=None)
            for c, supp in space.probes(domain.region, xdeg_cap)
            for j in keys]


def ref_dual_density_family(space, domain, k, star_cap, xdeg_cap=2,
                            stack_cap=1):
    keys = enumerate_upto(k, star_cap)
    stacks = enumerate_upto(space.ndim, stack_cap)
    out = []
    for c, supp in space.probes(domain.region, xdeg_cap):
        tau = BaseDensity._trusted(space, c, supp)
        out.extend(FormalDensity._trusted(space, domain, k, {l: ((i, tau),)})
                   for l in keys for i in stacks)
    return out


def ref_apply_probe(obj, probe):
    """E-vector (as a list) of the functional read against one probe."""
    if isinstance(obj, FormalDensity):
        return [obj.pair(probe)]
    if isinstance(obj, (FormalDistribution, GeneralizedFunction)):
        return obj.apply(probe)
    raise TypeError("no probe application for %r" % type(obj).__name__)


def ref_vec_gap(va, vb) -> float:
    if len(va) != len(vb):
        raise DomainMismatchError("functionals with E_dim %d and %d are "
                                  "not comparable" % (len(va), len(vb)))
    return max((abs(complex(x) - complex(y)) for x, y in zip(va, vb)),
               default=0.0)


def ref_functional_residual(a, b, probes):
    """Max probe disagreement and the witnessing probe (None if empty).

    Functionals of different E_dim raise DomainMismatchError.
    """
    worst, witness = 0.0, None
    for p in probes:
        gap = ref_vec_gap(ref_apply_probe(a, p), ref_apply_probe(b, p))
        if gap > worst:
            worst, witness = gap, p
    return worst, witness


def ref_functional_zero_residual(a, probes):
    """Max probe magnitude and the witnessing probe."""
    worst, witness = 0.0, None
    for p in probes:
        gap = max((abs(complex(x)) for x in ref_apply_probe(a, p)), default=0.0)
        if gap > worst:
            worst, witness = gap, p
    return worst, witness


def ref_flabby_check(sections, u, tol=0.0):
    families = {}
    for z in sections:
        if isinstance(z, SupportedFormalFunction):
            if not z.is_exactly_zero() and z.ext(u).is_exactly_zero():
                return False
            continue
        if not isinstance(z, (FormalDensity, CompactFormalDistribution)):
            raise TypeError("cannot flabby-check %r" % type(z).__name__)
        if z.is_exactly_zero():
            continue
        e = z.ext(u)
        shape = (z.k, z.star_degree())
        if shape not in families:
            families[shape] = ref_dual_function_family(u.space, u, *shape)
        resid, _ = ref_functional_zero_residual(e, families[shape])
        if resid <= tol:
            return False
    return True


def ref_glue_failure(locals_, pou, tol):
    """(first, second, residual, probe JSON) of the first overlap whose
    locals disagree, as the gluing check found it; None if none does."""
    cover, k = pou.cover, locals_[0].k
    generalized = isinstance(locals_[0], GeneralizedFunction)
    cap = max(loc.star_degree() for loc in locals_) if not generalized else 0
    for a in range(len(locals_)):
        for b in range(a + 1, len(locals_)):
            w = cover.parts[a].intersect(cover.parts[b])
            if w.is_empty:
                continue
            ra, rb = locals_[a].restrict(w), locals_[b].restrict(w)
            if generalized:
                probes = ref_dual_density_family(DS, w, k,
                                                 min(ra.trunc, rb.trunc))
            else:
                probes = ref_dual_function_family(DS, w, k, cap)
            resid, witness = ref_functional_residual(ra, rb, probes)
            if resid > tol:
                return (a, b, resid,
                        witness.to_json() if witness is not None else None)
    return None


# -- comparing outcomes ------------------------------------------------------------------


def outcome(fn, *args):
    """(residual, witness JSON) of a residual call, or the error it
    raised as (type, message)."""
    try:
        resid, witness = fn(*args)
    except (FormalcalcError, TypeError) as e:
        return type(e), str(e)
    return resid, witness.to_json() if witness is not None else None


def assert_same_residual(a, b, family, probes):
    got = outcome(functional_residual, a, b, family)
    want = outcome(ref_functional_residual, a, b, probes)
    assert got == want
    assert type(got[0]) is type(want[0])
    return got


def assert_same_zero_residual(a, family, probes):
    got = outcome(functional_zero_residual, a, family)
    want = outcome(ref_functional_zero_residual, a, probes)
    assert got == want
    return got


# -- seeded sections -----------------------------------------------------------------------


def rand_domain(rng, space=DS):
    return OpenSet(space, [p for p in space.points if rng.randint(0, 2)]
                   or [rng.choice(space.points)])


def draw(rng, kind, dom, k, cap, e_dim):
    if kind == "density":
        return rand_density(rng, DS, dom, k, cap)
    if kind == "distribution":
        return rand_distribution(rng, DS, dom, k, cap, e_dim)
    if kind == "compact":
        return rand_compact_distribution(rng, DS, dom, k, cap, e_dim)
    return rand_generalized(rng, DS, dom, k, cap, e_dim)


def families(kind, dom, k, cap, xcap=2, scap=1):
    """The family a section of the kind is read against, and its
    reference list."""
    if kind == "generalized":
        return (dual_density_family(DS, dom, k, cap, xcap, scap),
                ref_dual_density_family(DS, dom, k, cap, xcap, scap))
    return (dual_function_family(DS, dom, k, cap, xcap),
            ref_dual_function_family(DS, dom, k, cap, xcap))


UNITS = (QC(1), QC(-1), QC(0, 1), QC(0, -1))


def perturbation(rng, kind, dom, k, cap, e_dim):
    """A section of the kind that moves two to four probe values of the
    family by the same magnitude: tied maxima, across labels, keys and
    components, with J! divided out of the weights."""
    size = QC(rng.randint(1, 4))
    keys = enumerate_upto(k, cap)
    table = {}
    for _ in range(rng.randint(2, 4)):
        j = rng.choice(keys)
        comp = rng.randrange(e_dim)
        p = rng.choice(sorted(dom.region))
        w = size * rng.choice(UNITS) / QC(mi_factorial(j))
        table.setdefault(j, [{} for _ in range(e_dim)])[comp][p] = w
    if kind == "density":
        return FormalDensity(DS, dom, k, {
            j: ((mi(()), BaseDensity.discrete(DS, vec[0])),)
            for j, vec in table.items()})
    coeffs = {j: tuple(BaseDistribution(DS, weights=w) for w in vec)
              for j, vec in table.items()}
    if kind == "distribution":
        return FormalDistribution(DS, dom, k, e_dim, coeffs)
    if kind == "compact":
        return CompactFormalDistribution(DS, dom, k, e_dim, coeffs)
    return GeneralizedFunction(DS, dom, k, cap, e_dim, coeffs)


# -- residuals and witnesses ------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_residuals_and_witnesses_match_the_probe_loop(kind):
    rng = random.Random(1201 + KINDS.index(kind))
    ties = unequal = 0
    for _ in range(50):
        dom = rand_domain(rng)
        k, cap = rng.randint(1, 2), rng.randint(0, 2)
        e_dim = 1 if kind == "density" else rng.randint(1, 2)
        s = draw(rng, kind, dom, k, cap, e_dim)
        t = draw(rng, kind, dom, k, cap, e_dim)
        tied = s.add(perturbation(rng, kind, dom, k, cap, e_dim))
        fam, probes = families(kind, dom, k, cap)
        # equal pairs, a section rebuilt equal, unequal pairs, tied maxima
        assert assert_same_residual(s, s, fam, probes) == (0.0, None)
        assert assert_same_residual(s, s.scale(1), fam, probes)[0] == 0.0
        for a, b in ((s, t), (t, s), (s, tied), (tied, s)):
            if assert_same_residual(a, b, fam, probes)[0] > 0:
                unequal += 1
        ties += outcome(functional_residual, s, tied, fam)[0] > 0
        for a in (s, t, tied, s.add(s.scale(-1))):
            assert_same_zero_residual(a, fam, probes)
        # a larger cap reads the same values at more probes
        fam, probes = families(kind, dom, k, cap + 1)
        assert_same_residual(s, tied, fam, probes)
    assert ties > 40 and unequal > 150


def test_mixed_kinds_on_function_probes_match():
    rng = random.Random(1207)
    for _ in range(30):
        dom = rand_domain(rng)
        k, cap = rng.randint(1, 2), rng.randint(0, 2)
        eta = rand_density(rng, DS, dom, k, cap)
        t = rand_distribution(rng, DS, dom, k, cap, 1)
        fam, probes = families("density", dom, k, cap)
        assert_same_residual(eta, t, fam, probes)
        assert_same_residual(t, eta, fam, probes)


def test_keys_above_the_cap_and_truncation_errors_match():
    rng = random.Random(1213)
    raised = skipped = 0
    for _ in range(60):
        dom = rand_domain(rng)
        k, cap = rng.randint(1, 2), rng.randint(0, 3)
        for kind in KINDS:
            e_dim = 1 if kind == "density" else rng.randint(1, 2)
            s = draw(rng, kind, dom, k, cap, e_dim)
            t = draw(rng, kind, dom, k, cap, e_dim)
            # a function family below the star degree, a density family
            # above a generalized function's trunc: TruncationError; a
            # density family below its trunc skips the keys above
            fam, probes = families(kind, dom, k, rng.randint(0, 3))
            got = assert_same_residual(s, t, fam, probes)
            assert_same_zero_residual(t, fam, probes)
            raised += isinstance(got[0], type)
            skipped += kind == "generalized" and fam.cap < cap
    assert raised > 40 and skipped > 10


def test_domain_and_k_errors_match():
    rng = random.Random(1217)
    other = OpenSet(DS, ["a", "b"])
    for kind in KINDS:
        s = draw(rng, kind, DS.whole(), 1, 1, 1)
        for dom, k in ((other, 1), (DS.whole(), 2)):
            fam, probes = families(kind, dom, k, 2)
            got = assert_same_zero_residual(s, fam, probes)
            assert got[0] is DomainMismatchError
            assert_same_residual(s, s, fam, probes)


@pytest.mark.parametrize("kind", KINDS)
def test_empty_families_read_nothing(kind):
    empty = OpenSet(DS, [])
    e_dim = 1 if kind == "density" else 2
    if kind == "compact":
        s = CompactFormalDistribution(DS, empty, 1, e_dim)
    else:
        s = draw(random.Random(3), kind, empty, 1, 2, e_dim)
    for cap in (0, 2):
        fam, probes = families(kind, empty, 1, cap)
        assert len(fam) == 0 and list(fam) == probes == []
        assert assert_same_residual(s, s, fam, probes) == (0.0, None)
        assert assert_same_zero_residual(s, fam, probes) == (0.0, None)


def test_line_sections_still_pair_every_probe():
    rng = random.Random(1223)
    dom = OpenSet(SL, [(-4, 4)])
    for _ in range(2):
        eta = rand_density(rng, SL, dom, 1, 1)
        zeta = rand_density(rng, SL, dom, 1, 1)
        fam = dual_function_family(SL, dom, 1, 1, xdeg_cap=1)
        probes = ref_dual_function_family(SL, dom, 1, 1, xdeg_cap=1)
        assert_same_residual(eta, zeta, fam, probes)
        assert_same_zero_residual(eta, fam, probes)
        g = rand_generalized(rng, SL, dom, 1, 1, 1)
        h = rand_generalized(rng, SL, dom, 1, 1, 1)
        fam = dual_density_family(SL, dom, 1, 1, xdeg_cap=0, stack_cap=1)
        probes = ref_dual_density_family(SL, dom, 1, 1, xdeg_cap=0,
                                         stack_cap=1)
        assert_same_residual(g, h, fam, probes)


# -- the checks that report a witness -------------------------------------------------------


def test_flabby_check_decides_as_the_probe_loop():
    rng = random.Random(1229)
    falses = 0
    for _ in range(40):
        v = rand_domain(rng)
        sections = list(dual_density_family(DS, v, 1, 2))
        for _ in range(3):
            sections.append(rand_density(rng, DS, v, 1, rng.randint(0, 2)))
            sections.append(rand_compact_distribution(
                rng, DS, v, 1, rng.randint(0, 2), rng.randint(1, 2)))
        rng.shuffle(sections)
        for tol in (0.0, 1.0, 4.0):
            got = flabby_check(sections, DS.whole(), tol=tol)
            assert got == ref_flabby_check(sections, DS.whole(), tol=tol)
            falses += not got
    assert falses > 20


def test_mv_split_errors_match():
    rng = random.Random(1231)
    u1, u2 = OpenSet(DS, ["a", "b", "c"]), OpenSet(DS, ["c", "d", "e"])
    u = u1.union(u2)
    raised = 0
    for _ in range(40):
        k = rng.randint(1, 2)
        eta1 = rand_density(rng, DS, u1, k, rng.randint(0, 2))
        eta2 = rand_density(rng, DS, u2, k, rng.randint(0, 2))
        trunc = max(eta1.star_degree(), eta2.star_degree())
        resid, witness = ref_functional_zero_residual(
            mv_phi(eta1, eta2), ref_dual_function_family(DS, u, k, trunc))
        try:
            mv_split(eta1, eta2)
        except IncompatibilityError as e:
            raised += 1
            assert (e.residual, e.probe, e.first, e.second) == (
                resid, witness.to_json(), 0, 1)
            assert str(e) == ("not a kernel pair: phi(eta1, eta2) has "
                              "residual %g" % resid)
        else:
            assert resid == 0.0
    assert raised > 30


@pytest.mark.parametrize("generalized", [False, True])
def test_sheaf_glue_errors_match(generalized):
    rng = random.Random(1237 + generalized)
    parts = [OpenSet(DS, ["a", "b", "c"]), OpenSet(DS, ["b", "c", "d"]),
             OpenSet(DS, ["c", "d", "e"])]
    pou = build_pou(Cover(DS.whole(), parts), 1, 3)
    raised = 0
    for _ in range(30):
        e_dim = rng.randint(1, 2)
        if generalized:
            g = rand_generalized(rng, DS, DS.whole(), 1, 2, e_dim)
        else:
            g = rand_distribution(rng, DS, DS.whole(), 1, 2, e_dim)
        locs = [g.restrict(p) for p in parts]
        n = rng.randrange(3)
        kind = "generalized" if generalized else "distribution"
        locs[n] = locs[n].add(perturbation(rng, kind, parts[n], 1, 2, e_dim))
        want = ref_glue_failure(locs, pou, 1e-8)
        try:
            sheaf_glue(locs, pou)
        except IncompatibilityError as e:
            raised += 1
            assert (e.first, e.second, e.residual, e.probe) == want
        else:
            assert want is None
    assert raised > 20


def test_glue_mismatch_witness_is_the_first_largest_probe():
    # the locals disagree by 1 at (b, y^2) and at (c, y^0) of their
    # overlap {b, c}: the witness is the probe of the first label
    parts = [OpenSet(DS, ["a", "b", "c"]), OpenSet(DS, ["b", "c", "d", "e"])]
    pou = build_pou(Cover(DS.whole(), parts), 1, 2)
    w = BaseDistribution(DS, weights={"a": 1, "b": 1, "c": 1})
    t = FormalDistribution(DS, parts[0], 1, 1, {(0,): (w,)})
    u = FormalDistribution(DS, parts[1], 1, 1, {
        (0,): (BaseDistribution(DS, weights={"b": 1, "c": 2}),),
        (2,): (BaseDistribution(DS, weights={"b": Fraction(1, 2)}),)})
    with pytest.raises(IncompatibilityError) as info:
        sheaf_glue([t, u], pou)
    assert info.value.residual == 1.0
    assert info.value.probe == {"trunc": 2, "coeffs": {"2": {"b": 1}},
                                "support": ["b"]}
    assert ref_glue_failure([t, u], pou, 1e-8) == (0, 1, 1.0, info.value.probe)
