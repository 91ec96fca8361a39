"""flabby_check reads its probes in two stages, one batch each: the
block of base probe 0 of every section, then the other blocks of the
sections the first stage did not see. Its verdicts are those of reading
every probe of every section in one batch (`every_probe` below, the read
it replaced). Its errors follow the staged rule: a section the first
stage sees makes no later integral, so none can raise, and the first
section not seen raises its error or makes the check False.

A batch fails fast as well: once a member of an integral group has
failed, no later member of that group is walked, because the batch is
read in entry order and stops at the first error."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from formalcalc import quadrature, sheaf, spaces, suites
from formalcalc.basedensity import BaseDensity
from formalcalc.cli import main
from formalcalc.densities import FormalDensity
from formalcalc.errors import QuadratureError
from formalcalc.expr import Const, Mul, X, mul, window_bump
from formalcalc.functions import SupportedFormalFunction
from formalcalc.sheaf import dual_function_family, flabby_check, probe_values
from formalcalc.spaces import Discrete, OpenSet, SmoothLine
from test_check_batches import LEFT, RIGHT, drawn
from test_probe_groups import alone, bits

SL = SmoothLine()
DS = Discrete(["a", "b", "c", "d", "e"])
DOM = OpenSet(SL, [(-2, 2)])
TOL = 1e-8
SMOOTH = Path(__file__).resolve().parent.parent / "scenarios" \
    / "smooth_demo.json"


def every_probe(sections, u, tol=0.0):
    """flabby_check as one batch of every probe: every section extended
    and checked first, then decided in order, each raising what its
    read raises."""
    families, reads = {}, []
    for z in sections:
        if sheaf._compact(z, "flabby-check").is_exactly_zero():
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
    for (e, family), values in zip(reads, probe_values(u.space, reads)):
        if sheaf._worst(family, values, {}, e.e_dim)[0] <= tol:
            return False
    return True


def outcome(check, *args):
    try:
        return check(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture
def batches(monkeypatch):
    """The number of integrals in each batch made: one entry per
    `_make_groups` call."""
    made = []
    raw = quadrature._make_groups

    def counted(memo, pending):
        made.append(len(pending))
        return raw(memo, pending)
    monkeypatch.setattr(quadrature, "_make_groups", counted)
    return made


def density_on(lo, hi, domain=DOM, scale=1):
    """scale times the window bump of (lo, hi) as a density on domain."""
    b, supp, _ = window_bump(Fraction(lo), Fraction(hi))
    return FormalDensity.monomial(SL, domain, 1, (0,),
                                  BaseDensity.smooth(SL, mul(scale, b), supp))


# -- staged verdicts against every probe ------------------------------------


LINE_PARTS = [OpenSet(SL, [(lo, hi)]) for lo, hi in
              ((-2, 2), (-2, 0), (0, 2), (Fraction(3, 2), 2))]


def line_section(rng):
    """A nonzero density or compact distribution of star degree 0 or 1
    on a part of DOM, now and then made faint, or a supported function:
    on a part (passed over) or on a wider domain (refused)."""
    part = rng.choice(LINE_PARTS)
    kind = rng.randrange(6)
    if kind == 5:
        domain = rng.choice([part, OpenSet(SL, [(-3, 3)])])
        return suites.rand_supported_function(rng, SL, domain, 1, 1)
    while True:
        if kind < 3:
            z = suites.rand_density(rng, SL, part, 1, rng.randint(0, 1))
        else:
            z = suites.rand_compact_distribution(
                rng, SL, part, 1, rng.randint(0, 1), rng.randint(1, 2))
        if not z.is_exactly_zero():
            break
    return z.scale(Fraction(1, 10 ** 12)) if rng.random() < 0.2 else z


def test_staged_flabby_decides_as_every_probe_on_the_line():
    rng = random.Random(3607)
    seen = set()
    for _ in range(16):
        sections = [line_section(rng) for _ in range(rng.randint(2, 4))]
        tol = rng.choice([0.0, TOL])
        want = outcome(every_probe, sections, DOM, tol)
        assert outcome(flabby_check, sections, DOM, tol) == want
        seen.add(want if isinstance(want, bool) else want[0].__name__)
    assert seen == {True, False, "DomainMismatchError"}


def test_staged_flabby_decides_as_every_probe_on_a_discrete_space():
    rng = random.Random(3613)
    seen = set()
    for _ in range(60):
        labels = [p for p in DS.points if rng.randint(0, 1)] or ["c"]
        v = OpenSet(DS, labels)
        sections = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(3)
            if kind == 0:
                sections.append(suites.rand_density(
                    rng, DS, v, 1, rng.randint(0, 2)))
            elif kind == 1:
                sections.append(suites.rand_compact_distribution(
                    rng, DS, v, rng.choice([1, 2]), rng.randint(0, 2),
                    rng.randint(1, 2)))
            else:
                domain = rng.choice([v, DS.whole()])
                sections.append(suites.rand_supported_function(
                    rng, DS, domain, 1, 1))
        u = rng.choice([v, DS.whole()])
        for tol in (0.0, 1.0, 4.0):
            want = outcome(every_probe, sections, u, tol)
            assert outcome(flabby_check, sections, u, tol) == want
            seen.add(want if isinstance(want, bool) else want[0].__name__)
    assert {True, False, "DomainMismatchError"} <= seen


# -- what each stage reads --------------------------------------------------


def flabby_sections(seed):
    """A density, a compact distribution and a density of another star
    degree, so that the round reads two families."""
    rng = random.Random(seed)
    return [drawn(rng, suites.rand_density, LEFT, 1, 1),
            drawn(rng, suites.rand_compact_distribution, DOM, 1, 1, 2),
            drawn(rng, suites.rand_density, RIGHT, 1, 0)]


def budget_on_the_right(monkeypatch, budget=15):
    """Quadratures over ranges inside RIGHT get a small budget."""
    raw = quadrature._adaptive

    def small(program, n, ranges, abs_tol, budget_):
        if all(lo >= 0 for lo, _ in ranges):
            budget_ = budget
        return raw(program, n, ranges, abs_tol, budget_)
    monkeypatch.setattr(quadrature, "_adaptive", small)


@pytest.mark.parametrize("seed", [0, 1])
def test_flabby_reads_each_stage_as_alone(seed, batches, monkeypatch):
    # stage 1 reads the first block of every section, stage 2 the other
    # blocks of those it left unseen (here the odd section, which the
    # even bump of base probe 0 reads as a rounding error), each block
    # numbered from 0 within its stage
    sections = flabby_sections(seed) + [ODD]
    assert len({(z.k, z.star_degree()) for z in sections}) == 2
    first, rest = [], []
    for z in sections:
        family = dual_function_family(SL, DOM, z.k, z.star_degree())
        values = alone(z.ext(DOM), family)
        head = {n: v for n, v in values.items() if n < family.width}
        first.append(bits(head))
        if sheaf._worst(family, head, {}, z.e_dim)[0] <= TOL:
            rest.append(bits({n - family.width: v for n, v in values.items()
                              if n >= family.width}))
    assert len(rest) == 1
    read, worst = [], sheaf._worst

    def reading(family, va, vb, e_dim):
        read.append(bits(va))
        return worst(family, va, vb, e_dim)
    monkeypatch.setattr(sheaf, "_worst", reading)
    del batches[:]
    assert flabby_check(sections, DOM, TOL) is True
    assert read == first + rest
    assert len(batches) == 2


def test_flabby_decides_a_kernel_section_before_a_later_failed_read_in_two_batches(
        monkeypatch, batches):
    rng = random.Random(0)
    # extension by zero keeps it, but no probe sees it above TOL
    faint = drawn(rng, suites.rand_density, LEFT, 1, 1).scale(
        Fraction(1, 10 ** 12))
    failing = drawn(rng, suites.rand_density, RIGHT, 1, 1)
    budget_on_the_right(monkeypatch)
    with pytest.raises(QuadratureError, match="budget 15 exhausted"):
        flabby_check([failing], DOM, TOL)
    with pytest.raises(QuadratureError, match="budget 15 exhausted"):
        flabby_check([failing, faint], DOM, TOL)
    del batches[:]
    # the failing section's first block is made in stage 1, and its
    # error is never read: the faint one, before it, is decided by stage
    # 2, which reads nothing of the failing one
    assert flabby_check([faint, failing], DOM, TOL) is False
    assert len(batches) == 2


def test_a_smooth_flabby_round_compiles_one_program_per_group_and_stage(
        monkeypatch):
    made = []
    raw = quadrature._compile

    def counted(*args, **kw):
        made.append(kw.get("roots"))
        return raw(*args, **kw)
    monkeypatch.setattr(quadrature, "_compile", counted)
    assert suites.suite_flabby(SL, 1, 1, TOL)["pass"]
    assert len(made) == 8
    assert all(made)


def test_a_smooth_flabby_round_integrates_each_staged_integral_once(
        monkeypatch):
    # a round asks for 76 integrals in four batches (216 in two when
    # every probe was read), 38 of them distinct (108); back-to-back
    # rounds have identical inputs and still share nothing
    requests, walked = [], []
    ask, walk = spaces.integrate_exprs, quadrature._adaptive

    def asked(items, *args):
        requests.append(len(items))
        return ask(items, *args)

    def walking(program, n, *args):
        walked.append(n)
        return walk(program, n, *args)
    # SmoothLine.integrate_all reads it from its own module
    monkeypatch.setattr(spaces, "integrate_exprs", asked)
    monkeypatch.setattr(quadrature, "_adaptive", walking)
    for _ in range(2):
        del requests[:], walked[:]
        assert suites.suite_flabby(SL, 1, 1, TOL)["pass"]
        assert (sum(requests), len(requests), sum(walked)) == (76, 4, 38)


# -- sections no probe reaches ----------------------------------------------


def unreached():
    """A density on (4, 6) and the whole line, whose probe windows are
    (-1, 1) and (-3, 3): no probe reaches the density."""
    return [density_on(4, 6, SL.whole())], SL.whole()


def test_a_section_no_probe_reaches_is_not_seen():
    assert flabby_check(*unreached()) is False
    assert every_probe(*unreached()) is False


# -- errors: the staged rule ---------------------------------------------------


def starve(monkeypatch, *parts):
    """Every integral group holding an integrand with all of the given
    subterms is walked with a budget of one panel."""
    raw = quadrature._walk

    def walk(members, abs_tol, budget):
        if any(all(p in nodes for p in parts) for *_, nodes in members):
            budget = 15
        return raw(members, abs_tol, budget)
    monkeypatch.setattr(quadrature, "_walk", walk)


def bump_of(lo, hi):
    return window_bump(Fraction(lo), Fraction(hi))[0]


# the probe windows of DOM: base probe 0 is the bump of (-3/2, 3/2), and
# the later blocks are it times x and x^2, then the bumps of (-3/2, 0)
# and (0, 3/2)
FIRST = bump_of(Fraction(-3, 2), Fraction(3, 2))
LAST = bump_of(0, Fraction(3, 2))
# seen by base probe 0
SEEN = density_on(-1, 1)
# odd, so base probe 0 reads 0 and the probes of later blocks see it
ODD = FormalDensity.monomial(SL, DOM, 1, (0,), BaseDensity.smooth(
    SL, mul(bump_of(-1, 1), X), window_bump(Fraction(-1), Fraction(1))[1]))
# extension by zero keeps it, but no probe sees it above TOL
FAINT = density_on(Fraction(-7, 4), Fraction(-1, 2),
                   scale=Fraction(1, 10 ** 12))


def test_a_section_the_first_block_sees_makes_no_later_integral(
        monkeypatch, batches):
    starve(monkeypatch, bump_of(-1, 1), LAST)
    with pytest.raises(QuadratureError, match="budget 15 exhausted"):
        every_probe([SEEN], DOM, TOL)
    del batches[:]
    assert flabby_check([SEEN], DOM, TOL) is True
    assert len(batches) == 1


def test_a_failed_first_block_read_raises_in_section_order(monkeypatch,
                                                           batches):
    starve(monkeypatch, bump_of(-1, 1), FIRST)
    for sections in ([SEEN], [SEEN, FAINT], [density_on(-1, 0), SEEN]):
        with pytest.raises(QuadratureError, match="budget 15 exhausted"):
            flabby_check(sections, DOM, TOL)
    # the faint section comes first and is read by both stages; the
    # failing one is read by neither after it
    del batches[:]
    assert flabby_check([FAINT, SEEN], DOM, TOL) is False
    assert len(batches) == 2


def test_a_failed_later_block_read_raises_in_section_order(monkeypatch):
    assert flabby_check([ODD], DOM, TOL) is True
    starve(monkeypatch, X, LAST)
    with pytest.raises(QuadratureError, match="budget 15 exhausted"):
        flabby_check([ODD], DOM, TOL)
    with pytest.raises(QuadratureError, match="budget 15 exhausted"):
        flabby_check([SEEN, ODD, FAINT], DOM, TOL)
    assert flabby_check([FAINT, ODD], DOM, TOL) is False


# -- fail fast inside a batch ---------------------------------------------


RANGE = [(Fraction(-1), Fraction(1))]
BUMP = window_bump(Fraction(-1), Fraction(1))[0]
# not finite at its first panel: 10^200 * 10^200 overflows to inf
OVERFLOW = Mul(Const(10 ** 200), Mul(Const(10 ** 200), BUMP))
# too large for the absolute tolerance: it spends its budget
LARGE = mul(10 ** 12, BUMP)


def panel_calls(monkeypatch):
    calls = []
    raw = quadrature._compile

    def compiled(*args, **kw):
        program = raw(*args, **kw)

        def counted(mid, half):
            calls.append((mid, half))
            return program(mid, half)
        return counted
    monkeypatch.setattr(quadrature, "_compile", compiled)
    return calls


def read_first(items):
    with pytest.raises(QuadratureError) as got:
        list(quadrature.integrate_exprs(items, budget=3000))
    return str(got.value)


def test_a_failed_member_stops_every_later_member(monkeypatch):
    alone = read_first([(LARGE, RANGE)])
    calls = panel_calls(monkeypatch)
    assert read_first([(LARGE, RANGE)]) == alone
    assert len(calls) == 200
    # the overflow fails at the first panel, and the large member, which
    # comes after it, is never walked
    del calls[:]
    assert read_first([(OVERFLOW, RANGE), (LARGE, RANGE)]) \
        == "integrand is not finite on segment [-1, 1]"
    assert len(calls) == 1
    # an earlier member is walked to its own end, and raises first
    del calls[:]
    assert read_first([(LARGE, RANGE), (OVERFLOW, RANGE)]) == alone
    assert len(calls) == 200


def test_a_direct_walk_gives_each_member_its_own_outcome():
    union = [n for e in (OVERFLOW, LARGE)
             for n in quadrature._postorder(e)]
    panel = quadrature._compile(list(dict.fromkeys(union)), typed=True,
                                roots=[OVERFLOW, LARGE],
                                rule=quadrature._RULE)
    first, second = quadrature._adaptive(panel, 2, RANGE, 1e-10, 3000)
    assert str(first) == "integrand is not finite on segment [-1, 1]"
    assert str(second).startswith("evaluation budget 3000 exhausted")


def twelve_terms(tmp_path, n):
    """The smooth demo with u's y^1 coefficient 10^12 s(x + 2), and eta's
    y^1 component n terms: I = i and tau = (i + 1) * (eta's tau)."""
    data = json.loads(SMOOTH.read_text())
    data["functions"]["u"]["coeffs"]["1"] = "(* 1000000000000 (s (+ x 2)))"
    term, = data["densities"]["eta"]["coeffs"]["1"]
    data["densities"]["eta"]["coeffs"]["1"] = [
        {"I": [i], "tau": {"expr": "(* %d %s)" % (i + 1, term["tau"]["expr"]),
                           "support": term["tau"]["support"]}}
        for i in range(n)]
    path = tmp_path / ("terms%d.json" % n)
    path.write_text(json.dumps(data))
    return str(path)


def test_a_twelve_term_pairing_reports_its_first_terms_error(
        tmp_path, monkeypatch, capsys):
    # at a budget of 3000 evaluations every term runs out; the pairing
    # reports term 0's error, which it has alone
    raw = quadrature._adaptive
    monkeypatch.setattr(quadrature, "_adaptive",
                        lambda program, n, ranges, abs_tol, budget:
                        raw(program, n, ranges, abs_tol, 3000))
    first = ["pair", "eta", "u", "--scenario", twelve_terms(tmp_path, 1)]
    assert main(first) == 2
    alone = capsys.readouterr().err
    assert "evaluation budget 3000 exhausted" in alone
    assert main(["pair", "eta", "u", "--scenario",
                 twelve_terms(tmp_path, 12)]) == 2
    assert capsys.readouterr().err == alone
