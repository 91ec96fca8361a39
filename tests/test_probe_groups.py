"""On the line a probe family's pairings are read as one batch, their
integrals made one program per group of (bounds, abs_tol, budget); the
probe values are bit for bit those of pairing each probe with its own
integrals."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from formalcalc import quadrature, sheaf, spaces, suites
from formalcalc.cli import main
from formalcalc.distributions import (BaseDistribution, FormalDistribution,
                                      PointTerm, SmoothTerm)
from formalcalc.errors import QuadratureError
from formalcalc.expr import X, window_bump
from formalcalc.scalars import QC
from formalcalc.sheaf import dual_density_family, dual_function_family
from formalcalc.spaces import OpenSet, SmoothLine

SL = SmoothLine()
DOM = OpenSet(SL, [(-2, 2)])
SMOOTH = Path(__file__).resolve().parent.parent / "scenarios" \
    / "smooth_demo.json"


def density(rng, stack_cap):
    # rand_density draws each term's derivative stack from 0 and 1
    return suites.rand_density(rng, SL, DOM, 1, 1), \
        dual_function_family(SL, DOM, 1, 1, xdeg_cap=1)


def distribution(rng, stack_cap):
    return suites.rand_distribution(rng, SL, DOM, 1, 1, 2), \
        dual_function_family(SL, DOM, 1, 1, xdeg_cap=1)


def generalized(rng, stack_cap):
    return suites.rand_generalized(rng, SL, DOM, 1, 1, 1), \
        dual_density_family(SL, DOM, 1, 1, xdeg_cap=1, stack_cap=stack_cap)


CASES = [(make, seed, stacks) for make in (density, distribution, generalized)
         for seed in (0, 4, 5) for stacks in (0, 1)
         if make is generalized or stacks == 0]


def alone(section, family):
    """The per-integral path: every probe paired on its own."""
    return {n: section.apply(p) for n, p in enumerate(family)}


def grouped(section, family):
    return next(sheaf._read_line(SL, [(section, family)]))


def bits(values):
    """Each E-vector entry by type and exact bits."""
    return {n: [(type(v), v if isinstance(v, QC)
                 else (v.real.hex(), v.imag.hex())) for v in vec]
            for n, vec in values.items()}


@pytest.mark.parametrize("make,seed,stacks", CASES)
def test_grouped_probe_values_are_bit_identical(make, seed, stacks):
    section, family = make(random.Random(seed), stacks)
    want = alone(section, family)
    assert any(not isinstance(v, QC) for vec in want.values() for v in vec)
    assert bits(grouped(section, family)) == bits(want)


def test_a_failing_union_program_leaves_its_members_to_the_real_pass(
        monkeypatch):
    raw = quadrature._compile
    raised = []

    def breaking(nodes, roots=None, rule=None):
        f = raw(nodes, roots, rule)
        if len(roots) == 1:
            return f  # a lone integral's

        def program(mid, half):
            # at the first panel a union program meets, which every
            # member of its group integrates
            if not raised or (mid, half) == raised[0]:
                raised.append((mid, half))
                raise ZeroDivisionError("float division by zero")
            return f(mid, half)
        return program
    section, family = generalized(random.Random(0), 1)
    want = alone(section, family)
    monkeypatch.setattr(quadrature, "_compile", breaking)
    assert bits(grouped(section, family)) == bits(want)
    assert len(raised) == 1


def test_an_exhausted_budget_raises_what_the_per_integral_path_raises(
        monkeypatch):
    raw = quadrature._adaptive
    monkeypatch.setattr(quadrature, "_adaptive",
                        lambda program, n, ranges, abs_tol, budget:
                        raw(program, n, ranges, abs_tol, 150))
    section, family = density(random.Random(0), 0)
    with pytest.raises(QuadratureError) as per_integral:
        alone(section, family)
    with pytest.raises(QuadratureError) as planned:
        grouped(section, family)
    assert str(planned.value) == str(per_integral.value)


def test_an_exhausted_budget_is_not_integrated_again_by_the_real_pass(
        monkeypatch):
    # the family's batch integrates its 18 integrals as one group, one of
    # which runs out of budget; reading the batch raises that member's
    # stored error instead of integrating it a second time
    raw = quadrature._adaptive
    runs = []

    def counted(program, n, ranges, abs_tol, budget):
        runs.extend([ranges] * n)
        return raw(program, n, ranges, abs_tol, 150)
    monkeypatch.setattr(quadrature, "_adaptive", counted)
    section, family = density(random.Random(0), 0)
    with pytest.raises(QuadratureError) as per_integral:
        alone(section, family)
    del runs[:]
    with pytest.raises(QuadratureError) as planned:
        grouped(section, family)
    assert len(runs) == 18
    assert str(planned.value) == str(per_integral.value)


def check_all(capsys):
    code = main(["check", "all", "--scenario", str(SMOOTH), "--json"])
    return code, capsys.readouterr().out


def test_smooth_demo_reports_the_same_bytes_when_each_probe_is_paired_alone(
        capsys, monkeypatch):
    grouped_out = check_all(capsys)
    monkeypatch.setitem(sheaf._PROBE_READERS, SmoothLine,
                        lambda space, reads: [
                            {n: section.apply(p) for n, p in enumerate(family)}
                            for section, family in reads])
    assert check_all(capsys) == grouped_out


def test_each_probe_pairing_differentiates_its_partner_once(monkeypatch):
    # SmoothLine.diff reads diff from its own module
    raw, calls = spaces.diff, []
    monkeypatch.setattr(spaces, "diff",
                        lambda c, i: calls.append(i) or raw(c, i))
    counts = {}
    for make, seed, stacks in CASES:
        section, family = make(random.Random(seed), stacks)
        for read in (alone, grouped):
            del calls[:]
            read(section, family)
            counts[make.__name__, seed, stacks, read.__name__] = len(calls)
    for make, seed, stacks in CASES:
        key = (make.__name__, seed, stacks)
        assert counts[key + ("grouped",)] == counts[key + ("alone",)], key
    assert counts["generalized", 0, 1, "alone"] > 0


def test_a_polynomial_integrand_asks_for_exact_bounds():
    with pytest.raises(QuadratureError,
                       match=r"exact \(int or Fraction\) bounds"):
        quadrature.integrate_expr(X, [(0.0, 1.0)])


def test_a_probe_pairing_that_raises_stops_the_family_before_any_quadrature(
        monkeypatch):
    # the terms of every probe's pairing are built before the family's
    # batch is integrated, so the error of the second probe to reach the
    # point term comes out at once, with nothing integrated
    made = {"quadratures": 0, "alone": 0}
    adaptive, integrate = quadrature._adaptive, quadrature._integrate

    def quadrature_(program, n, *args):
        made["quadratures"] += n
        return adaptive(program, n, *args)

    def alone_(*args):
        made["alone"] += 1
        return integrate(*args)
    monkeypatch.setattr(quadrature, "_adaptive", quadrature_)
    monkeypatch.setattr(quadrature, "_integrate", alone_)
    bump, supp, _ = window_bump(Fraction(-1), Fraction(1))
    w = BaseDistribution(SL, terms=[SmoothTerm(bump, supp), PointTerm(0, 0)])
    section = FormalDistribution(SL, DOM, 1, 1, {(0,): (w,)})
    family = dual_function_family(SL, DOM, 1, 1, xdeg_cap=1)
    assert grouped(section, family)
    assert made["quadratures"] > 0
    made.update(quadratures=0, alone=0)
    raw, calls = PointTerm.act_on_function, []

    def raising(self, sp, c, region):
        calls.append(c)
        if len(calls) == 2:
            raise ArithmeticError("the second probe")
        return raw(self, sp, c, region)
    monkeypatch.setattr(PointTerm, "act_on_function", raising)
    with pytest.raises(ArithmeticError, match="the second probe"):
        grouped(section, family)
    assert len(calls) == 2
    assert made == {"quadratures": 0, "alone": 0}
