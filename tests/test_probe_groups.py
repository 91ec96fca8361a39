"""On the line a probe family's integrals are planned, then made one
program per group of (bounds, abs_tol, budget); the probe values are bit
for bit those of pairing each probe with its own integrals."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from formalcalc import quadrature, spaces, suites
from formalcalc.cli import main
from formalcalc.errors import QuadratureError
from formalcalc.expr import X, mul, window_bump
from formalcalc.quadrature import shares_integrals
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


@shares_integrals
def alone(section, family):
    """The per-integral path: every probe paired on its own."""
    return {n: section.apply(p) for n, p in enumerate(family)}


@shares_integrals
def grouped(section, family):
    return SL.probe_values(section, family)


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


def test_a_smooth_flabby_round_compiles_one_program_per_group(monkeypatch):
    made = []
    raw = quadrature._compile

    def counted(*args, **kw):
        made.append(kw.get("roots"))
        return raw(*args, **kw)
    monkeypatch.setattr(quadrature, "_compile", counted)
    assert suites.suite_flabby(SL, 1, 1, 1e-8)["pass"]
    assert len(made) == 18
    assert all(made)


def test_a_failing_union_program_leaves_its_members_to_the_real_pass(
        monkeypatch):
    raw = quadrature._compile
    raised = []

    def breaking(nodes, typed=False, roots=None):
        f = raw(nodes, typed, roots)
        if roots is None:
            return f

        def program(x):
            # at the first abscissa a union program meets, which every
            # member of its group integrates
            if not raised or x == raised[0]:
                raised.append(x)
                raise ZeroDivisionError("float division by zero")
            return f(x)
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
    # the plan pass's group integrates the family's 18 integrals, one of
    # which runs out of budget; the real pass raises that member's stored
    # error instead of integrating it a second time
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


def test_smooth_demo_reports_the_same_bytes_without_a_plan(capsys,
                                                           monkeypatch):
    planned = check_all(capsys)
    # SmoothLine.probe_values reads planned from its own module
    monkeypatch.setattr(spaces, "planned", lambda run: run())
    assert check_all(capsys) == planned


def test_a_polynomial_integrand_asks_for_exact_bounds():
    with pytest.raises(QuadratureError,
                       match=r"exact \(int or Fraction\) bounds"):
        quadrature.integrate_expr(X, [(0.0, 1.0)])


def test_a_run_that_raises_after_its_integrals_is_grouped_then_raises_once(
        monkeypatch):
    # the plan pass swallows the error, the two bump integrals over one
    # range are made by one program, and the real pass reads them and
    # raises the error to the caller
    made = {"programs": 0, "quadratures": 0}
    compile_, integrate = quadrature._compile, quadrature._adaptive

    def program(*args, **kw):
        made["programs"] += 1
        return compile_(*args, **kw)

    def quadrature_(program, n, *args):
        made["quadratures"] += n
        return integrate(program, n, *args)
    monkeypatch.setattr(quadrature, "_compile", program)
    monkeypatch.setattr(quadrature, "_adaptive", quadrature_)
    bump, supp, _ = window_bump(Fraction(-1), Fraction(1))
    ranges = supp.bounds_list()
    runs = []

    def run():
        runs.append([quadrature.integrate_expr(bump, ranges),
                     quadrature.integrate_expr(mul(X, bump), ranges)])
        raise ArithmeticError("after the integrals")

    @shares_integrals
    def check():
        return quadrature.planned(run)
    with pytest.raises(ArithmeticError, match="after the integrals"):
        check()
    assert made == {"programs": 1, "quadratures": 2}
    assert len(runs) == 2
    assert runs[0] == [0, 0] and not isinstance(runs[1][0], QC)
