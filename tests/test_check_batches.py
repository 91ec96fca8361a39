"""A check reads every section against its probe family in one batch:
functional_residual and flabby_check make all their integrals with one
`_make_groups` call. Each residual, witness, decision and error is the
one of reading the sections one at a time, each probe paired alone."""

import random
from fractions import Fraction

import pytest

from formalcalc import quadrature, sheaf, suites
from formalcalc.errors import DomainMismatchError, QuadratureError
from formalcalc.sheaf import dual_function_family, flabby_check, \
    functional_residual
from formalcalc.spaces import OpenSet
from test_probe_groups import (DOM, SL, alone, bits, density,
                               distribution, generalized)

LEFT = OpenSet(SL, [(-2, 0)])
RIGHT = OpenSet(SL, [(0, 2)])
TOL = 1e-8


def witness(w):
    return None if w is None else w.to_json()


def read_alone(a, b, family):
    """functional_residual's residual and witness, each section read on
    its own and each probe paired alone."""
    resid, w = sheaf._worst(family, alone(a, family), alone(b, family),
                            a.e_dim)
    return resid.hex(), witness(w)


@pytest.fixture
def groups(monkeypatch):
    """Counts the batches made: calls of `_make_groups`."""
    made = []
    raw = quadrature._make_groups

    def counted(memo, pending):
        made.append(len(pending))
        return raw(memo, pending)
    monkeypatch.setattr(quadrature, "_make_groups", counted)
    return made


@pytest.mark.parametrize("make,stacks", [(density, 0), (distribution, 0),
                                         (generalized, 0), (generalized, 1)])
@pytest.mark.parametrize("seed", [0, 4])
def test_functional_residual_reads_as_each_section_alone(make, stacks, seed,
                                                         groups):
    rng = random.Random(seed)
    a, family = make(rng, stacks)
    b, _ = make(rng, stacks)
    assert a != b
    want = read_alone(a, b, family)
    del groups[:]
    resid, w = functional_residual(a, b, family)
    assert (resid.hex(), witness(w)) == want
    assert resid > 0 and w is not None
    assert len(groups) == 1 and groups[0] > 0


def drawn(rng, draw, *args):
    """The first nonzero section that draw gives."""
    while (z := draw(rng, SL, *args)).is_exactly_zero():
        pass
    return z


def flabby_sections(seed):
    """A density, a compact distribution and a density of another star
    degree, so that the round reads two families."""
    rng = random.Random(seed)
    return [drawn(rng, suites.rand_density, LEFT, 1, 1),
            drawn(rng, suites.rand_compact_distribution, DOM, 1, 1, 2),
            drawn(rng, suites.rand_density, RIGHT, 1, 0)]


@pytest.mark.parametrize("seed", [0, 1])
def test_flabby_reads_each_section_as_alone(seed, groups, monkeypatch):
    sections = flabby_sections(seed)
    assert len({(z.k, z.star_degree()) for z in sections}) == 2
    want = [bits(alone(z.ext(DOM), dual_function_family(
        SL, DOM, z.k, z.star_degree()))) for z in sections]
    read, worst = [], sheaf._worst

    def reading(family, va, vb, e_dim):
        read.append(bits(va))
        return worst(family, va, vb, e_dim)
    monkeypatch.setattr(sheaf, "_worst", reading)
    del groups[:]
    # at tol 0.0 every section is read and decided
    assert flabby_check(sections, DOM) is True
    assert read == want
    assert len(groups) == 1


def budget_on_the_right(monkeypatch, budget=15):
    """Quadratures over ranges inside RIGHT get a small budget."""
    raw = quadrature._adaptive

    def small(program, n, ranges, abs_tol, budget_):
        if all(lo >= 0 for lo, _ in ranges):
            budget_ = budget
        return raw(program, n, ranges, abs_tol, budget_)
    monkeypatch.setattr(quadrature, "_adaptive", small)


def test_flabby_decides_a_kernel_section_before_a_later_failed_read(
        monkeypatch, groups):
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
    del groups[:]
    # the failing section's integrals are made in the batch, and its
    # error is never read
    assert flabby_check([faint, failing], DOM, TOL) is False
    assert len(groups) == 1


def test_flabby_refuses_an_extension_before_deciding_any_section():
    # a deliberate order: every section is extended before the first is
    # decided, so a later refusal beats an earlier kernel section
    rng = random.Random(0)
    faint = drawn(rng, suites.rand_density, LEFT, 1, 1).scale(
        Fraction(1, 10 ** 12))
    assert flabby_check([faint], DOM, TOL) is False
    wide = drawn(rng, suites.rand_density, OpenSet(SL, [(-3, 3)]), 1, 1)
    with pytest.raises(DomainMismatchError, match="extension target"):
        flabby_check([faint, wide], DOM, TOL)


def test_functional_residual_raises_the_first_sections_error(monkeypatch,
                                                             groups):
    # with no budget, each read raises at its first integral's first
    # panel, which differs between sections on different parts
    raw = quadrature._adaptive
    monkeypatch.setattr(quadrature, "_adaptive",
                        lambda program, n, ranges, abs_tol, budget:
                        raw(program, n, ranges, abs_tol, 0))
    family = dual_function_family(SL, DOM, 1, 1)
    rng = random.Random(0)
    a = drawn(rng, suites.rand_density, LEFT, 1, 1).ext(DOM)
    b = drawn(rng, suites.rand_density, RIGHT, 1, 1).ext(DOM)
    errors = []
    for section in (a, b):
        with pytest.raises(QuadratureError) as alone_:
            alone(section, family)
        errors.append(str(alone_.value))
    assert errors[0] != errors[1]
    for first, second, want in ((a, b, errors[0]), (b, a, errors[1])):
        del groups[:]
        with pytest.raises(QuadratureError) as got:
            functional_residual(first, second, family)
        assert str(got.value) == want
        assert len(groups) == 1
