"""A check reads every section against its probe family in one batch:
functional_residual makes all its integrals with one `_make_groups`
call, and flabby_check one call per stage (test_flabby_stages.py). Each
residual, witness, decision and error is the one of reading the
sections one at a time, each probe paired alone."""

import random
from fractions import Fraction

import pytest

from formalcalc import quadrature, sheaf, suites
from formalcalc.errors import DomainMismatchError, QuadratureError
from formalcalc.sheaf import dual_function_family, flabby_check, \
    functional_residual
from formalcalc.spaces import OpenSet
from test_probe_groups import (DOM, SL, alone, density, distribution,
                               generalized)

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
