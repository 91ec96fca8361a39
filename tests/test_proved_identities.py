"""What the construction guarantees is proved, not measured.

A line partition built by build_pou sums to one because its numerators
sum to the one interned denominator they share, so its unit check
samples nothing; any other coefficient list is still sampled. Two equal
sections agree on every probe, so comparing them integrates nothing,
once both are checked against the family.
"""

import random
from pathlib import Path

import pytest

from formalcalc import quadrature, spaces, suites
from formalcalc.errors import (CertificateError, DomainMismatchError,
                               TruncationError)
from formalcalc.expr import ONE, div, mul
from formalcalc.functions import SupportedFormalFunction
from formalcalc.scenario import Scenario
from formalcalc.sheaf import (Cover, PartitionOfUnity, build_pou,
                              dual_density_family, dual_function_family,
                              functional_residual)
from formalcalc.spaces import OpenSet, SmoothLine

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
    pou = build_pou(cover, 1, 1)
    assert pou.grid_residual == 0.0


def test_any_other_coefficient_list_is_sampled(monkeypatch):
    pou = build_pou(two_part_cover(), 1, 1)
    c0, c1 = (f.coeff((0,)) for f in pou.functions)
    doubled = div(mul(2, c0.num), c0.den, region=c0.region)
    wider = OpenSet(SL, [(-5, 5)]).region
    refuse_sampling(monkeypatch)
    assert SL.unit_gap([c0, c1], DOM.region) == 0.0
    for coeffs, region in (([c1, c0], DOM.region),       # reordered
                           ([doubled, c1], DOM.region),  # sum is not S
                           ([mul(2, c0), c1], DOM.region),  # scaled
                           ([ONE], DOM.region),          # a single part
                           ([c0, c1], wider)):           # S not certified
        with pytest.raises(Measured):
            SL.unit_gap(coeffs, region)


def test_a_partition_whose_numerators_miss_s_is_refused():
    cover = two_part_cover()
    f0, f1 = build_pou(cover, 1, 1).functions
    c0 = f0.coeff((0,))
    c0 = div(mul(2, c0.num), c0.den, region=c0.region)
    doubled = SupportedFormalFunction(SL, DOM, 1, 1, {(0,): c0},
                                      support=f0.support, plateau=f0.plateau)
    with pytest.raises(CertificateError):
        PartitionOfUnity(cover, [doubled, f1])


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
    refuse_sampling(monkeypatch)
    assert suites.function_residual(u, u) == 0.0
    with pytest.raises(Measured):
        suites.function_residual(u, v)
