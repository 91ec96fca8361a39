"""A dual family tells whether it is empty from its shape (the domain
and the key/stack grid), without building the space's base probes, so
a discrete check that passes builds no probe list at all."""

import random

from formalcalc.sheaf import (dual_density_family, dual_function_family,
                              functional_residual)
from formalcalc.spaces import Discrete, OpenSet, SmoothLine
from formalcalc.suites import rand_density, rand_generalized

DS = Discrete(["a", "b", "c", "d", "e"])
SL = SmoothLine()


def test_emptiness_agrees_with_the_length():
    shapes = ((DS, ([], ["a"], ["a", "c", "e"])),
              (SL, ([], [(-1, 1)], [(-3, -2), (0, 5)])))
    for space, regions in shapes:
        for r in regions:
            dom = OpenSet(space, r)
            for fam in (dual_function_family(space, dom, 1, 2),
                        dual_function_family(space, dom, 2, 0, xdeg_cap=0),
                        dual_density_family(space, dom, 1, 1, xdeg_cap=1)):
                empty = not fam
                assert "base" not in vars(fam)
                assert empty == (len(fam) == 0)


def test_a_passing_discrete_check_builds_no_probes():
    rng = random.Random(5)
    dom = OpenSet(DS, ["a", "b", "d"])
    eta = rand_density(rng, DS, dom, 1, 2)
    fam = dual_function_family(DS, dom, 1, 2)
    assert functional_residual(eta, eta, fam) == (0.0, None)
    g = rand_generalized(rng, DS, dom, 1, 2, 2)
    gam = dual_density_family(DS, dom, 1, 2)
    assert functional_residual(g, g, gam) == (0.0, None)
    assert "base" not in vars(fam) and "base" not in vars(gam)
