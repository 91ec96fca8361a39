"""Property suites: report shape, exactness, determinism."""

import itertools
import random
from fractions import Fraction

import pytest

from formalcalc import suites
from formalcalc.functions import SupportedFormalFunction
from formalcalc.multiindex import mi
from formalcalc.scalars import QC
from formalcalc.spaces import Discrete, SmoothLine
from formalcalc.suites import (SUITE_NAMES, run_suite, suite_cosheaf,
                               suite_duality, suite_flabby, suite_glue,
                               suite_jets, suite_mv)
from test_proved_identities import function_gap

DS = Discrete(["a", "b", "c", "d", "e"])
SL = SmoothLine()

REPORT_KEYS = {"suite", "checks", "failures", "max_residual", "pass"}


def test_all_discrete_suites_pass_exactly():
    for name in SUITE_NAMES:
        rep = run_suite(name, DS, 1, 2, 1, 17, 0.0)
        assert set(rep) == REPORT_KEYS
        assert rep["suite"] == name
        assert rep["checks"] > 0
        assert rep["failures"] == []
        assert rep["max_residual"] == 0.0
        assert rep["pass"] is True


def test_discrete_suites_are_deterministic():
    for name in ("mv", "glue", "duality"):
        a = run_suite(name, DS, 1, 2, 1, 99, 0.0)
        b = run_suite(name, DS, 1, 2, 1, 99, 0.0)
        assert a == b


def test_discrete_suites_with_vector_values_and_two_directions():
    assert run_suite("glue", DS, 1, 2, 3, 5, 0.0)["pass"]
    assert run_suite("cosheaf", DS, 1, 2, 2, 5, 0.0)["pass"]
    assert run_suite("duality", DS, 1, 2, 2, 5, 0.0)["pass"]
    assert suite_mv(DS, 2, 5, 0.0, rounds=25)["pass"]
    assert suite_jets(DS, 2, 3, 0, 0.0)["pass"]


def test_unknown_suite_name():
    with pytest.raises(ValueError):
        run_suite("spectral", DS, 1, 2, 1, 0, 0.0)


def test_smooth_mv_suite():
    rep = suite_mv(SL, 1, 3, 1e-8, rounds=2)
    assert rep["pass"] and rep["max_residual"] <= 1e-8


def test_smooth_glue_suite():
    rep = suite_glue(SL, 1, 1, 3, 1e-8, rounds=1)
    assert rep["pass"] and rep["max_residual"] <= 1e-8


def test_smooth_cosheaf_suite():
    rep = suite_cosheaf(SL, 1, 1, 3, 1e-8, rounds=1)
    assert rep["pass"] and rep["max_residual"] <= 1e-8


def test_smooth_flabby_suite():
    assert suite_flabby(SL, 1, 3, 1e-8)["pass"]


def test_smooth_duality_suite():
    rep = suite_duality(SL, 1, 2, 1, 3, 1e-8, rounds=1)
    assert rep["pass"] and rep["max_residual"] <= 1e-8


def test_smooth_jets_suite_is_exact():
    rep = suite_jets(SL, 1, 2, 3, 1e-8)
    assert rep["pass"] and rep["max_residual"] == 0.0


# 1 + 10^-30: its float is 1.0
NEAR_ONE = QC(Fraction(10 ** 30 + 1, 10 ** 30))


def test_the_function_law_sees_a_gap_below_float_resolution():
    m = DS.whole()
    u, v = (SupportedFormalFunction(DS, m, 1, 1, {mi((0,)): {"a": w}},
                                    support=frozenset("a"))
            for w in (QC(1), NEAR_ONE))
    assert function_gap(u, v) == 1e-30
    assert function_gap(u, u) == 0.0


def test_duality_gap_below_float_resolution_fails(monkeypatch):
    # the two cutoff extensions read 1 and 1 + 10^-30, alternately
    values = itertools.cycle([(QC(1),), (NEAR_ONE,)])
    monkeypatch.setattr(suites, "cutoff_extend",
                        lambda t, f: lambda u: next(values))
    rep = suite_duality(DS, 1, 2, 1, 5, 0.0, rounds=1)
    assert rep["max_residual"] == 1e-30
    assert not rep["pass"]


# -- seeded draws -----------------------------------------------------------------
# the generators as they were written with randint and Fraction: the
# reference the faster draws must reproduce value for value

def ref_rand_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def ref_rand_qc(rng):
    if rng.randint(0, 1):
        return QC(ref_rand_fraction(rng), ref_rand_fraction(rng))
    return QC(ref_rand_fraction(rng))


def ref_rand_weights(rng, labels):
    out = {}
    for p in sorted(labels):
        if rng.randint(0, 2):
            v = ref_rand_qc(rng)
            if v:
                out[p] = v
    return out


def test_below_draws_what_randrange_draws():
    # the one draw helper reads getrandbits as randrange does, so the
    # value and the Random state after it are the same
    for seed in range(300):
        got, ref = random.Random(seed), random.Random(seed)
        for n in range(1, 21):
            assert suites._below(got, n) == ref.randrange(n)
            assert got.getstate() == ref.getstate()


def test_generators_draw_what_randint_draws():
    labels = ["a", "b", "c", "d", "e", "f"]
    for seed in range(2000):
        got, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            v, w = suites.rand_qc(got), ref_rand_qc(ref)
            assert type(v) is QC and (v.n, v.m, v.d) == (w.n, w.m, w.d)
            got_w = suites.rand_weights(got, labels[:seed % 7])
            ref_w = ref_rand_weights(ref, labels[:seed % 7])
            assert list(got_w) == list(ref_w)
            assert all((got_w[p].n, got_w[p].m, got_w[p].d)
                       == (ref_w[p].n, ref_w[p].m, ref_w[p].d) for p in ref_w)
            assert got.getstate() == ref.getstate()
