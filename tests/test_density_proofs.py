"""The line's density laws are proved on the pieces of their bounds.

mv's phi-psi and split-ext laws, `mv_split`'s kernel check and the
cosheaf density law compare densities key by key and derivative stack
by stack (`sheaf._proves`). The line proves a pair of term lists equal
by summing the partition reassemblies in its coefficients
(`spaces._reassembled`), then by the piece rule (`expr.equal_on_pieces`).
Each rule answers for itself: every pair it proves in the line's mv and
cosheaf suites at seeds 0..19 samples to zero at 30 digits on every
piece of its bounds, and no such pair moved by an independent bump,
10^-9 x times a window bump on its first term's bound, is proved.
"""

import functools
import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from formalcalc import expr, sheaf, spaces, suites
from formalcalc.expr import (ONE, Const, X, add, div, ev, kern, mul,
                             window_bump)
from formalcalc.sheaf import build_pou
from formalcalc.spaces import RSet, SmoothLine

SL = SmoothLine()
SEEDS = range(20)
EPS = Const(Fraction(1, 10 ** 9))


@functools.lru_cache(maxsize=None)
def proved_pairs():
    """(a, b, region, rule) of every density pair of term lists that a
    rule proves, not ==, in the line's mv and cosheaf suites at SEEDS;
    rule is "pieces" when the piece rule decided it, else "reassembly".
    Cached for the process: a test that patches a rule calls it first,
    so that the pairs are those of the rules as they stand."""
    out, reached = [], []
    real_proves = SmoothLine.proves_equal
    real_reassembled, real_pieces = spaces._reassembled, spaces.equal_on_pieces

    def proves_equal(self, a, b, region):
        reached.clear()
        got = real_proves(self, a, b, region)
        if got and reached:
            out.append((a, b, region, reached[-1]))
        return got
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SmoothLine, "proves_equal", proves_equal)
        mp.setattr(spaces, "_reassembled", lambda terms, region: (
            reached.append("reassembly") or real_reassembled(terms, region)))
        mp.setattr(spaces, "equal_on_pieces", lambda a, b: (
            reached.append("pieces") or real_pieces(a, b)))
        for seed in SEEDS:
            assert suites.suite_mv(SL, 1, seed, 1e-8, rounds=6)["pass"]
            assert suites.suite_cosheaf(SL, 1, 1, seed, 1e-8, rounds=2)["pass"]
    return out


def test_both_rules_prove_pairs_of_the_suites():
    rules = [rule for *_, rule in proved_pairs()]
    assert rules.count("pieces") >= 200 and rules.count("reassembly") >= 20


def ends(*sides):
    """Every endpoint of the bounds of the terms, in order."""
    return sorted({e for side in sides for _, bd in side
                   for p in bd.pieces for e in p[:2]})


def at(side, x):
    """The terms' sum at x, each term its coefficient on its bound."""
    return sum((expr._mpv(ev(c, x)) for c, bd in side if x in bd), 0)


def test_every_proved_pair_samples_to_zero_at_30_digits():
    rng = random.Random(22)
    samples = 0
    for a, b, region, _ in proved_pairs():
        cuts = ends(a, b)
        for lo, hi in zip(cuts, cuts[1:]):
            for _ in range(3):
                x = lo + (hi - lo) * Fraction(rng.randint(1, 99), 100)
                if x in region:
                    assert abs(at(a, x) - at(b, x)) < 1e-20, (a, b, x)
                    samples += 1
    assert samples >= 1000


def moved(a, b):
    """The pair with 10^-9 x bump added to the first term of its first
    side that has one, bump the window bump of that term's bound."""
    side = a or b
    (c, bd), rest = side[0], side[1:]
    bump = window_bump(*bd.hull())[0]
    side = [(add(c, mul(EPS, mul(X, bump))), bd)] + rest
    return (side, b) if a else (a, side)


def beyond_a_certificate():
    """A pair whose term leaves its denominator's certificate: 1/s(x),
    proved positive on (1/2, 2) only, times a bump on [-2, -1], where
    s(x) is 0. Equal sides; moved, no rule may prove it."""
    inverse = div(ONE, kern(X), region=RSet.open_pairs([(Fraction(1, 2), 2)]))
    bump, bound, _ = window_bump(-2, -1)
    side = [(mul(inverse, bump), bound)]
    return side, side, RSet.open_pairs([(-3, 3)])


def proved_moved_pairs(pairs, first=False):
    """The moved pairs (`moved`) of the pairs (`proved_pairs`) and of
    `beyond_a_certificate` that the line proves: none, as the rules
    stand. Given first, stop at the first one."""
    out = []
    for a, b, region, _ in pairs + [(*beyond_a_certificate(), "")]:
        a, b = moved(a, b)
        if SL.proves_equal(a, b, region) or SL.proves_equal(b, a, region):
            out.append((a, b))
            if first:
                break
    return out


@pytest.mark.parametrize("budget", [expr.PIECE_BUDGET, 10])
def test_no_moved_pair_is_proved(budget, monkeypatch):
    # at a budget of 10 products nearly every expansion gives up: still
    # unknown, never proved
    pairs = proved_pairs()
    monkeypatch.setattr(expr, "PIECE_BUDGET", budget)
    assert proved_moved_pairs(pairs) == []


def test_a_key_on_one_side_only_is_compared_against_zero():
    bump, bound, _ = window_bump(-1, 1)
    c = mul(bump, X)
    gone = [(add(c, mul(Const(-1), c)), bound)]
    assert SL.proves_equal(gone, [], RSet.whole())
    assert not SL.proves_equal([(c, bound)], [], RSet.whole())


def test_the_piece_rule_reads_a_kernel_of_a_quadratic_by_its_bounds():
    # 1 - x^2 is not affine, so the rule reads where its kernel is dead
    # from the argument's interval bounds: dead on [2, 3], where
    # 1 - x^2 <= -3, and alive on [0, 2], where it is exp(-4/3) = 0.2636
    # at x = 1/2
    k = kern(add(ONE, mul(Const(-1), mul(X, X))))
    assert expr.equal_on_pieces([(k, RSet.closed_pairs([(2, 3)]))], [])
    assert abs(complex(ev(k, Fraction(1, 2))) - math.exp(-4 / 3)) < 1e-15
    assert not expr.equal_on_pieces([(k, RSet.closed_pairs([(0, 2)]))], [])


def test_a_density_proved_zero_reads_no_probe(monkeypatch):
    calls = []
    monkeypatch.setattr(sheaf, "probe_values",
                        lambda *args: calls.append(args) or [])
    eta = suites.rand_density(random.Random(1), SL, SL.whole(), 1, 1)
    fam = sheaf.dual_function_family(SL, SL.whole(), 1, 1)
    assert sheaf.functional_zero_residual(eta.add(eta.scale(-1)), fam) \
        == (0.0, None)
    assert calls == []


def test_a_second_derivative_reassembles_whichever_way_it_was_taken(
        monkeypatch):
    # diff(q, 2) and diff(diff(q, 1), 1) are one node: its entry is the
    # order over the partition quotient q either way, so the reassembly
    # alone proves sum (tau q + t diff(q, 2)) = tau, the sum of a k=2
    # Leibniz expansion
    pou = build_pou(suites._three_part_cover(SL), 1, 4)
    quots = [f.coeff((0,)) for f in pou.functions]
    region = pou.cover.whole.region
    tau, bound, _ = window_bump(-1, 1)
    t = mul(X, tau)
    monkeypatch.setattr(spaces, "equal_on_pieces", lambda a, b: False)
    for order in ([2], [1, 1]):
        twice = [reduce(SL.diff, order, q) for q in quots]
        c = reduce(add, [add(mul(tau, q), mul(t, d))
                         for q, d in zip(quots, twice)])
        assert SL.proves_equal([(c, bound)], [(tau, bound)], region)
