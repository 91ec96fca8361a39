"""The seeded certificate search against the search it replaced.

`oracle` below is `certify_positive` as it was before the seeding, kept
word for word: it bisects each piece of the region from the fixed
anchors 0 and ±1. `expr.certify_positive` runs the same loop from the pieces `_seeds`
cuts at the midpoints between consecutive zeros of the denominator's
real affine kernel arguments. On every seeded denominator both searches
must reach the same verdict class (proved, refuted, or undecided), a
refutation's interval must hold a point where the denominator is
nonpositive, and the seeded pieces must tile the region exactly.
"""

import random
import re
import sys
from fractions import Fraction

import mpmath
import pytest

from formalcalc import expr
from formalcalc.errors import CertificateError, UndecidedCertificateError
from formalcalc.expr import (NEG_INF, POS_INF, Add, Const, Expr, Kern, X,
                             _CERT_BUDGET, _CERT_MIN_WIDTH, _ibounds,
                             _postorder, _seeds, add, certify_positive, ev,
                             kern, mul, poly_coeffs, pow_)
from formalcalc.scalars import QC
from formalcalc.spaces import RSet, SmoothLine
from test_interning import rand_dag

SL = SmoothLine()


def oracle(e: Expr, region) -> None:
    """Prove e > 0 on the region by adaptive interval bisection.

    Raises CertificateError with a witness interval when a piece is
    shown nonpositive, and its UndecidedCertificateError when the proof
    does not close within budget or above the width floor.
    """
    nodes = _postorder(e)
    stack = []
    for lo, hi, _, _ in region.pieces:
        stack.append((lo, hi))
    steps = 0
    while stack:
        lo, hi = stack.pop()
        steps += 1
        if steps > _CERT_BUDGET:
            raise UndecidedCertificateError(
                "positivity certificate budget exhausted near [%s, %s]"
                % (lo, hi))
        blo, bhi = _ibounds(nodes, float(lo), float(hi))
        if blo > 0.0:
            continue
        if bhi <= 0.0:
            raise CertificateError("denominator is nonpositive on [%s, %s]"
                                   % (lo, hi))
        # inconclusive: split at a finite anchor
        if lo == NEG_INF and hi == POS_INF:
            mid = Fraction(0)
        elif lo == NEG_INF:
            mid = (hi if isinstance(hi, Fraction) else Fraction(hi)) - 1
        elif hi == POS_INF:
            mid = (lo if isinstance(lo, Fraction) else Fraction(lo)) + 1
        else:
            if hi - lo < _CERT_MIN_WIDTH:
                raise UndecidedCertificateError(
                    "cannot certify positivity near [%s, %s]" % (lo, hi))
            mid = (Fraction(lo) + Fraction(hi)) / 2
        stack.append((lo, mid))
        stack.append((mid, hi))


def verdict(search, e, region):
    """(class, message) of one search: proved, refuted or undecided."""
    try:
        search(e, region)
    except UndecidedCertificateError as exc:
        return "undecided", str(exc)
    except CertificateError as exc:
        return "refuted", str(exc)
    return "proved", None


def real_value(e, x):
    v = ev(e, x)
    return v.re if isinstance(v, QC) else mpmath.re(v)


def end(text):
    return float(text) if "inf" in text else Fraction(text)


def check(e, region):
    """Both searches agree on e over the region; a refutation holds a
    nonpositive point; the seeds tile the region. The seeded verdict."""
    want, _ = verdict(oracle, e, region)
    got, message = verdict(certify_positive, e, region)
    assert got == want, (expr.to_sexpr(e), region.pieces, message)
    if got == "refuted":
        lo, hi = map(end, re.fullmatch(
            r"denominator is nonpositive on \[(\S+), (\S+)\]",
            message).groups())
        point = lo if lo == hi else expr._inner_point(lo, hi)
        assert real_value(e, point) <= 0
    assert_tiles(_seeds(_postorder(e), region), region, zeros(e))
    return got


def zeros(e):
    """The zeros of e's real affine kernel arguments, read here on their
    own from each argument's polynomial."""
    out = set()
    for n in _postorder(e):
        if type(n) is Kern:
            try:
                p = poly_coeffs(n.arg)
            except ValueError:  # past its caps
                continue
            if (p is not None and set(p) <= {0, 1} and p.get(1)
                    and all(v.is_real for v in p.values())):
                out.add(-p.get(0, QC(0)).re / p[1].re)
    return out


def assert_tiles(seeds, region, zs):
    """The seeds are each piece of the region, in order, cut into
    consecutive pieces from its lo to its hi, ends included, and no
    seed holds two zeros."""
    rest = iter(seeds)
    for lo, hi, _, _ in region.pieces:
        cut = lo
        while True:
            a, b = next(rest)
            assert a == cut and (a < b or a == b == lo == hi)
            if b == hi:
                break
            cut = b
    assert next(rest, None) is None
    for a, b in seeds:
        assert sum(a < z < b for z in zs) <= 1, (a, b)


def edge(a, w):
    """The denominator s(x - a) + s(a + w - x) of an edge of width w."""
    return add(kern(X - Const(a)), kern(Const(a + w) - X))


def counted(monkeypatch):
    steps = [0]
    raw = expr._ibounds

    def _ibounds(nodes, lo, hi):
        steps[0] += 1
        return raw(nodes, lo, hi)
    monkeypatch.setattr(expr, "_ibounds", _ibounds)
    return steps


def edge_regions(a, w):
    b = a + w
    return [RSet.whole(), RSet.closed_pairs([(a - 1, b + 1)]),
            RSet.open_pairs([(a, b)]), RSet.closed_pairs([(a, a + w / 4)]),
            RSet.open_pairs([(NEG_INF, a - 2), (a - 1, b), (b + 1, POS_INF)]),
            RSet.closed_pairs([(a + w / 2, b + 3)]), RSet.point(a + w / 2)]


@pytest.mark.parametrize("j", range(13))
def test_an_edge_is_proved_on_its_seeds_without_a_split(j, monkeypatch):
    # one step per seed, and a seed more than the region has pieces: at
    # most 3 steps on an interval, 2 on the whole line (one side of the
    # edge's midpoint each), where the fixed anchors took about 10
    rng = random.Random(j)
    a, w = Fraction(rng.randint(-40, 40), 8), Fraction(1, 2 ** j)
    e = edge(a, w)
    for region in edge_regions(a, w):
        want = check(e, region)
        steps = counted(monkeypatch)
        got, _ = verdict(certify_positive, e, region)
        monkeypatch.undo()
        assert got == want
        # s(w/2) = exp(-2/w) is a positive float only while 2/w < 745
        if 2 / w < 700:
            seeds = _seeds(_postorder(e), region)
            assert got == "proved"
            assert steps[0] == len(seeds) <= len(region.pieces) + 1
            assert len(region.pieces) > 1 or steps[0] <= 3
        elif region.contains(a + w / 2):
            assert got == "undecided"


def rand_cover(rng):
    """A whole interval and two to four open parts that cover it, each
    overlapping the next by 1/4 to 2."""
    n = rng.randint(2, 4)
    cuts = [Fraction(c, 8) for c in sorted(rng.sample(range(-24, 25), n - 1))]
    lo = NEG_INF if rng.random() < 0.5 else cuts[0] - rng.randint(2, 16)
    hi = POS_INF if rng.random() < 0.5 else cuts[-1] + rng.randint(2, 16)
    ends = [lo, *cuts, hi]
    parts = [RSet.open_pairs([(
        ends[i] - Fraction(rng.randint(1, 8), 8) if i else lo,
        ends[i + 1] + Fraction(rng.randint(1, 8), 8) if i < n - 1 else hi)])
        for i in range(n)]
    return RSet.open_pairs([(lo, hi)]), parts


@pytest.mark.parametrize("seed", range(12))
def test_partition_denominators_of_random_covers(seed):
    whole, parts = rand_cover(random.Random(seed))
    dens = {c.den for c, _, _ in SL.partition(whole, parts)}
    assert len(dens) == 1
    for den in dens:
        assert check(den, whole) == "proved"
        # no edge is built at an end of the whole set, so the sum stays
        # positive past it
        assert check(den, RSet.whole()) == "proved"


@pytest.mark.parametrize("seed", range(40))
def test_random_dags_plus_a_positive_constant(seed, monkeypatch):
    # on a half-line the anchors step by 1, so a sum whose bounds stay
    # wide there spends any budget; both searches get the same smaller one
    for module in (expr, sys.modules[__name__]):
        monkeypatch.setattr(module, "_CERT_BUDGET", 2_000)
    rng = random.Random(seed)
    e = Add(rand_dag(rng, 4, []), Const(rng.randint(1, 3)))
    lo = Fraction(rng.randint(-16, 16), 4)
    for region in (RSet.whole(), RSet.closed_pairs([(lo, lo + 2)])):
        check(e, region)


def test_denominators_without_affine_kernels_start_from_the_region():
    # a kernel of x^2000 passes poly_coeffs' degree cap: it has no zero
    # to cut at, and its bounds alone prove 1 + s(x^2000)
    assert check(add(Const(1), kern(pow_(X, 2000))), RSet.whole()) == "proved"
    for e, region in ((mul(Const(-1), X), RSet.whole()),
                      (add(mul(X, X), Const(-1)), RSet.open_pairs([(-2, 2)]))):
        assert _seeds(_postorder(e), region) == [p[:2] for p in region.pieces]
        # -x is refuted on [1, inf]; x^2 - 1 is negative on (-1, 1), but
        # the depth-first search meets the width floor near 1 first and
        # leaves it undecided, as the anchors always did (ROADMAP item 12)
        check(e, region)
    assert check(mul(Const(-1), X), RSet.whole()) == "refuted"


def test_a_denominator_negative_only_past_its_last_cut_is_refuted():
    # s(x) + s(1 - x) - 10 s(x - 5): cuts at 1/2 and 3, and negative only
    # from a little past 5 on, inside the last seed
    e = add(edge(Fraction(0), Fraction(1)), mul(Const(-10), kern(X - Const(5))))
    seeds = _seeds(_postorder(e), RSet.whole())
    assert seeds == [(NEG_INF, Fraction(1, 2)), (Fraction(1, 2), Fraction(3)),
                     (Fraction(3), POS_INF)]
    assert check(e, RSet.whole()) == "refuted"
