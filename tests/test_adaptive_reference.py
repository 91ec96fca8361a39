"""One adaptive loop per group of integrals against a loop per member.

`_gk15` and `integrate_callable` below are the per-member adaptive
quadrature that `quadrature._adaptive` replaced, kept word for word as
the oracle: for every seeded group of integrands compiled as one union
program, each member's outcome (its value's bits, or its exception's
type and message) must be what the oracle gives for that member alone,
up to the first member whose quadrature fails. The walk fails fast:
every member after that one holds the stop error.
"""

import math
import random

import pytest

from formalcalc import quadrature, suites
from formalcalc.errors import QuadratureError
from formalcalc.expr import Const, Div, Mul, X, _compile, _postorder
from formalcalc.quadrature import _WG, _WK, _XK
from formalcalc.spaces import SmoothLine
from test_compiled import bits, rand_tree
from test_grouped_pairing import instance


def _gk15(f, lo: float, hi: float):
    """One Gauss-Kronrod panel: (kronrod value, |kronrod - gauss|)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    k = 0j
    g = 0j
    for i, t in enumerate(_XK):
        v = f(mid + half * t)
        k += _WK[i] * v
        if i % 2 == 1:
            g += _WG[i // 2] * v
    return half * k, abs(half * (k - g))


def integrate_callable(f, ranges, abs_tol, budget) -> complex:
    """Adaptive quadrature of a float64 callable over bounded ranges."""
    total_len = 0.0
    segs = []
    for lo, hi in ranges:
        flo, fhi = float(lo), float(hi)
        if flo >= fhi:
            continue
        if flo == float("-inf") or fhi == float("inf"):
            raise QuadratureError("quadrature range is unbounded")
        segs.append((flo, fhi))
        total_len += fhi - flo
    if not segs:
        return 0j
    evals = 0
    acc = 0j
    stack = list(segs)
    while stack:
        lo, hi = stack.pop()
        if evals + 15 > budget:
            raise QuadratureError("evaluation budget %d exhausted with "
                                  "segment [%g, %g] unresolved" % (budget, lo, hi))
        val, err = _gk15(f, lo, hi)
        evals += 15
        if not math.isfinite(err):
            raise QuadratureError("integrand is not finite on segment "
                                  "[%g, %g]" % (lo, hi))
        share = abs_tol * (hi - lo) / total_len
        if err <= share or err <= 1e-16 * max(1.0, abs(val)) or hi - lo < 1e-14:
            acc += val
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid))
            stack.append((mid, hi))
    return acc


def alone(program, i, ranges, abs_tol, budget):
    try:
        return bits(integrate_callable(lambda x: program(x)[i], ranges,
                                       abs_tol, budget))
    except (ArithmeticError, QuadratureError) as exc:
        return type(exc), str(exc)


def grouped(outcome):
    if type(outcome) is complex:
        return bits(outcome)
    return type(outcome), str(outcome)


# 1/x divides by zero at the first panel of a range centred on 0;
# 10^200 * (10^200 * x) overflows to inf without raising
POLE = Div(Const(1), X)
HUGE = Mul(Const(10 ** 200), Mul(Const(10 ** 200), X))


def rand_ranges(rng):
    def interval():
        return tuple(sorted((rng.uniform(-3, 9), rng.uniform(-3, 9))))
    kind = rng.randrange(5)
    if kind == 0:
        return [interval()]
    if kind == 1:
        a = rng.choice([1, 2, 3])
        return [(-a, a)]
    if kind == 2:
        return sorted(interval() for _ in range(rng.randint(2, 3)))
    if kind == 3:
        return []
    return [(2.0, 2.0), (3.0, 1.0)] + [interval()] * rng.randint(0, 1)


def rand_group(rng, ranges, poles):
    """2 to 8 integrands drawn from one pool, and now and then 1/x or an
    overflow among them, compiled as one union program: its x-program
    for the oracle, its panel form for `_adaptive`, and the member count.
    Without poles, no member divides, and 1/x only joins a range centred
    on 0."""
    pool = []
    members = []
    size = rng.randint(2, 8)
    while len(members) < size:
        e = rand_tree(rng, rng.randint(1, 5), pool)
        if poles or not any(type(n) is Div for n in _postorder(e)):
            members.append(e)
    centred = len(ranges) == 1 and ranges[0][0] == -ranges[0][1]
    for odd in (POLE, HUGE):
        if rng.random() < 0.2 and (poles or odd is HUGE or centred):
            members.insert(rng.randrange(len(members) + 1), odd)
    union = list(dict.fromkeys(n for e in members for n in _postorder(e)))
    return (_compile(union, roots=members),
            _compile(union, roots=members, rule=quadrature._RULE),
            len(members))


STOPPED = (QuadratureError,
           "not integrated: an earlier member of its group failed")


def what(outcome):
    """A value, an exception type, or a QuadratureError's first words."""
    if outcome[0] is QuadratureError:
        return " ".join(outcome[1].split()[:3])
    return outcome[0] if isinstance(outcome[0], type) else complex


# a pole can hold a member until 10^6 evaluations are spent, seconds
# per member for the oracle, so at that budget no drawn member divides
# (two still spend it all: integrands of size 10^8 and more, whose
# Kronrod and Gauss sums differ by more than either tolerance at every
# width)
@pytest.mark.parametrize("budget,poles,seen", [
    (150, True, {complex, ZeroDivisionError, "evaluation budget 150",
                 "integrand is not"}),
    (3000, True, {complex, ZeroDivisionError, "evaluation budget 3000",
                  "integrand is not"}),
    (10 ** 6, False, {complex, ZeroDivisionError,
                      "evaluation budget 1000000", "integrand is not"})])
def test_each_member_gets_what_it_gets_alone(budget, poles, seen):
    rng = random.Random(budget)
    met = set()
    for _ in range(80):
        ranges = rand_ranges(rng)
        program, panel, n = rand_group(rng, ranges, poles)
        got = quadrature._adaptive(panel, n, ranges, 1e-10, budget)
        assert len(got) == n
        for i, outcome in enumerate(got):
            want = alone(program, i, ranges, 1e-10, budget)
            assert grouped(outcome) == want, (i, ranges, budget)
            met.add(what(want))
            if want[0] is QuadratureError:
                assert [grouped(o) for o in got[i + 1:]] \
                    == [STOPPED] * (n - i - 1)
                break
    assert met == seen


def test_an_unbounded_range_fails_every_member():
    ranges = [(0.0, float("inf"))]
    _, panel, n = rand_group(random.Random(2), ranges, True)
    got = quadrature._adaptive(panel, n, ranges, 1e-10, 3000)
    assert [grouped(o) for o in got] == [
        (QuadratureError, "quadrature range is unbounded")] * n


def union_runs(monkeypatch, run):
    """Runs run() with every panel program counted; returns, per group,
    (its (mid, half) calls in order, its union panels by the oracle, run
    on the group's x-program)."""
    compile_, adaptive = quadrature._compile, quadrature._adaptive
    groups = []

    def compiled(nodes, roots=None, rule=None):
        panel = compile_(nodes, roots, rule)
        calls = []

        def counted(mid, half):
            calls.append((mid, half))
            return panel(mid, half)
        counted.calls, counted.raw = calls, compile_(nodes, roots)
        return counted

    def made(program, n, *args):
        if n > 1:
            groups.append((program, n, args))
        return adaptive(program, n, *args)
    monkeypatch.setattr(quadrature, "_compile", compiled)
    monkeypatch.setattr(quadrature, "_adaptive", made)
    run()
    monkeypatch.undo()
    out = []
    for program, n, args in groups:
        panels = set()
        raw_gk15 = _gk15

        def recorded(f, lo, hi):
            panels.add((lo, hi))
            return raw_gk15(f, lo, hi)
        globals()["_gk15"] = recorded
        try:
            for i in range(n):
                alone(program.raw, i, *args)
        finally:
            globals()["_gk15"] = raw_gk15
        out.append((program.calls, panels))
    return out


def test_a_group_runs_its_program_once_per_abscissa(monkeypatch):
    SL = SmoothLine()
    eta, u = instance(random.Random(0), "module", 1)[0]
    for run in (lambda: suites.suite_flabby(SL, 1, 1, 1e-8),
                lambda: eta.pair(u)):
        groups = union_runs(monkeypatch, run)
        assert groups
        for calls, panels in groups:
            assert len(set(calls)) == len(calls)
            assert len(calls) == len(panels)
            assert set(calls) == {(0.5 * (hi + lo), 0.5 * (hi - lo))
                                  for lo, hi in panels}
