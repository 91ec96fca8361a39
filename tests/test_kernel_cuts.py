"""Quadrature ranges cut at kernel zeros.

A flat kernel s(t) is smooth but not analytic where its argument t is
0, and that is where Gauss-Kronrod bisection spends its panels. So each
non-polynomial integral's ranges are cut at the zeros of its real
affine kernel arguments that lie strictly inside them, and integrals
are grouped by their cut ranges: a member's cuts depend only on its own
integrand, so it gets in a batch what it gets alone.
"""

from fractions import Fraction

import pytest

from formalcalc import expr, quadrature
from formalcalc.errors import QuadratureError
from formalcalc.expr import (X, _kernel_zeros, _postorder, kern, mul,
                             parse_sexpr, window_bump)
from formalcalc.quadrature import _cut, integrate_expr, integrate_exprs
from test_compiled import bits

# window_bump(-1, 1) rises on [-1, -1/2] and falls on [1/2, 1]: the
# arguments of its four kernels are 0 at -1, -1/2, 1/2 and 1
BUMP = window_bump(Fraction(-1), Fraction(1))[0]
WIDE = [(Fraction(-2), Fraction(2))]


@pytest.fixture
def panels(monkeypatch):
    """The (mid, half) of every panel program call, in order."""
    calls = []
    raw = quadrature._compile

    def compiled(*args, **kw):
        program = raw(*args, **kw)

        def counted(mid, half):
            calls.append((mid, half))
            return program(mid, half)
        return counted
    monkeypatch.setattr(quadrature, "_compile", compiled)
    return calls


def test_a_bump_is_walked_one_segment_per_piece_between_its_zeros(panels):
    assert sorted(_kernel_zeros(_postorder(BUMP))) == [-1, Fraction(-1, 2),
                                                       Fraction(1, 2), 1]
    # all four zeros inside (-2, 2): five segments, each accepted at its
    # first panel, walked last segment first
    assert integrate_expr(BUMP, WIDE) == 1.5
    assert panels == [(1.5, 0.5), (0.75, 0.25), (0.0, 0.5), (-0.75, 0.25),
                      (-1.5, 0.5)]
    # the same walk, uncut, spends eleven panels on the same value
    del panels[:]
    panel = quadrature._compile(_postorder(BUMP), roots=[BUMP],
                                rule=quadrature._RULE)
    assert quadrature._adaptive(panel, 1, [(-2.0, 2.0)], 1e-10, 10 ** 6) \
        == [1.5]
    assert len(panels) == 11
    # over (-1, 1) the zeros -1 and 1 are its ends: three segments
    del panels[:]
    assert integrate_expr(BUMP, [(Fraction(-1), Fraction(1))]) == 1.5
    assert panels == [(0.75, 0.25), (0.0, 0.5), (-0.75, 0.25)]
    # over its own pieces every zero is an end: no further cut
    del panels[:]
    pieces = [(-2, -1), (-1, Fraction(-1, 2)), (Fraction(-1, 2), Fraction(1, 2)),
              (Fraction(1, 2), 1), (1, 2)]
    assert integrate_expr(BUMP, pieces) == 1.5
    assert len(panels) == 5


def test_members_with_other_zeros_keep_their_lone_bits(monkeypatch):
    shifted = window_bump(Fraction(-1, 2), Fraction(3, 2))[0]
    members = [BUMP, shifted, mul(BUMP, X), mul(3, shifted),
               mul(BUMP, shifted)]
    alone = [bits(integrate_expr(e, WIDE)) for e in members]
    walks = []
    raw = quadrature._walk
    monkeypatch.setattr(quadrature, "_walk", lambda group, *args:
                        walks.append(len(group)) or raw(group, *args))
    got = [bits(v) for v in integrate_exprs([(e, WIDE) for e in members])]
    assert got == alone
    # one group per zero set: the bump's, the shifted bump's, and both
    assert sorted(walks) == [1, 2, 2]


def test_a_kernel_that_is_not_real_affine_makes_no_cut(panels):
    for text in ("(s (+ (pow x 2) -1))", "(s (+ x (complex -1 1)))"):
        e = parse_sexpr(text)
        assert _kernel_zeros(_postorder(e)) == []
        del panels[:]
        integrate_expr(e, WIDE)
        assert panels[0] == (0.0, 2.0)  # the whole range first


def test_a_zero_on_a_range_end_makes_no_empty_segment():
    zeros = [-1, Fraction(-1, 2), Fraction(1, 2), 1]
    assert _cut([(Fraction(-1), Fraction(1))], zeros) == (
        (-1.0, -0.5), (-0.5, 0.5), (0.5, 1.0))
    assert _cut([(-1, Fraction(-1, 2)), (Fraction(1, 2), 1)], zeros) == (
        (-1.0, -0.5), (0.5, 1.0))
    # a zero that rounds to an end cuts off nothing
    assert _cut([(0.0, 1 / 3)], [Fraction(1, 3), Fraction(10 ** 20 + 1,
                                                           3 * 10 ** 20)]) \
        == ((0.0, 1 / 3),)
    assert _cut([(1, 0)], zeros) == ((1.0, 0.0),)  # empty: walked as nothing


def test_an_unbounded_range_is_still_refused():
    for ranges in ([(float("-inf"), Fraction(0))],
                   [(Fraction(0), float("inf"))],
                   [(float("-inf"), float("inf"))]):
        with pytest.raises(QuadratureError,
                           match="quadrature range is unbounded"):
            integrate_expr(BUMP, ranges)


def test_a_kernel_node_reads_its_zero_once(monkeypatch):
    # kernels no quotient has been built over, so no certificate has
    # read their zeros yet
    seen = []
    raw = expr._affine
    monkeypatch.setattr(expr, "_affine", lambda arg: seen.append(arg)
                        or raw(arg))
    a, b = Fraction(97, 13), Fraction(101, 13)
    up, down = kern(X - a), kern(b - X)
    e = mul(mul(up, down), kern(X - a, 2))
    assert sorted(_kernel_zeros(_postorder(e))) == [a, b]
    assert len(seen) == 2  # s(x - a) and its order-2 twin share an argument
    integrate_expr(e, [(Fraction(7), Fraction(8))])
    assert sorted(_kernel_zeros(_postorder(e))) == [a, b]
    assert len(seen) == 2
