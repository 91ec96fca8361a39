import json
import random
from fractions import Fraction

import pytest

from formalcalc import cli
from formalcalc.spaces import (Discrete, NEG_INF, OpenSet, POS_INF, RSet,
                               SmoothLine, _canon, _is_inf)


def _sample_points():
    # quarter-integer grid covering every integer-endpoint piece below;
    # any nonempty integer-endpoint RSet contains one of these points
    pts = [Fraction(n, 4) for n in range(-40, 41)]
    return pts


def _member_vector(rs, pts):
    return tuple(rs.contains(p) for p in pts)


def test_rset_boolean_algebra_by_membership():
    # oracle: pointwise boolean logic on a sample grid
    rng = random.Random(1)
    pts = _sample_points()
    for _ in range(200):
        def rand_rset():
            pieces = []
            for _ in range(rng.randint(1, 3)):
                lo = Fraction(rng.randint(-6, 5))
                hi = lo + Fraction(rng.randint(0, 4))
                pieces.append((lo, hi, bool(rng.randint(0, 1)),
                               bool(rng.randint(0, 1))))
            return RSet(pieces)
        a, b = rand_rset(), rand_rset()
        va, vb = _member_vector(a, pts), _member_vector(b, pts)
        assert _member_vector(a.union(b), pts) == \
            tuple(x or y for x, y in zip(va, vb))
        assert _member_vector(a.intersect(b), pts) == \
            tuple(x and y for x, y in zip(va, vb))
        assert _member_vector(a.difference(b), pts) == \
            tuple(x and not y for x, y in zip(va, vb))
        assert _member_vector(a.complement(), pts) == \
            tuple(not x for x in va)
        assert a.is_subset(b) == all(y for x, y in zip(va, vb) if x)
        # the frozenset spelling agrees with the named methods
        assert a | b == a.union(b) and a & b == a.intersect(b)
        assert a - b == a.difference(b)
        assert (a <= b) == a.is_subset(b)
        assert bool(a - b) == (not a.difference(b).is_empty)
        assert all((p in a) == a.contains(p) for p in pts)


def test_rset_canonical_pieces():
    r = RSet([(Fraction(0), Fraction(1), False, True),
              (Fraction(1), Fraction(2), False, True)])
    assert len(r.pieces) == 1
    # degenerate open interval drops out
    assert RSet([(Fraction(1), Fraction(1), True, True)]).is_empty
    # a single point survives
    p = RSet.point(Fraction(3))
    assert p.contains(Fraction(3)) and not p.contains(Fraction(2))


def test_rset_closure_interior():
    r = RSet.open_pairs([(Fraction(0), Fraction(1))])
    assert r.closure().contains(Fraction(0))
    assert not r.closure().interior().contains(Fraction(0))
    assert r.closure().interior() == r


def test_rset_unbounded():
    r = RSet([(NEG_INF, Fraction(0), True, False)])
    assert r.contains(Fraction(-1000))
    assert not r.is_bounded
    assert not SmoothLine().is_compact(r)
    assert SmoothLine().is_compact(RSet.closed_pairs([(Fraction(0),
                                                       Fraction(1))]))


def test_discrete_space_and_opensets():
    sp = Discrete(["b", "a", 3])
    assert sp.points == ("3", "a", "b")
    u = OpenSet(sp, ["a", "3"])
    v = OpenSet(sp, ["a"])
    assert v.is_subset(u) and not u.is_subset(v)
    assert u.intersect(v).region == frozenset({"a"})
    assert u.union(v).region == frozenset({"a", "3"})
    assert sp.whole().region == frozenset({"3", "a", "b"})
    with pytest.raises(ValueError):
        OpenSet(sp, ["zzz"])


def test_smooth_opensets_must_be_open():
    sp = SmoothLine()
    u = OpenSet(sp, [(Fraction(0), Fraction(1))])
    assert u.contains(Fraction(1, 2)) and not u.contains(Fraction(0))
    with pytest.raises(ValueError):
        OpenSet(sp, RSet.closed_pairs([(Fraction(0), Fraction(1))]))
    whole = sp.whole()
    assert whole.contains(Fraction(10 ** 9))


def test_openset_json_roundtrip():
    spd = Discrete(["x", "y"])
    u = OpenSet(spd, ["y"])
    assert OpenSet.from_json(spd, u.to_json()) == u
    sps = SmoothLine()
    w = OpenSet(sps, [(NEG_INF, Fraction(0)), (Fraction(1, 2), POS_INF)])
    assert OpenSet.from_json(sps, w.to_json()) == w


def test_region_helpers():
    spd = Discrete(["p", "q", "r"])
    u = OpenSet(spd, ["p", "q"])
    assert frozenset({"p"}) <= u.region
    assert not frozenset({"r"}) <= u.region
    assert frozenset({"p"}) | frozenset({"q"}) == frozenset({"p", "q"})
    assert frozenset({"p", "q"}) & frozenset({"q"}) == frozenset({"q"})
    sps = SmoothLine()
    r = sps.region_from_json([[0, 1], ["3/2", None]])
    assert r.contains(Fraction(1)) and r.contains(Fraction(100))
    assert sps.region_from_json(sps.region_to_json(r)) == r


# (space, open set data, a smaller open set's data, a point inside the
# smaller one, a point of the space outside the larger one)
BACKENDS = [
    (Discrete(["a", "b", "c"]), ["a", "b"], ["b"], "b", "c"),
    (SmoothLine(), [(Fraction(0), Fraction(2))], [(Fraction(1), Fraction(2))],
     Fraction(3, 2), Fraction(5)),
]


@pytest.mark.parametrize("space, big, small, inner, outer", BACKENDS,
                         ids=["discrete", "smoothline"])
def test_openset_region_protocol(space, big, small, inner, outer):
    u, v = OpenSet(space, big), OpenSet(space, small)
    assert u.union(v) == u and u.intersect(v) == v
    assert v.is_subset(u) and not u.is_subset(v)
    assert u.contains(inner) and v.contains(inner)
    assert not u.contains(outer)
    assert not u.is_empty
    assert OpenSet(space, []).is_empty
    assert OpenSet(space, []).region == space.empty_region()
    assert u.intersect(OpenSet(space, [])).is_empty
    for w in (u, v, space.whole(), OpenSet(space, [])):
        assert OpenSet.from_json(space, w.to_json()) == w
        assert hash(OpenSet.from_json(space, w.to_json())) == hash(w)
    assert space.point(inner) == inner
    assert space.point_region(inner) <= v.region
    assert space.is_compact(space.point_region(inner))


def test_point_refusals_and_cli_messages(tmp_path, capsys):
    with pytest.raises(ValueError, match="unknown point 'z'"):
        Discrete(["a", "b"]).point("z")
    with pytest.raises(ValueError, match="cannot parse 'x' as a rational"):
        SmoothLine().point("x")
    with pytest.raises(ValueError, match="cannot parse '1/0' as a rational"):
        SmoothLine().point("1/0")
    assert SmoothLine().point("3/4") == Fraction(3, 4)
    cases = [({"schema": 1, "backend": "discrete", "points": ["a", "b"],
               "functions": {"u": {"trunc": 2, "coeffs": {}}}},
              "z", "error: unknown point 'z' (points: a, b)"),
             ({"schema": 1, "backend": "smoothline",
               "functions": {"u": {"trunc": 2, "coeffs": {}}}},
              "x", "error: cannot parse 'x' as a rational abscissa")]
    for data, point, message in cases:
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        assert cli.main(["jet", "u", point, "1", "--scenario",
                         str(path)]) == 2
        assert capsys.readouterr().err.strip() == message


# -- the piece-wise operations against the definitions they replace ----------

def _rand_endpoint(rng):
    return Fraction(rng.randint(-12, 12), rng.randint(1, 4))


def _rand_pieces(rng):
    """Raw pieces: Fraction ends with denominators 1 to 4, infinite ends,
    single points, empty pieces, and ends that touch."""
    pieces, last = [], _rand_endpoint(rng)
    for _ in range(rng.randint(0, 4)):
        kind = rng.random()
        if kind < 0.15:
            pieces.append((last, last, False, False))
            continue
        lo = last if kind < 0.4 else _rand_endpoint(rng)
        hi = lo + Fraction(rng.randint(0, 8), rng.randint(1, 4))
        if rng.random() < 0.15:
            lo = NEG_INF
        if rng.random() < 0.15:
            hi = POS_INF
        pieces.append((lo, hi, rng.random() < 0.5, rng.random() < 0.5))
        last = hi if hi != POS_INF else _rand_endpoint(rng)
    return pieces


def _meets(a, b):
    """The meet of every piece of a with every piece of b, empty or not."""
    out = []
    for p in a.pieces:
        for q in b.pieces:
            lo, lo_open = max((p[0], p[2]), (q[0], q[2]))
            hi, hi_open = min((p[1], not p[3]), (q[1], not q[3]))
            out.append((lo, hi, lo_open, not hi_open))
    return out


def _old_is_subset(a, b):
    # the complement-and-intersect construction, every step canonicalized
    return not _canon(_meets(a, b.complement()))


def test_piecewise_region_operations_equal_their_definitions():
    rng = random.Random(39)
    for _ in range(1500):
        a, b = RSet(_rand_pieces(rng)), RSet(_rand_pieces(rng))
        # canonical pieces are a fixed point of the constructor
        assert RSet(a.pieces).pieces == a.pieces
        # pairs that are subsets as often as not
        for x, y in ((a, b), (b, a), (a & b, a), (a, a | b), (a, a.closure()),
                     (a.interior(), a), (a.closure(), a), (a, RSet())):
            assert x.is_subset(y) == _old_is_subset(x, y)
        assert a.intersect(b).pieces == RSet(_meets(a, b)).pieces
        for r in (a, b, a.closure(), a.interior(), a.complement()):
            assert r.is_open == (r == r.interior())


def test_union_merges_what_the_constructor_merges():
    # the regions of the test above: the merge walk of two canonical
    # piece lists gives the pieces _canon gives their concatenation
    rng = random.Random(39)
    for _ in range(1500):
        a, b = RSet(_rand_pieces(rng)), RSet(_rand_pieces(rng))
        for x, y in ((a, b), (b, a), (a, a), (a, RSet()), (RSet(), b),
                     (a, a.complement()), (a.closure(), b.interior())):
            assert x.union(y).pieces == RSet(x.pieces + y.pieces).pieces


@pytest.mark.parametrize("v", [0, 7, -3, Fraction(5, 3), Fraction(-1, 4),
                               0.5, -2.0, 1e308, NEG_INF, POS_INF])
def test_is_inf_agrees_with_comparing_to_infinity(v):
    assert _is_inf(v) == (v == NEG_INF or v == POS_INF)


@pytest.mark.parametrize("space, big, small, inner, outer", BACKENDS,
                         ids=["discrete", "smoothline"])
def test_open_sets_made_by_the_algebra_equal_validated_ones(
        space, big, small, inner, outer):
    # a third open set that neither holds nor lies in the others
    third = (["a", "c"] if isinstance(space, Discrete) else
             [(Fraction(-3), Fraction(1, 2)), (Fraction(7, 4), POS_INF)])
    sets = [OpenSet(space, d) for d in (big, small, third, [])]
    sets.append(space.whole())
    for u in sets:
        for v in sets:
            for made in (u.union(v), u.intersect(v)):
                assert made.space is space
                assert made == OpenSet(space, made.region)
                assert hash(made) == hash(OpenSet(space, made.region))
    # the validating constructor still refuses what is not an open region
    bad = (["a", "zzz"] if isinstance(space, Discrete)
           else RSet.closed_pairs([(Fraction(0), Fraction(1))]))
    with pytest.raises(ValueError):
        OpenSet(space, bad)
