import math
from itertools import product

import pytest

from formalcalc.multiindex import (degree, enumerate_degree, enumerate_upto,
                                   grlex_key, key_str, mi, mi_add, mi_binom,
                                   mi_factorial, mi_sub, parse_key)


def test_mi_normalizes():
    assert mi([1, 2]) == (1, 2)
    assert mi(()) == ()
    with pytest.raises(ValueError):
        mi((-1,))


def test_mi_refuses_a_string():
    # "12" read entry by entry would be the index (1, 2)
    for text in ("12", "1", ""):
        with pytest.raises(ValueError, match="string"):
            mi(text)
    assert parse_key("1,2") == (1, 2)


def test_degree_and_factorial():
    assert degree((2, 3)) == 5
    assert mi_factorial((2, 3)) == 2 * 6
    assert mi_factorial(()) == 1


def test_binom_product_formula():
    # oracle: product of componentwise binomial coefficients
    for a in product(range(4), repeat=2):
        for b in product(range(4), repeat=2):
            if all(x <= y for x, y in zip(b, a)):
                ref = math.comb(a[0], b[0]) * math.comb(a[1], b[1])
                assert mi_binom(a, b) == ref
            else:
                assert mi_binom(a, b) == 0


def test_add_sub():
    assert mi_add((1, 2), (3, 0)) == (4, 2)
    assert mi_sub((4, 2), (3, 0)) == (1, 2)
    with pytest.raises(ValueError):
        mi_sub((1, 0), (2, 0))


def test_enumerate_upto_counts():
    # oracle: stars and bars
    for n in range(4):
        for r in range(5):
            got = enumerate_upto(n, r)
            assert len(got) == math.comb(n + r, n)
            assert len(set(got)) == len(got)
            assert all(degree(m) <= r and len(m) == n for m in got)


def test_enumerate_degree_partitions_upto():
    for n in (1, 2, 3):
        for r in range(4):
            upto = set(enumerate_upto(n, r))
            layered = set()
            for d in range(r + 1):
                layered |= set(enumerate_degree(n, d))
            assert upto == layered


def test_zero_direction_enumeration():
    assert enumerate_upto(0, 3) == [()]


def test_graded_lex_order():
    seq = enumerate_upto(2, 3)
    keys = [grlex_key(m) for m in seq]
    assert keys == sorted(keys)
    # degree is the major key
    degs = [degree(m) for m in seq]
    assert degs == sorted(degs)


def test_key_roundtrip():
    for m in enumerate_upto(3, 3):
        assert parse_key(key_str(m), length=3) == m
    assert parse_key("", length=0) == ()
    with pytest.raises(ValueError):
        parse_key("1,2", length=3)
