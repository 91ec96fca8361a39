"""Multi-indices as plain int tuples, ordered graded-lexicographically.

A multi-index of length n is a tuple of n nonnegative ints. The empty
tuple is the unique multi-index of length 0 and is the only x-index on
the discrete backend, which has no coordinate directions. Enumeration
and every serialized listing use graded lex order: first by total
degree, then lexicographically on the entries.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement


def mi(entries) -> tuple:
    """Validate and freeze an iterable of nonnegative ints.

    This is the boundary check for indices that come from outside: a
    tuple of plain nonnegative ints is returned as it is, a string is
    refused, anything else is converted entry by entry. Indices that the
    package's own algebra produces are never passed through it again.
    """
    if type(entries) is tuple and all(type(e) is int and e >= 0
                                      for e in entries):
        return entries
    if isinstance(entries, str):
        raise ValueError("a multi-index is a list of ints, not the string %r"
                         % entries)
    t = tuple(int(e) for e in entries)
    if any(e < 0 for e in t):
        raise ValueError("multi-index entries must be nonnegative: %r" % (t,))
    return t


def degree(m: tuple) -> int:
    return sum(m)


def mi_factorial(m: tuple) -> int:
    r = 1
    for e in m:
        r *= math.factorial(e)
    return r


def mi_binom(m: tuple, s: tuple) -> int:
    """Product of componentwise binomial coefficients C(m_i, s_i)."""
    assert len(m) == len(s)
    r = 1
    for a, b in zip(m, s):
        if b > a:
            return 0
        r *= math.comb(a, b)
    return r


def mi_add(m: tuple, s: tuple) -> tuple:
    assert len(m) == len(s)
    return tuple(a + b for a, b in zip(m, s))


def mi_sub(m: tuple, s: tuple) -> tuple:
    assert len(m) == len(s)
    t = tuple(a - b for a, b in zip(m, s))
    if any(e < 0 for e in t):
        raise ValueError("multi-index subtraction went negative")
    return t


def grlex_key(m: tuple):
    return (sum(m), m)


def enumerate_degree(length: int, deg: int) -> list:
    """All multi-indices of the given length and exact total degree, lex order."""
    if length == 0:
        return [()] if deg == 0 else []
    out = []
    # positions of deg unit steps distributed over length slots
    for combo in combinations_with_replacement(range(length), deg):
        v = [0] * length
        for i in combo:
            v[i] += 1
        out.append(tuple(v))
    return sorted(set(out))


def enumerate_upto(length: int, maxdeg: int) -> list:
    """All multi-indices of the given length with degree <= maxdeg, graded lex."""
    out = []
    for d in range(maxdeg + 1):
        out.extend(enumerate_degree(length, d))
    return out


def key_str(m: tuple) -> str:
    """Serialize a multi-index as a comma separated coefficient key."""
    return ",".join(str(e) for e in m)


def parse_key(s: str, length=None) -> tuple:
    """Inverse of key_str. The empty string is the length-0 index."""
    s = s.strip()
    m = () if s == "" else mi(part.strip() for part in s.split(","))
    if length is not None and len(m) != length:
        raise ValueError("coefficient key %r has length %d, expected %d"
                         % (s, len(m), length))
    return m
