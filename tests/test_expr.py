"""Expression trees: evaluation, differentiation, bumps, serialization."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

from formalcalc import expr
from formalcalc.errors import (BackendError, CertificateError,
                               UndecidedCertificateError)
from formalcalc.expr import (
    MAX_POLY_DEGREE,
    ONE,
    Add,
    Pow,
    X,
    ZERO,
    Const,
    bump,
    certify_positive,
    diff,
    div,
    ev,
    ev_f,
    falling_edge,
    ibounds,
    kern,
    mul,
    add,
    parse_sexpr,
    poly_coeffs,
    poly_definite_integral,
    pow_,
    rising_edge,
    sub,
    to_sexpr,
    _postorder,
)
from formalcalc.scalars import QC
from formalcalc.spaces import RSet


def rand_poly_coeffs(rng, deg):
    return {d: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            for d in range(deg + 1) if rng.random() < 0.8}


def poly_expr(coeffs):
    e = ZERO
    for d, v in coeffs.items():
        e = add(e, mul(Const(v), pow_(X, d)))
    return e


def horner(coeffs, x):
    return sum(v * x ** d for d, v in coeffs.items())


def test_polynomial_evaluation_is_exact():
    rng = random.Random(11)
    for _ in range(200):
        coeffs = rand_poly_coeffs(rng, rng.randint(0, 4))
        e = poly_expr(coeffs)
        x = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        got = ev(e, x)
        assert isinstance(got, QC)
        assert got == QC(horner(coeffs, x))


def test_poly_coeffs_roundtrip_and_rejection():
    rng = random.Random(13)
    for _ in range(100):
        coeffs = rand_poly_coeffs(rng, rng.randint(0, 4))
        e = poly_expr(coeffs)
        got = poly_coeffs(e)
        want = {d: QC(v) for d, v in coeffs.items() if v}
        assert got == want
    assert poly_coeffs(kern(X)) is None
    # a kernel of a positive constant is constant but transcendental
    assert poly_coeffs(kern(Const(2))) is None


def test_poly_coeffs_of_a_power_match_repeated_multiplication():
    rng = random.Random(17)
    for _ in range(60):
        coeffs = rand_poly_coeffs(rng, rng.randint(0, 3))
        base, n = poly_expr(coeffs), rng.randint(0, 9)
        want = {0: QC(1)}
        for _ in range(n):
            want = poly_coeffs(mul(poly_expr({d: v.re for d, v in want.items()}),
                                   base))
        assert poly_coeffs(Pow(base, n)) == want
    assert poly_coeffs(pow_(X, MAX_POLY_DEGREE)) == {MAX_POLY_DEGREE: QC(1)}
    with pytest.raises(ValueError, match="degree"):
        poly_coeffs(pow_(X, MAX_POLY_DEGREE + 1))
    with pytest.raises(ValueError, match="degree"):
        poly_coeffs(mul(pow_(X, MAX_POLY_DEGREE), X))
    # a dense base is refused before any squaring, not after expanding
    # (x + 1)^1024 (about 2 s)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="degree"):
        poly_coeffs(Pow(add(X, ONE), MAX_POLY_DEGREE + 1))
    assert time.perf_counter() - start < 0.5
    # a degree-0 base built from x still folds under the bit cap
    two = parse_sexpr("(+ 2 x (* -1 x))")
    with pytest.raises(ValueError, match="bits"):
        poly_coeffs(Pow(two, 50000000))


def test_poly_definite_integral_matches_antiderivative():
    rng = random.Random(17)
    for _ in range(100):
        coeffs = rand_poly_coeffs(rng, rng.randint(0, 4))
        lo = Fraction(rng.randint(-6, 0))
        hi = lo + Fraction(rng.randint(1, 6), rng.randint(1, 2))
        qcoeffs = {d: QC(v) for d, v in coeffs.items()}
        got = poly_definite_integral(qcoeffs, lo, hi)
        want = sum((Fraction(v, d + 1) * (hi ** (d + 1) - lo ** (d + 1))
                    for d, v in coeffs.items()), Fraction(0))
        assert got == QC(want)


def test_derivative_of_polynomial_is_exact():
    rng = random.Random(19)
    for _ in range(100):
        coeffs = rand_poly_coeffs(rng, rng.randint(1, 4))
        e = poly_expr(coeffs)
        dcoeffs = {d - 1: d * v for d, v in coeffs.items() if d > 0 and v}
        want = {d: QC(v) for d, v in dcoeffs.items() if v}
        assert poly_coeffs(diff(e)) == want


def smooth_catalogue():
    r, s_, p_ = rising_edge(0, 1), falling_edge(-1, 1), pow_(add(X, ONE), 3)
    b, _, _ = bump(-2, -1, 1, 2)
    return [
        kern(X),
        kern(X, 2),
        kern(sub(Const(1), mul(X, X))),
        r,
        s_,
        b,
        mul(p_, b),
        add(mul(Const(Fraction(1, 2)), r), kern(X, 1)),
    ]


def to_mp(v):
    if isinstance(v, QC):
        return mpc(mpf(v.re.numerator) / mpf(v.re.denominator),
                   mpf(v.im.numerator) / mpf(v.im.denominator))
    return v


def central_diff(e, x, h=Fraction(1, 10 ** 9)):
    # subtract at 30-digit precision; float64 would lose the difference
    with mp.workdps(30):
        d = to_mp(ev(e, x + h)) - to_mp(ev(e, x - h))
        return complex(d / (2 * to_mp(QC(h))))


def test_derivative_matches_central_difference():
    pts = [Fraction(1, 3), Fraction(1, 2), Fraction(3, 4),
           Fraction(-1, 2), Fraction(5, 4)]
    for e in smooth_catalogue():
        de = diff(e)
        for x in pts:
            got = complex(ev(de, x))
            fd = central_diff(e, x)
            assert abs(got - fd) < 1e-9 * max(1.0, abs(got))


def test_second_derivative_matches_difference_of_first():
    e = kern(X)
    d2 = diff(e, 2)
    d1 = diff(e)
    for x in (Fraction(1, 4), Fraction(2, 3), Fraction(3, 2)):
        got = complex(ev(d2, x))
        fd = central_diff(d1, x)
        assert abs(got - fd) < 1e-8 * max(1.0, abs(got))


def test_kernel_vanishes_exactly_left_of_zero():
    e = kern(X)
    for x in (Fraction(0), Fraction(-1, 2), -3):
        v = ev(e, x)
        assert isinstance(v, QC)
        assert not v
        assert ev_f(e, float(x)) == 0j
    # every derivative inherits the flat left tail
    d3 = diff(e, 3)
    assert ev(d3, Fraction(0)) == QC(0)
    assert ev(d3, Fraction(-2)) == QC(0)


def test_the_package_and_a_caller_keep_their_own_mpmath_precision():
    # importing formalcalc leaves mpmath's global mp at its default
    # 15 digits, in a fresh interpreter where nothing else set it
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run(
        [sys.executable, "-c", "import mpmath, formalcalc; print(mpmath.mp.dps)"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out == "15\n"
    # and ev carries 30 digits at whatever precision a caller set, which
    # it leaves as it was
    want = "0.135335283236612691893999494972"  # exp(-2) at 30 digits
    for dps in (5, 15, 50):
        with mp.workdps(dps):
            v = ev(kern(X), 0.5)
            assert (str(v), mp.dps) == (want, dps)
    assert str(ev(kern(X), Fraction(1, 2))) == want


def test_kernel_of_a_vanishing_argument_is_refused():
    # s(s(x^3)) at 1/100: the inner kernel is about 10^-434294, and
    # exp(-1/t) of that is refused at once instead of running for minutes
    e = kern(kern(mul(X, mul(X, X))))
    for x in (Fraction(1, 100), 0.01):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="kernel argument"):
            ev(e, x)
        assert time.perf_counter() - start < 5.0
    # the bound is 2^-MAX_FOLD_BITS, the one exact powers obey
    with pytest.raises(ValueError, match="kernel argument"):
        ev(kern(X), Fraction(1, 2 ** 65537))
    assert ev(kern(X), Fraction(1, 2 ** 65535)) > 0
    assert ev(e, Fraction(1, 2)) > 0


def test_bump_plateau_is_exactly_one_and_tails_exactly_zero():
    e, supp, plat = bump(Fraction(-2), Fraction(-1), 1, 2)
    assert supp == RSet.closed_pairs([(-2, 2)])
    assert plat == RSet.closed_pairs([(-1, 1)])
    for x in (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1)):
        assert ev(e, x) == 1
        assert ev_f(e, float(x)) == 1 + 0j
    for x in (Fraction(-2), Fraction(2), Fraction(3), Fraction(-5)):
        v = ev(e, x)
        assert isinstance(v, QC)
        assert not v
    # transition values stay inside [0, 1]
    for x in (Fraction(-3, 2), Fraction(3, 2)):
        v = complex(ev(e, x))
        assert v.imag == 0
        assert 0 < v.real < 1


def test_edge_constructors_validate_order():
    with pytest.raises(ValueError):
        rising_edge(1, 1)
    with pytest.raises(ValueError):
        falling_edge(2, 1)
    with pytest.raises(ValueError):
        bump(0, 0, 1, 2)
    with pytest.raises(ValueError):
        bump(0, 2, 1, 3)


def test_rising_and_falling_edges_sum_to_one_on_overlap():
    r = rising_edge(0, 1)
    f = falling_edge(0, 1)
    for x in (Fraction(1, 4), Fraction(1, 2), Fraction(7, 8)):
        assert complex(ev(add(r, f), x)) == pytest.approx(1.0, abs=1e-25)


def test_ev_f_agrees_with_ev():
    rng = random.Random(23)
    for e in smooth_catalogue():
        for _ in range(10):
            x = rng.uniform(-3, 3)
            hi = complex(ev(e, Fraction(x).limit_denominator(10 ** 6)))
            lo = ev_f(e, float(Fraction(x).limit_denominator(10 ** 6)))
            assert abs(hi - lo) < 1e-12 * max(1.0, abs(hi))


def test_ev_c_flattens_to_complex():
    assert complex(ev(Const(QC(Fraction(1, 2), Fraction(3))), Fraction(0))) \
        == 0.5 + 3j
    assert isinstance(complex(ev(kern(X), Fraction(1))), complex)


def test_constructor_simplifications():
    assert add(ZERO, X) is X
    assert mul(ONE, X) is X
    assert mul(ZERO, kern(X)) == ZERO
    assert pow_(X, 0) == ONE
    assert pow_(X, 1) is X
    assert pow_(Const(3), 2) == Const(9)
    assert kern(Const(-1)) == ZERO
    assert kern(Const(0)) == ZERO
    with pytest.raises(ValueError):
        pow_(X, -1)
    with pytest.raises(ValueError):
        kern(X, -1)
    with pytest.raises(BackendError):
        kern(Const(QC(Fraction(0), Fraction(1))))


def test_div_constant_folding_and_zero_denominator():
    assert div(X, Const(2)) == mul(Const(Fraction(1, 2)), X)
    assert div(ZERO, kern(X)) == ZERO
    with pytest.raises(ZeroDivisionError):
        div(X, ZERO)


def test_certify_positive_accepts_and_rejects():
    certify_positive(add(pow_(X, 2), ONE), RSet.whole())
    certify_positive(X, RSet.open_pairs([(1, 100)]))
    certify_positive(Const(Fraction(1, 7)), RSet.whole())
    with pytest.raises(CertificateError):
        certify_positive(X, RSet.whole())
    with pytest.raises(CertificateError):
        certify_positive(sub(pow_(X, 2), ONE), RSet.open_pairs([(-2, 2)]))
    with pytest.raises(CertificateError):
        div(ONE, X)


def test_a_refuted_certificate_is_not_undecided():
    # -x is shown nonpositive on [1, inf), the third piece bounded
    with pytest.raises(CertificateError) as refuted:
        certify_positive(mul(Const(-1), X), RSet.whole())
    assert type(refuted.value) is CertificateError
    assert str(refuted.value) == "denominator is nonpositive on [1, inf]"


def test_a_proof_out_of_precision_or_budget_is_undecided(monkeypatch):
    # x > 0 on (0, 1) holds, but no interval reaching 0 proves it: the
    # bisection stops at the width floor, or sooner at the step budget
    with pytest.raises(UndecidedCertificateError, match="cannot certify"):
        certify_positive(X, RSet.open_pairs([(0, 1)]))
    with pytest.raises(UndecidedCertificateError, match="cannot certify"):
        rising_edge(-2, -2 + Fraction(1, 1024))
    monkeypatch.setattr(expr, "_CERT_BUDGET", 3)
    with pytest.raises(UndecidedCertificateError, match="budget exhausted"):
        certify_positive(X, RSet.open_pairs([(0, 1)]))


def test_certified_quotient_edge_denominator():
    # the standard edge denominator s(x) + s(1-x) is positive everywhere
    den = add(kern(X), kern(sub(ONE, X)))
    e = div(kern(X), den)
    assert complex(ev(e, Fraction(2))) == pytest.approx(1.0, abs=1e-25)
    v = ev(e, Fraction(-1))
    assert isinstance(v, QC) and not v


def test_ibounds_contains_true_range():
    e = pow_(X, 2)
    lo, hi = ibounds(e, 2.0, 3.0)
    assert lo <= 4.0 and hi >= 9.0
    lo, hi = ibounds(kern(X), -1.0, 0.0)
    assert lo == 0.0 and hi == 0.0
    lo, hi = ibounds(kern(X), 0.5, 2.0)
    assert 0.0 <= lo and hi >= float(ev_f(kern(X), 2.0).real)


def test_sexpr_roundtrip():
    exprs = smooth_catalogue() + [
        X,
        Const(Fraction(-7, 3)),
        Const(QC(Fraction(1, 2), Fraction(-2, 5))),
        diff(bump(-1, Fraction(-1, 2), Fraction(1, 2), 1)[0]),
        pow_(add(X, Const(2)), 4),
    ]
    for e in exprs:
        s = to_sexpr(e)
        back = parse_sexpr(s)
        assert back == e
        assert to_sexpr(back) == s


def test_parse_sexpr_grammar():
    assert parse_sexpr("x") is X
    assert parse_sexpr("3/4") == Const(Fraction(3, 4))
    assert parse_sexpr("0.25") == Const(Fraction(1, 4))
    assert parse_sexpr("-2") == Const(-2)
    # n-ary + and * fold left into binary nodes
    assert parse_sexpr("(+ 1 2 3)") == Const(6)
    e = parse_sexpr("(* x x x)")
    assert poly_coeffs(e) == {3: QC(1)}
    assert parse_sexpr("(complex 1/2 -3)") == Const(QC(Fraction(1, 2), Fraction(-3)))
    assert parse_sexpr("(sm x 2)") == kern(X, 2)


def test_parse_sexpr_rejects_malformed_input():
    for bad in ("", "(", ")", "(+ 1)", "(pow x y)", "(frob x 1)",
                "x x", "(s x", "(/ 1)", "y", "(complex 1)",
                # each form's wrong arity or argument kind
                "(sm x)", "(pow x)", "(pow x 2 3)", "(pow x 1.5)",
                "(pow x -1)", "(s x 1)", "(sm x -1)", "(complex 1 2 3)",
                "(complex x 1)", "(* x)", "(+)", "(/ 1 x x)", "1/0", "(s)",
                "()",
                # literals are ASCII decimal: no underscores, no other
                # Unicode digits (Arabic-Indic three, fullwidth one)
                "(pow x 1_0)", "(sm x 1_0)", "(pow x \u0663)", "(* x \u0663/2)",
                "(* x 3/\u0662)", "\u0663", "\uff11.5", "1_0", "1_0/3"):
        with pytest.raises(ValueError):
            parse_sexpr(bad)
    # quotient certification runs during parsing
    with pytest.raises(CertificateError):
        parse_sexpr("(/ 1 x)")


def test_parse_region_scopes_certificates():
    e = parse_sexpr("(/ 1 x)", region=RSet.open_pairs([(1, 9)]))
    assert ev(e, Fraction(4)) == QC(Fraction(1, 4))


def deep_chain(depth):
    e = X
    for _ in range(depth - 1):
        e = Add(e, X)
    return e


def test_deep_expressions_walk_without_recursion():
    # neither the 5000-deep chain nor the parsed flat sum (1499 nested
    # binary nodes) reaches the recursion limit: every walk is the fold
    unit = RSet.closed_pairs([(0, 1)])
    flat = "(+ %s)" % " ".join(["x"] * 1500)
    for n, e, twin in ((5000, deep_chain(5000), deep_chain(5000)),
                       (1500, parse_sexpr(flat), parse_sexpr(flat))):
        assert e is twin
        assert ev(e, 1) == QC(n)
        assert ev(e, 0.5) == mpf(n) / 2
        lo, hi = ibounds(e, 0.0, 1.0)
        assert lo <= 0.0 and hi >= n
        assert diff(e) == Const(n)
        assert to_sexpr(e).count("x") == n
        assert e == twin and hash(e) == hash(twin)
        assert e != add(twin, X)
        certify_positive(add(e, ONE), unit)


def test_derivatives_share_their_subterms():
    # each distinct subterm is differentiated once, so the derivative
    # reuses the derivative of a shared subterm (a count, not a time)
    e, _, _ = bump(-2, -1, 1, 2)
    assert len(_postorder(diff(e, 7))) < 50_000
