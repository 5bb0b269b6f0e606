import math
import random
import sys
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int, mpf_sqrt, round_nearest

from weightjac import quadfield
from weightjac.errors import DivisionByZero, FieldMismatch, ParseError, RationalInput
from weightjac.quadfield import (
    MAX_LITERAL_DIGITS,
    FieldTag,
    QuadElem,
    factorize,
    is_squarefree,
    parse_int,
    parse_quadelem,
    parse_rational,
    squarefree_part,
)

GAUSS = FieldTag(-1)
EISEN = FieldTag(-3)


def q(x, y, field=GAUSS):
    return QuadElem.make(field, x, y)


def test_field_tag_validation():
    assert FieldTag(-1).dK == -4
    assert FieldTag(-3).dK == -3
    assert FieldTag(-7).dK == -7
    assert FieldTag(-2).dK == -8
    # -2.5 factored as {2.5: 1}, and -1.0 equalled and hashed like -1
    for bad in (4, 0, -4, -9, -12, -1.0, -2.5, True):
        with pytest.raises(ParseError):
            FieldTag(bad)


def test_squarefree_helpers():
    assert is_squarefree(-1) and is_squarefree(-105) and is_squarefree(30)
    assert not is_squarefree(-25) and not is_squarefree(12)
    assert squarefree_part(-36) == -1
    assert squarefree_part(-108) == -3
    assert squarefree_part(-27) == -3
    assert squarefree_part(7) == 7
    assert not is_squarefree(0)
    with pytest.raises(ValueError):
        squarefree_part(0)
    assert factorize(-360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {} and factorize(7919**2 * 2) == {2: 1, 7919: 2}
    for n in range(2, 500):
        assert math.prod(p**e for p, e in factorize(n).items()) == n


def test_rational_parsing():
    assert parse_rational("-3/6") == F(-1, 2)
    assert parse_rational("14") == 14
    with pytest.raises(ParseError):
        parse_rational("3.5")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_rational("1/0")
    assert parse_rational(" +4/6 ") == F(2, 3)
    # the denominator takes no sign and no space; Fraction took "1_0/3" and
    # raised ValueError on 4,401 digits
    for bad in ("1/-2", "1/+2", "1 /2", "1/ 2", "/2", "1/", "1_0/3", "1/\u0663",
                "1" * 4401, "1/" + "3" * (MAX_LITERAL_DIGITS + 1)):
        with pytest.raises(ParseError):
            parse_rational(bad)
    with pytest.raises(ParseError):
        parse_quadelem("1+" + "2" * 4401 + "*sqrt(-1)")


def test_parse_int_reads_a_sign_and_ascii_digits_under_the_budget():
    assert parse_int(" -12\n") == -12 and parse_int("+5") == 5 and parse_int("007") == 7
    assert parse_int("9" * MAX_LITERAL_DIGITS) == 10**MAX_LITERAL_DIGITS - 1
    # int() takes the separator, the non-ASCII digits and the oversize literal
    for bad in ("1_0", "\u0661", "\uff11", "", " ", "+", "+-1", "1 2", "1.0", "0x1",
                "9" * (MAX_LITERAL_DIGITS + 1)):
        with pytest.raises(ParseError):
            parse_int(bad)


def test_digit_budgets_scale_down_with_a_lower_int_digit_limit(monkeypatch):
    import sys

    from weightjac.quadfield import digit_budget

    for limit, budget in ((0, 2000), (640, 297), (4299, 1999), (4300, 2000), (10**6, 2000)):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)
        assert digit_budget(MAX_LITERAL_DIGITS) == budget, limit
    # at the least limit Python allows, a literal past 297 digits is refused
    # before int() could raise
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640, raising=False)
    assert parse_int("9" * 297) == 10**297 - 1
    with pytest.raises(ParseError, match="at most 297 ASCII digits"):
        parse_int("9" * 298)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(n=st.integers(-(10**MAX_LITERAL_DIGITS) + 1, 10**MAX_LITERAL_DIGITS - 1))
def test_parse_int_round_trips_every_integer_under_the_budget(n):
    assert parse_int(str(n)) == n


def test_norm_identity_product():
    a = q(1, 2)
    assert (a * a.conj()).x == 5
    assert (a * a.conj()).y == 0
    assert a.norm() == 5


def test_inverse_of_norm_one_element():
    z = q(F(1, 2), F(1, 2), EISEN)  # (1 + sqrt(-3))/2, a sixth root of unity
    inv = QuadElem.from_rational(EISEN, 1) / z
    assert inv == z.conj() == q(F(1, 2), F(-1, 2), EISEN)


def test_componentwise_addition():
    a = q(F(2, 3), F(1, 3))
    b = q(F(1, 3), F(2, 3))
    assert a + b == q(1, 1)


def test_conj():
    real = q(3, 0, EISEN)
    assert real.conj() == real
    assert q(1, 2).conj() == q(1, -2)
    assert q(1, 2).conj().conj() == q(1, 2)


def test_field_mismatch_and_division_errors():
    with pytest.raises(FieldMismatch):
        q(1, 1) + q(1, 1, EISEN)
    with pytest.raises(DivisionByZero):
        q(1, 1) / q(0, 0)


def test_division_by_a_rational_zero():
    for zero in (0, F(0)):
        with pytest.raises(DivisionByZero):
            q(1, 1) / zero


def test_minimal_polynomial_examples():
    assert q(0, 3).minimal_polynomial() == (1, 0, 9)
    # expand (3*tau - 1)^2 = -4 and normalize to a primitive triple
    assert q(F(1, 3), F(2, 3)).minimal_polynomial() == (9, -6, 5)
    assert q(F(1, 2), F(1, 2), EISEN).minimal_polynomial() == (1, -1, 1)
    with pytest.raises(RationalInput):
        q(F(7, 2), 0).minimal_polynomial()


def test_minimal_polynomial_resubstitutes_to_zero():
    rng = random.Random(7)
    small = [
        (F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
        for _ in range(200)
    ]
    large = [
        (F(rng.randint(-10**7, 10**7), rng.randint(1, 10**6)),
         F(rng.choice([-1, 1]) * rng.randint(1, 10**7), rng.randint(1, 10**6)))
        for _ in range(200)
    ]
    # x = 0, negative y, and coprime denominators near 10^6
    edge = [(F(0), F(-1)), (F(0), F(5, 7)), (F(1, 999_983), F(-3, 1_000_000)),
            (F(-7, 999_999), F(2, 1_000_000))]
    for i, (x, y) in enumerate(small + large + edge):
        field = [GAUSS, FieldTag(-2), EISEN, FieldTag(-7)][i % 4]
        tau = q(x, y, field)
        a, b, c = tau.minimal_polynomial()
        value = tau * tau * a + tau * b + QuadElem.from_rational(field, c)
        assert value == q(0, 0, field)
        assert a > 0 and math.gcd(a, math.gcd(abs(b), abs(c))) == 1


def test_norm_is_multiplicative():
    rng = random.Random(11)
    for _ in range(300):
        field = [GAUSS, EISEN, FieldTag(-5)][rng.randrange(3)]
        a = q(F(rng.randint(-20, 20), rng.randint(1, 7)), F(rng.randint(-20, 20), rng.randint(1, 7)), field)
        b = q(F(rng.randint(-20, 20), rng.randint(1, 7)), F(rng.randint(-20, 20), rng.randint(1, 7)), field)
        assert (a * b).norm() == a.norm() * b.norm()


def test_embed_exact_points():
    z = q(0, 1).embed(128)
    assert z.real == 0 and z.imag == 1
    third = QuadElem.from_rational(GAUSS, F(1, 3)).embed(128)
    assert third.imag == 0
    with mpmath.workprec(200):
        assert abs(third.real - mpmath.mpf(1) / 3) < mpmath.mpf(2) ** -127


def test_embed_high_precision_sixth_root():
    z = q(F(1, 2), F(1, 2), EISEN)
    with mpmath.workprec(400):
        expected = mpmath.mpc(mpmath.mpf(1) / 2, mpmath.sqrt(3) / 2)
        got = z.embed(256)
        assert abs(got - expected) < mpmath.mpf(2) ** -250


def test_embed_is_nearly_multiplicative():
    rng = random.Random(13)
    prec = 128
    for _ in range(50):
        a = q(F(rng.randint(-9, 9), rng.randint(1, 5)), F(rng.randint(-9, 9), rng.randint(1, 5)))
        b = q(F(rng.randint(-9, 9), rng.randint(1, 5)), F(rng.randint(-9, 9), rng.randint(1, 5)))
        with mpmath.workprec(prec + 16):
            lhs = (a * b).embed(prec)
            rhs = a.embed(prec) * b.embed(prec)
            scale = max(abs(lhs), abs(rhs), mpmath.mpf(1))
            assert abs(lhs - rhs) < mpmath.mpf(2) ** (4 - prec) * scale


def _embed_oracle(z, prec):
    """The earlier embed on mpmath's global context: parts to nearest at
    prec + 8 bits, then each rounded to prec bits."""
    with mpmath.workprec(prec + 8):
        re = mpmath.mpf(z.x.numerator) / z.x.denominator
        im = mpmath.mpf(z.y.numerator) / z.y.denominator * mpmath.sqrt(-z.field.d)
        with mpmath.workprec(prec):
            return mpmath.mpc(+re, +im)


def test_embed_is_bit_identical_to_the_workprec_formula():
    from weightjac.binforms import enumerate_reduced

    # tau = (-b + t sqrt(d)) / 2a of every reduced form (a, b, c) with |D| < 500
    points = [q(F(-22, 7), F(5, 3), FieldTag(-7)), q(F(-10**40 - 1, 3), F(1, 10**30), FieldTag(-163))]
    for D in range(-3, -500, -1):
        if D % 4 not in (0, 1):
            continue
        d = squarefree_part(D)
        t = math.isqrt(D // d)
        field = FieldTag(d)
        points += [q(F(-f.b, 2 * f.a), F(t, 2 * f.a), field) for f in enumerate_reduced(D)]
    for prec in (64, 128, 200, 1024, 4096):
        for z in points:
            got, expected = z.embed(prec), _embed_oracle(z, prec)
            assert got._mpc_ == expected._mpc_, (str(z), prec)


@pytest.mark.parametrize("prec", [64, 65, 127, 128, 1100, 4096, 4097])
def test_embed_square_root_is_libmp_mpf_sqrt_bit_for_bit(prec):
    # every branch of libmp's steps: n = 1 has mantissa 1 and the zero
    # remainder of an exact root, n = 2 an odd exponent (from_int(2) is
    # 1 * 2^1), and every other squarefree n a nonzero remainder
    ns = [n for n in range(1, 3001) if is_squarefree(n)]
    assert ns[:2] == [1, 2] and from_int(2) == (0, 1, 1, 1)
    for n in ns:
        oracle = mpf_sqrt(from_int(n), prec, round_nearest)
        assert quadfield._sqrt_nearest(n, prec) == oracle, (n, prec)
    # the memo keeps one floor root per n, at the highest precision asked so
    # far: from an empty memo, precisions descending from above prec, then one
    # past the memo's margin and prec again, interleaved across two n
    quadfield._ROOTS.clear()
    for pair in ((1, 2), (2, 1), (3, 2), (2999, 3)):
        for p in (prec + 1, prec, prec // 2 + 32, 64, 4 * prec, prec):
            for n in pair:
                oracle = mpf_sqrt(from_int(n), p, round_nearest)
                assert quadfield._sqrt_nearest(n, p) == oracle, (pair, n, p)


def test_square_root_memo_is_bit_identical_under_a_race(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    jobs = [(n, p) for p in range(64, 4000, 433) for n in (1, 2, 3, 5, 6, 7, 2999)]
    monkeypatch.setattr(quadfield, "_ROOTS", {})
    # a memo of a few slots is emptied again and again while the threads read it
    monkeypatch.setattr(quadfield, "_ROOT_SLOTS", 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(lambda k: [quadfield._sqrt_nearest(*job) for job in jobs[k:] + jobs[:k]], 5 * k)
                for k in range(8)
            ]
            threaded = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    expected = [mpf_sqrt(from_int(n), p, round_nearest) for n, p in jobs]
    assert all(roots == expected[5 * k:] + expected[:5 * k] for k, roots in enumerate(threaded))


def test_serialization_round_trip():
    cases = [
        q(F(1, 3), F(-2, 7)),
        q(0, 1),
        q(-2, 0, EISEN),
        q(F(-5, 2), F(11, 3), FieldTag(-163)),
    ]
    for z in cases:
        assert parse_quadelem(str(z)) == z


# (literal, field given to the parser, (d, x, y) or None for a ParseError)
ELEMENT_LITERALS = [
    ("1/3-2/7*sqrt(-1)", None, (-1, F(1, 3), F(-2, 7))),
    ("1/3", GAUSS, (-1, F(1, 3), 0)),
    ("3*sqrt(-1)", None, (-1, 0, 3)),
    (" 1 + 2 * sqrt( -1 ) ", None, (-1, 1, 2)),
    ("12*sqrt(-1)", None, (-1, 0, 12)),
    ("-3*sqrt(-1)", None, (-1, 0, -3)),
    ("- 3*sqrt(-1)", None, (-1, 0, -3)),
    ("+1/2", GAUSS, (-1, F(1, 2), 0)),
    ("-5", EISEN, (-3, -5, 0)),
    ("1 2*sqrt(-1)", None, None),
    ("1 - -2*sqrt(-1)", None, None),
    ("- 3", GAUSS, None),
    ("1+", GAUSS, None),
    ("+1/2", None, None),
    ("1/0", GAUSS, None),
    ("1/0*sqrt(-1)", None, None),
    ("1+2*sqrt(-1)", EISEN, None),
    ("2*sqrt(-4)", None, None),
    ("sqrt(-1)", None, None),
    ("sqrt(2)", None, None),
    ("", GAUSS, None),
    ("  ", GAUSS, None),
]


@pytest.mark.parametrize("text, field, expected", ELEMENT_LITERALS)
def test_element_literals(text, field, expected):
    if expected is None:
        with pytest.raises(ParseError):
            parse_quadelem(text, field)
    else:
        d, x, y = expected
        assert parse_quadelem(text, field) == q(x, y, FieldTag(d))
