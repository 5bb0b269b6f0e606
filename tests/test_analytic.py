import hashlib
import json
import operator
import random
import subprocess
import sys
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from weightjac import analytic, cli
from weightjac.analytic import (
    PrecComplex,
    evaluate_expression,
    fundamental_domain_exact,
    hilbert_class_polynomial,
    is_plausible_class_polynomial,
    j_is_real,
    j_of_lattice,
    split_prime,
    verify_appendix,
)
from weightjac.binforms import Form, element_order, enumerate_reduced, form_to_lattice
from weightjac.cmlattice import ideal_class, parse_lattice
from weightjac.errors import DivisionByZero, LowerHalfPlane, ParseError
from weightjac.quadfield import FieldTag, QuadElem

from test_cli import child_env
from test_identity_gates import J_FORMS

GAUSS = FieldTag(-1)
EISEN = FieldTag(-3)

LAT_3I = parse_lattice("⟨1+0*sqrt(-1), 0+3*sqrt(-1)⟩")


def test_classical_values():
    gauss = parse_lattice("⟨1+0*sqrt(-1), 0+1*sqrt(-1)⟩")
    assert abs(j_of_lattice(gauss, 128).to_mpc() - 1728) < mpmath.mpf(2) ** -100
    eisen = parse_lattice("⟨2+0*sqrt(-3), 1+1*sqrt(-3)⟩")
    assert abs(j_of_lattice(eisen, 128).to_mpc()) < mpmath.mpf(2) ** -90


def test_fundamental_domain_exact():
    t = fundamental_domain_exact(QuadElem.make(GAUSS, 5, 3))
    assert t == QuadElem.make(GAUSS, 0, 3)
    # tau = i/2 inverts to 2i
    t2 = fundamental_domain_exact(QuadElem.make(GAUSS, 0, F(1, 2)))
    assert t2 == QuadElem.make(GAUSS, 0, 2)
    t3 = fundamental_domain_exact(QuadElem.make(GAUSS, F(1, 3), F(2, 3)))
    assert t3.norm() >= 1 and abs(t3.x) <= F(1, 2)
    with pytest.raises(LowerHalfPlane):
        fundamental_domain_exact(QuadElem.make(GAUSS, 1, -1))


_FIELDS = [FieldTag(d) for d in (-1, -2, -3, -5, -7, -15, -23, -163)]


def _upper_half_plane():
    x = st.builds(F, st.integers(-2000, 2000), st.integers(1, 40))
    y = st.builds(F, st.integers(1, 800), st.integers(1, 40))
    return st.builds(QuadElem, st.sampled_from(_FIELDS), x, y)


def _in_domain(t):
    """|Re| <= 1/2 and |t| >= 1, with Re = +1/2 and Re >= 0 on |t| = 1."""
    half = F(1, 2)
    return t.y > 0 and -half < t.x <= half and t.norm() >= 1 and (t.norm() > 1 or t.x >= 0)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(tau=_upper_half_plane(), word=st.lists(st.integers(-5, 5), max_size=6))
# random draws seldom land on the boundary: the unit circle and Re = -1/2
@example(tau=QuadElem.make(GAUSS, F(-3, 5), F(4, 5)), word=[2, -1])
@example(tau=QuadElem.make(EISEN, F(-1, 2), F(1, 2)), word=[1])
@example(tau=QuadElem.make(FieldTag(-5), F(-1, 2), F(1, 2)), word=[])
def test_fundamental_domain_exact_properties(tau, word):
    reduced = fundamental_domain_exact(tau)
    assert _in_domain(reduced)
    assert fundamental_domain_exact(reduced) == reduced
    # the word k1, k2, ... applies tau -> -1/(tau + k) once per letter
    one = QuadElem.from_rational(tau.field, 1)
    moved = tau
    for k in word:
        moved = -(one / (moved + QuadElem.from_rational(tau.field, k)))
    assert fundamental_domain_exact(moved) == reduced


def test_golden_j_value_disc_36():
    for prec in (128, 256, 1024, 4096):
        val = j_of_lattice(LAT_3I, prec).to_mpc()
        with mp.workprec(prec + 64):
            expected = 76771008 + 44330496 * mpmath.sqrt(3)
            assert abs(val - expected) < abs(expected) * mpmath.mpf(2) ** (8 - prec), prec


def test_j_of_lattice_homothety_invariance():
    lat = parse_lattice("⟨3+0*sqrt(-1), 1+2*sqrt(-1)⟩")
    scaled = lat.scaled(QuadElem.make(GAUSS, 7, 5))
    a = j_of_lattice(lat, 192).to_mpc()
    b = j_of_lattice(scaled, 192).to_mpc()
    assert abs(a - b) < (1 + abs(a)) * mpmath.mpf(2) ** -160


def _kleinj_oracle(lat, prec):
    """1728 J(tau) by mpmath's theta functions at 2 prec + 64 bits, from the
    unreduced period ratio (j is SL2(Z)-invariant)."""
    tau = lat.tau
    with mp.workprec(2 * prec + 64):
        im = mpmath.mpf(tau.y.numerator) / tau.y.denominator * mpmath.sqrt(-tau.field.d)
        z = mpmath.mpc(mpmath.mpf(tau.x.numerator) / tau.x.denominator, im)
        return 1728 * mpmath.kleinj(z)


def _lemma_lattices():
    """The 13 appendix lattices and a seeded sample of reduced forms, |D| <= 20000."""
    lats = [parse_lattice(rec["lattice"]) for rec in analytic.appendix_fixtures()]
    rng = random.Random(2718)
    while len(lats) < 21:
        D = -rng.randrange(3, 20001)
        if D % 4 in (0, 1):
            lats.append(form_to_lattice(rng.choice(enumerate_reduced(D))))
    return lats


@pytest.mark.parametrize("prec", [128, 256, 1024, 4096])
def test_j_error_lemma_against_kleinj(prec):
    # the lemma in j_of_lattice's docstring: |j~ - j| <= 2^(1-prec) (1 + |j|)
    for lat in _lemma_lattices():
        exact = _kleinj_oracle(lat, prec)
        value = j_of_lattice(lat, prec)
        with mp.workprec(2 * prec + 64):
            err = abs(mpmath.mpc(value.re, value.im) - exact)
            assert err <= mpmath.mpf(2) ** (1 - prec) * (1 + abs(exact)), (str(lat), prec)


def test_j_kernel_never_calls_kleinj(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mpmath.kleinj called")

    monkeypatch.setattr(mpmath, "kleinj", refuse)
    assert hilbert_class_polynomial(-1155, 128).degree == len(enumerate_reduced(-1155))
    assert abs(j_of_lattice(LAT_3I, 256).to_mpc() - 153553679.396728) < 1e-6


def test_j_kernel_runs_without_libmp_exponentials_and_constants(monkeypatch):
    from mpmath.libmp import libelefun

    def refuse(*args, **kwargs):
        raise AssertionError("libmp exponential or constant called")

    # libmp's mpf_exp and mpf_cos_sin read these names from libelefun's globals
    for name in ("exponential_series", "pi_fixed", "ln2_fixed"):
        monkeypatch.setattr(libelefun, name, refuse)
    assert hilbert_class_polynomial(-1155, 128).degree == len(enumerate_reduced(-1155))
    assert abs(j_of_lattice(LAT_3I, 256).to_mpc() - 153553679.396728) < 1e-6


def _scaled(x, p):
    """x 2^p, for an mpmath value x at the working precision."""
    return x * mpmath.mpf(2) ** p


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    p=st.integers(64, 8192),
    share=st.fractions(0, 1, max_denominator=2**40),
    x=st.fractions(-3, 3, max_denominator=10**6),
)
@example(p=64, share=F(0), x=F(1, 8))
@example(p=8192, share=F(1), x=F(-1, 2))
def test_fixed_point_routines_against_mpmath(p, share, x):
    # each routine against mpmath at 32 more bits, within its docstring's ulps
    slack = mpmath.mpf(2) ** -20
    with mp.workprec(p + 32):
        for value, constant in ((analytic._PI(p), mpmath.pi), (analytic._LN2(p), mpmath.ln2)):
            assert -slack < _scaled(constant, p) - value < 1 + slack, p  # floor(c 2^p)
        ln2, pi = mpmath.ln2, mpmath.pi
        for hyperbolic, low, high, even, odd in (
            (True, ln2, 2 * ln2, mpmath.cosh, mpmath.sinh),
            (False, pi / 4, 3 * pi / 4, mpmath.cos, mpmath.sin),
        ):
            y = int(mpmath.floor(_scaled(low + (high - low) * share, p)))
            c, s = analytic._cos_sin(y, p, hyperbolic)
            exact = mpmath.mpf(y) / 2**p
            assert abs(c - _scaled(even(exact), p)) < 2 + slack, (p, hyperbolic)
            assert abs(s - _scaled(odd(exact), p)) < 2 + slack, (p, hyperbolic)
        c, s = analytic._unit(x, p)
        angle = 2 * pi * mpmath.mpf(x.numerator) / x.denominator
        if (4 * x).denominator == 1:  # a power of i, exactly
            cos, sin = [(1, 0), (0, 1), (-1, 0), (0, -1)][int(4 * x) % 4]
            assert (c, s) == (cos << p, sin << p)
        assert abs(c - _scaled(mpmath.cos(angle), p)) < 4 + slack, (p, x)
        assert abs(s - _scaled(mpmath.sin(angle), p)) < 4 + slack, (p, x)


def test_constant_memo_is_bit_identical_under_a_race(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    precs = list(range(64, 20000, 487))
    monkeypatch.setattr(analytic._PI, "_memo", (0, 0))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the memo reads too
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda: [analytic._PI(p) for p in precs]) for _ in range(8)]
            threaded = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    # from an empty memo, rising and then falling: every value is floor(pi 2^p)
    analytic._PI._memo = (0, 0)
    rising = [analytic._PI(p) for p in precs]
    analytic._PI._memo = (0, 0)
    falling = [analytic._PI(p) for p in reversed(precs)][::-1]
    assert threaded == [rising] * 8
    assert falling == rising


def test_constant_sums_again_until_its_floor_is_certain(monkeypatch):
    calls = []
    real = analytic._arccot_sum

    def loose(terms, bits, hyperbolic):
        total, bound = real(terms, bits, hyperbolic)
        calls.append(bits)
        # the first bound straddles a multiple of 2^32, the first guard
        return total, bound << 40 if len(calls) == 1 else bound

    monkeypatch.setattr(analytic, "_arccot_sum", loose)
    pi = analytic._Constant(((16, 5), (-4, 239)), hyperbolic=False)
    with mp.workprec(200):
        assert pi(100) == int(mpmath.floor(_scaled(mpmath.pi, 100)))
    assert len(calls) == 2 and calls[1] == calls[0] + 32


_BIG = st.integers(0, 5000).flatmap(lambda n: st.integers(1 - (1 << n), (1 << n) - 1))
_GAUSSIAN = st.tuples(_BIG, _BIG)


@given(_GAUSSIAN, _GAUSSIAN, st.integers(0, 200))
@example((3, -5), (-7, 2), 0)
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_products_shift_the_four_product_integers(a, b, w):
    # the lemma's floors are those of the schoolbook product: same integers, same shifts
    (ar, ai), (br, bi) = a, b
    assert analytic._mul(a, b, w) == ((ar * br - ai * bi) >> w, (ar * bi + ai * br) >> w)
    assert analytic._sqr(a, w) == analytic._mul(a, a, w)


@given(_BIG, _BIG, st.integers(0, 200))
@example(3, -5, 0)
@example(0, 7, 2)
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_real_products_equal_the_three_product_formula(ar, br, w):
    # _mul's one-product case on real operands gives Gauss's integers bit for bit
    ai = bi = 0
    rr, ii = ar * br, ai * bi
    assert analytic._mul((ar, ai), (br, bi), w) == (
        (rr - ii) >> w, ((ar + ai) * (br + bi) - rr - ii) >> w
    )
    assert analytic._sqr((ar, ai), w) == (((ar + ai) * (ar - ai)) >> w, (2 * ar * ai) >> w)


@pytest.mark.parametrize("prec", [128, 1024, 4096])
def test_real_q_gives_j_with_zero_imaginary_part(prec):
    # Re tau = 0 (b = 0) or 1/2 (b = a): q is real, and so is every product
    forms = [f for f in J_FORMS if f.b in (0, f.a)]
    assert len(forms) == 4
    for form in forms:
        j = j_of_lattice(form_to_lattice(form), prec)
        assert j.im._mpf_ == mpmath.libmp.fzero, (form, prec)
        assert j.re != 0


def _pentagonal_terms(last):
    """Number of terms q^g, 1 <= g <= last, of Euler's pentagonal series."""
    count, k = 0, 1
    while k * (3 * k - 1) // 2 <= last:
        count += 1 + (k * (3 * k + 1) // 2 <= last)
        k += 1
    return count


@pytest.mark.parametrize("prec", [128, 1024, 4096])
@pytest.mark.parametrize("log2_modulus", [None, -40])
def test_euler_series_against_q_pochhammer(prec, log2_modulus):
    # E(q) = (q; q)_inf = (1 - q) (q^2; q)_inf: mpmath.qp(q) would sum the
    # pentagonal series, and qp(q^2, q) multiplies out the product instead.
    # Each series must be within (2n + 1) u, the bound of j_of_lattice's lemma,
    # at |q| = lam = e^(-pi sqrt 3), the largest the lemma allows, and a small |q|
    w = prec + analytic._FIXED_GUARD_BITS
    with mp.workprec(2 * w):
        lam = mpmath.exp(-mpmath.pi * mpmath.sqrt(3))
        modulus = lam if log2_modulus is None else mpmath.mpf(2) ** log2_modulus
        z = modulus * mpmath.expjpi(mpmath.mpf(0.6180339887))
        q = int(mpmath.floor(z.real * 2**w)), int(mpmath.floor(z.imag * 2**w))
        exact_q = mpmath.mpc(*q) / 2**w
        bits = -mpmath.log(abs(exact_q), 2)
        last = int(mpmath.ceil((w + 1) / (bits * (1 - mpmath.mpf(2) ** -30))))
        bound = (2 * _pentagonal_terms(last) + 1) * mpmath.mpf(2) ** -w
        products = [(1 - x) * mpmath.qp(x * x, x) for x in (exact_q, exact_q**2)]
        for series, exact in zip(analytic._euler(q, last, w), products):
            assert abs(mpmath.mpc(*series) / 2**w - exact) < bound, (prec, log2_modulus)


def test_verify_appendix_all_fixtures():
    results = verify_appendix(256)
    assert len(results) == 13
    assert all(r["matches_exact_value"] for r in results)
    assert all(r["reality_matches_class_order"] for r in results)


def test_verify_appendix_computes_each_j_once(monkeypatch):
    expected = verify_appendix(256)
    precs = []

    def counted(lat, prec=128):
        precs.append(prec)
        return j_of_lattice(lat, prec)

    monkeypatch.setattr(analytic, "j_of_lattice", counted)
    assert verify_appendix(256) == expected
    assert precs == [256 + 16] * 13


def test_verify_exact_rejects_wrong_value():
    def matches(expr, prec):
        return analytic._matches_exact(j_of_lattice(LAT_3I, prec + 16), expr, prec)

    assert matches("0", 128) is False
    assert matches("76771008 + 44330496*sqrt(3)", 192) is True


def test_doubling_precision_shrinks_error():
    with mp.workprec(1024):
        exact = 76771008 + 44330496 * mpmath.sqrt(3)
        e1 = abs(j_of_lattice(LAT_3I, 96).to_mpc() - exact)
        e2 = abs(j_of_lattice(LAT_3I, 192).to_mpc() - exact)
        assert e2 < e1 / mpmath.mpf(2) ** 48 or e2 == 0


def test_hilbert_class_polynomial_values():
    assert hilbert_class_polynomial(-4, 128).coefficients == (1, -1728)
    h36 = hilbert_class_polynomial(-36, 128)
    assert h36.coefficients == (1, -2 * 76771008, 76771008 ** 2 - 3 * 44330496 ** 2)
    # a requested precision below Enge's bound is raised to it
    h144 = hilbert_class_polynomial(-144, 64)
    assert h144.degree == 4
    assert h144 == hilbert_class_polynomial(-144, 256)


def test_hilbert_class_polynomial_exact_expansion_oracle():
    sympy = pytest.importorskip("sympy")
    X = sympy.symbols("X")
    sqrt3 = sympy.sqrt(3)
    r12 = sympy.root(12, 4)
    i = sympy.I
    zeta3 = sympy.Rational(-1, 2) + sympy.sqrt(3) * i / 2
    cbrt2 = sympy.root(2, 3)
    cases = {
        -4: [sympy.Integer(1728)],
        -36: [76771008 + 44330496 * sqrt3, 76771008 - 44330496 * sqrt3],
        -144: [
            5894625992142600 + 3403263903336192 * sqrt3 + 3167093925247392 * r12 + 914261265145368 * r12 ** 3,
            5894625992142600 - 3403263903336192 * sqrt3 - i * (3167093925247392 * r12 - 914261265145368 * r12 ** 3),
            5894625992142600 - 3403263903336192 * sqrt3 + i * (3167093925247392 * r12 - 914261265145368 * r12 ** 3),
            5894625992142600 + 3403263903336192 * sqrt3 - 3167093925247392 * r12 - 914261265145368 * r12 ** 3,
        ],
        -108: [
            31710790944000 * cbrt2 ** 2 + 39953093016000 * cbrt2 + 50337742902000,
            31710790944000 * (zeta3 * cbrt2) ** 2 + 39953093016000 * zeta3 * cbrt2 + 50337742902000,
            31710790944000 * (zeta3 ** 2 * cbrt2) ** 2 + 39953093016000 * zeta3 ** 2 * cbrt2 + 50337742902000,
        ],
        -192: [
            820762881440077125 * sympy.sqrt(6) + 1160733998424384000 * sqrt3 + 1421603011620136125 * sympy.sqrt(2) + 2010450259344609000,
            -820762881440077125 * sympy.sqrt(6) - 1160733998424384000 * sqrt3 + 1421603011620136125 * sympy.sqrt(2) + 2010450259344609000,
            -820762881440077125 * sympy.sqrt(6) + 1160733998424384000 * sqrt3 - 1421603011620136125 * sympy.sqrt(2) + 2010450259344609000,
            820762881440077125 * sympy.sqrt(6) - 1160733998424384000 * sqrt3 - 1421603011620136125 * sympy.sqrt(2) + 2010450259344609000,
        ],
    }
    for D, roots in cases.items():
        poly = sympy.expand(sympy.prod([X - r for r in roots]))
        coeffs = []
        for c in sympy.Poly(poly, X).all_coeffs():
            c = sympy.simplify(sympy.expand(c))
            assert c.is_integer, (D, c)
            coeffs.append(int(c))
        assert hilbert_class_polynomial(D, 256).coefficients == tuple(coeffs), D


# sha256 of the comma-joined coefficients, from perfbench/classpoly_digests.json
# (computed there at Enge's bound + 64 bits and checked 64 bits higher)
DIGESTS_WRONG_FROM_128_BITS = {
    -1152: "e5de1376ce3abe96195d6093ce133ea948c64d2d52b35252b968477f25a25e77",
    -1320: "d5827d747a51cb240c414d669bb4b1f2a3bb44f9f2781d8f2a1dc5617b9853fe",
    -1363: "82406a6d8ce90fb4058184b40ed23a78c413b80572dfbc134f6884109d2ec77a",
    -1395: "0bcf736fe48ff41a2a06a0033c4569522ff0db5321d7606057cf1247aece9c94",
    -1603: "be191b7a83ea078ba4b3bfbe3821779f3486e3c78050437b80ef26d7851f9074",
}


def test_hilbert_class_polynomial_at_default_precision_matches_digests():
    # coefficients wider than 128 + guard bits used to round to wrong integers
    for D, expected in DIGESTS_WRONG_FROM_128_BITS.items():
        coeffs = hilbert_class_polynomial(D, 128).coefficients
        assert hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest() == expected, D
        assert is_plausible_class_polynomial(D, list(coeffs)), D
        assert not is_plausible_class_polynomial(D, [*coeffs[:-1], coeffs[-1] + 1]), D


class _WideInt:
    """An integer type that is not int and keeps its type under arithmetic, as
    gmpy2.mpz does: mpmath's gmpy backend stores mantissas as mpz, and
    to_fixed hands them out."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = int(v)

    def __int__(self):
        return self.v

    __index__ = __int__

    def __neg__(self):
        return _WideInt(-self.v)

    def __abs__(self):
        return _WideInt(abs(self.v))


for _name in ("add", "sub", "mul", "floordiv", "mod", "lshift", "rshift"):
    _op = getattr(operator, _name)
    setattr(_WideInt, f"__{_name}__", lambda a, b, op=_op: _WideInt(op(a.v, int(b))))
    setattr(_WideInt, f"__r{_name}__", lambda a, b, op=_op: _WideInt(op(int(b), a.v)))
for _name in ("eq", "ne", "lt", "le", "gt", "ge"):
    setattr(_WideInt, f"__{_name}__", lambda a, b, op=getattr(operator, _name): op(a.v, int(b)))


def test_class_polynomial_coefficients_are_int_on_any_mpmath_backend(monkeypatch, capsys):
    expected = hilbert_class_polynomial(-71).coefficients
    to_fixed = analytic.to_fixed
    monkeypatch.setattr(analytic, "to_fixed", lambda s, prec: _WideInt(to_fixed(s, prec)))
    monkeypatch.delenv("WJ_CACHE", raising=False)
    coefficients = hilbert_class_polynomial(-71).coefficients
    assert all(type(c) is int for c in coefficients)
    assert coefficients == expected
    # a coefficient that is not an int fails json.dumps, and hcp would exit 1
    assert cli.main(["hcp", "-D", "-71"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["coefficients"] == list(expected)


def test_class_polynomial_check_rejects_wrong_polynomials():
    h23 = [1, 3491750, -5151296875, 12771880859375]
    assert split_prime(-23) == 59  # 6^2 + 23
    assert split_prime(-4) == 5 and split_prime(-3) == 7
    assert is_plausible_class_polynomial(-23, h23)
    assert not is_plausible_class_polynomial(-23, [1, 0, 0, 1])  # one root mod 59
    assert not is_plausible_class_polynomial(-23, [2, *h23[1:]])  # not monic
    assert not is_plausible_class_polynomial(-23, h23[:-1])  # degree 2, h = 3
    assert not is_plausible_class_polynomial(-23, [1, 0, 0, 0])  # a triple root


def test_hilbert_class_polynomial_evaluates_one_j_per_conjugate_pair(monkeypatch):
    calls = []

    def counting_j(lat, prec=128):
        calls.append(lat)
        return j_of_lattice(lat, prec)

    monkeypatch.setattr(analytic, "j_of_lattice", counting_j)
    D = -1603
    coeffs = hilbert_class_polynomial(D, 128).coefficients
    forms = enumerate_reduced(D)
    assert len(calls) == sum(f.b >= 0 for f in forms) < len(forms)
    assert hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest() == (
        DIGESTS_WRONG_FROM_128_BITS[D]
    )


def test_hilbert_class_polynomial_rejects_nonreal_ambiguous_j(monkeypatch):
    # the real expansion reads only Re j of an ambiguous form, so its reality
    # test is the one place a spurious imaginary part can show; a failure at
    # the proven precision is a defect, raised after one round
    ambiguous = form_to_lattice(Form(1, 0, 36))
    calls = []

    def perturbed_j(lat, prec=128):
        calls.append(prec)
        value = j_of_lattice(lat, prec)
        if lat == ambiguous:
            with mp.workprec(prec):
                value = PrecComplex.from_mpc(value.to_mpc() + 1j * mpmath.mpf(2) ** -20, prec)
        return value

    monkeypatch.setattr(analytic, "j_of_lattice", perturbed_j)
    prec = analytic.start_precision(-144, 128)
    with pytest.raises(RuntimeError, match=f"reality test at {prec} bits"):
        hilbert_class_polynomial(-144, 128)
    assert calls == [prec] * sum(f.b >= 0 for f in enumerate_reduced(-144))


def _evaluate(poly, z):
    """poly(z) by Horner's rule at z's precision."""
    with mp.workprec(z.prec):
        zc = z.to_mpc()
        acc = mpmath.mpc(0)
        for c in poly.coefficients:
            acc = acc * zc + c
    return PrecComplex.from_mpc(acc, z.prec)


def test_hilbert_polynomial_roots_evaluate_small():
    # scale = size of the largest Horner term; the bare coefficients are far
    # smaller than c_k * |j|^(deg-k) and the residual is P'(j) * root error
    for D in (-36, -108, -144):
        poly = hilbert_class_polynomial(D, 256)
        deg = poly.degree
        for f in enumerate_reduced(D):
            root = j_of_lattice(form_to_lattice(f), 256)
            residual = _evaluate(poly, root)
            with mp.workprec(320):
                mag = max(abs(root.to_mpc()), mpmath.mpf(1))
                scale = max(abs(c) * mag ** (deg - k) for k, c in enumerate(poly.coefficients))
                assert abs(residual.to_mpc()) < mpmath.mpf(2) ** -240 * scale


def test_hilbert_class_polynomial_precision_exhausted(monkeypatch):
    from weightjac import analytic as analytic_module
    from weightjac.errors import PrecisionExhausted

    # Enge's bound puts H_-1999 far above a 64-bit cap: it fails before any j
    # is evaluated
    monkeypatch.setattr(analytic_module, "_PRECISION_CAP", 64)
    calls = []
    real_j = analytic_module.j_of_lattice

    def counted_j(*args):
        calls.append(args)
        return real_j(*args)

    monkeypatch.setattr(analytic_module, "j_of_lattice", counted_j)
    with pytest.raises(PrecisionExhausted, match="above the 64-bit cap"):
        analytic_module.hilbert_class_polynomial(-1999, 64)
    assert calls == []


def test_hilbert_class_polynomial_catches_a_start_below_the_bound(monkeypatch):
    # without Enge's bound, 64 bits cannot certify H_-144 or H_-1999: the size
    # bound refuses after one j per form with b >= 0, and nothing doubles
    monkeypatch.setattr(analytic, "start_precision", lambda D, prec: prec)
    calls = []

    def counting_j(lat, prec=128):
        calls.append(prec)
        return j_of_lattice(lat, prec)

    monkeypatch.setattr(analytic, "j_of_lattice", counting_j)
    for D in (-144, -1999):
        calls.clear()
        with pytest.raises(RuntimeError, match="size bound at 64 bits"):
            hilbert_class_polynomial(D, 64)
        assert calls == [64] * sum(f.b >= 0 for f in enumerate_reduced(D)), D


def test_j_is_real_examples():
    assert j_is_real(LAT_3I, 192) is True
    assert j_is_real(parse_lattice("⟨3+0*sqrt(-1), 1+2*sqrt(-1)⟩"), 192) is False
    assert j_is_real(parse_lattice("⟨4+0*sqrt(-3), 2+1*sqrt(-3)⟩"), 192) is True


def test_j_is_real_matches_class_order_sampled():
    rng = random.Random(317)
    checked = 0
    while checked < 40:
        D = -rng.randrange(3, 800)
        if D % 4 not in (0, 1):
            continue
        for f in enumerate_reduced(D):
            lat = form_to_lattice(f)
            assert j_is_real(lat, 160) == (element_order(f) <= 2)
        checked += 1


def test_expression_language():
    with mp.workprec(200):
        z = evaluate_expression("zeta3^3", 128).to_mpc()
        assert abs(z - 1) < mpmath.mpf(2) ** -100
        v = evaluate_expression("2*(3 - sqrt(4))^2 - cbrt(27)", 128).to_mpc()
        assert abs(v - (-1)) < mpmath.mpf(2) ** -100
        w = evaluate_expression("root4(16) + sqrt(-1)", 128).to_mpc()
        assert abs(w - mpmath.mpc(2, 1)) < mpmath.mpf(2) ** -100
        assert evaluate_expression("2^-1", 128).to_mpc() == mpmath.mpf(1) / 2
        assert evaluate_expression("2^(3)", 128).to_mpc() == 8
        assert evaluate_expression(" 2*-3^2 +\n 1", 128).to_mpc() == -17
    bad = ["sqrt(2) +", "frob(2)", "2^x", "sqrt(2,3)", "zeta3(2)", "1.5", "0x10", "1_0", "True"]
    for expr in bad + ["2**3", "007", "sqrt(sqrt(2))"]:
        with pytest.raises(ParseError):
            evaluate_expression(expr, 128)
    with pytest.raises(DivisionByZero):
        evaluate_expression("0^-1", 128)


def _bits(value):
    """Everything a result carries: PrecComplex parts, or coefficients and prec."""
    if isinstance(value, PrecComplex):
        return value.re._mpf_, value.im._mpf_, value.prec
    return value.coefficients, value.prec


def _assert_threads_match_serial(jobs):
    from concurrent.futures import ThreadPoolExecutor

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the memo reads too
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda job: job[0](*job[1:]), jobs * 2))
    finally:
        sys.setswitchinterval(interval)
    serial = [_bits(fn(*args)) for fn, *args in jobs]
    for k, value in enumerate(threaded):
        assert _bits(value) == serial[k % len(jobs)], jobs[k % len(jobs)]


def test_concurrent_evaluation_is_bit_identical():
    forms = [f for D in (-36, -144, -108, -192) for f in enumerate_reduced(D)]
    lats = [form_to_lattice(f) for f in forms]
    # rising precisions, threaded first: the threads raise mpmath's memos of
    # pi and log 2 while others read them, and the serial reference comes after
    jobs = [(j_of_lattice, lat, prec) for prec in (192, 640, 2048, 8192) for lat in lats]
    # from 128 bits, -1155 and -1320 start at Enge's bound, 361 and 460 bits
    Ds = (-1155, -1320, -108, -192)
    _assert_threads_match_serial(jobs + [(hilbert_class_polynomial, D, 128) for D in Ds])
    # and the threads meet at 512 bits, above every one of these bounds
    _assert_threads_match_serial([(hilbert_class_polynomial, D, 512) for D in Ds])


def _mpmath_size_threshold(roots, paired):
    """The least prec that the earlier size test of _expand_pairs, on
    mpmath's global context, accepts: mag(size) + ceil(log2 h) + 12 < prec."""
    h = len(roots) + sum(paired)
    size = mpmath.mpf(1)
    with mp.workprec(53):
        for r, pair in zip(roots, paired):
            factor = 1 + mpmath.hypot(r.re, r.im)
            size *= factor * factor if pair else factor
    return mpmath.mag(size) + (h - 1).bit_length() + 13


def _class_roots(D):
    upper = [f for f in enumerate_reduced(D) if f.b >= 0]
    prec = analytic.start_precision(D)
    roots = [j_of_lattice(form_to_lattice(f), prec) for f in upper]
    return roots, [0 < f.b < f.a < f.c for f in upper]


def _near_power_of_two_roots():
    """A real and a paired root just below 2^54: the 53-bit size rounded down
    instead of to nearest loses one bit of magnitude and moves the threshold."""
    n = 2**54 - 1
    below = mpmath.mpf(n, prec=54)
    roots = [PrecComplex(below, mpmath.mpf(0), 256), PrecComplex(below, mpmath.mpf(1), 256)]
    return roots, [False, True], (1, -3 * n, 3 * n * n + 1, -n * (n * n + 1))


@pytest.mark.parametrize("D", [-1155, -1320, -1603, None])
def test_expand_pairs_decides_like_the_mpmath_size_test(D):
    if D is None:
        roots, paired, expected = _near_power_of_two_roots()
    else:
        roots, paired = _class_roots(D)
        expected = hilbert_class_polynomial(D).coefficients
    threshold = _mpmath_size_threshold(roots, paired)
    assert threshold <= min(r.prec for r in roots)
    with pytest.raises(RuntimeError, match=f"size bound at {threshold - 1} bits"):
        analytic._expand_pairs(roots, paired, threshold - 1)
    assert analytic._expand_pairs(roots, paired, threshold) == expected


def test_expansion_and_embedding_take_no_lock():
    import threading

    roots, paired = _class_roots(-1155)
    prec = roots[0].prec
    lats = [form_to_lattice(f) for f in enumerate_reduced(-1155)]

    def work():
        return (
            analytic._expand_pairs(roots, paired, prec),
            [analytic._is_real(r) for r in roots],
            [lat.tau.embed(p)._mpc_ for lat in lats for p in (64, prec, 4096)],
            [_bits(j_of_lattice(lat, p)) for lat in lats for p in (128, prec)],
            _bits(evaluate_expression("76771008 + 44330496*sqrt(3)", 256)),
            verify_appendix(128),
        )

    expected = work()
    held, release = threading.Event(), threading.Event()

    def holder():
        # another thread at a working precision of its own, in mpmath's
        # process-wide context
        with mp.workprec(20):
            held.set()
            release.wait(60)

    results = []
    other = threading.Thread(target=holder)
    other.start()
    assert held.wait(60)
    worker = threading.Thread(target=lambda: results.append(work()))
    worker.start()
    worker.join(30)
    finished = not worker.is_alive()
    release.set()
    other.join(60)
    worker.join(60)
    assert finished, "the worker waited for the other thread"
    assert results == [expected]


def test_prec_complex_tracks_minimum_precision():
    with pytest.raises(ValueError):
        PrecComplex.from_mpc(mpmath.mpc(0), 32)


def test_low_precision_is_refused_on_entry(monkeypatch):
    # a negative prec once spun in libmp's rounding without end, so the calls
    # run in a child with a timeout
    script = """
from weightjac import analytic
from weightjac.cmlattice import parse_lattice
lat = parse_lattice('<1;3*sqrt(-1)>@-1')
for call in (
    lambda: analytic.j_of_lattice(lat, -5),
    lambda: analytic.evaluate_expression('1+sqrt(3)', -20),
    lambda: analytic.verify_appendix(-20),
):
    try:
        call()
    except ValueError as exc:
        print(exc)
"""
    out = subprocess.run(
        [sys.executable, "-c", script], env=child_env(), capture_output=True, text=True, timeout=30
    )
    assert out.stdout.splitlines() == ["prec must be at least 64"] * 3, out.stderr
    # from 0 to 63 bits too the refusal comes before any work
    def no_work(*args):
        raise AssertionError("work began below 64 bits")

    monkeypatch.setattr(analytic, "fundamental_domain_exact", no_work)
    monkeypatch.setattr(analytic, "_evaluate", no_work)
    for prec in (0, 63):
        with pytest.raises(ValueError, match="at least 64"):
            j_of_lattice(LAT_3I, prec)
        with pytest.raises(ValueError, match="at least 64"):
            evaluate_expression("1+sqrt(3)", prec)
