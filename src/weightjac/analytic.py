"""High-precision j-invariants and Hilbert class polynomials.

j is evaluated from the eta quotient (eta(tau)/eta(2 tau))^24 on fixed-point
Gaussian integers, after exact fundamental-domain reduction of a lattice's
period ratio (through binforms.reduce).  eta^3 comes from Jacobi's series
S(q) = sum (-1)^n (2n + 1) q^(n(n+1)/2) = prod (1 - q^k)^3, and one pass over
its terms also sums S(q^2) from their squares; their 8th powers take three
squarings each.  A Gaussian product takes three big-integer products and a
square two.  q = e^(2 pi i tau) is built on integers too: pi and log 2 come
from Machin-type arctangent series, each memoised as one exact fixed-point
int (_Constant), e^(2 pi Im tau) from an even Taylor series with doubling
(_cos_sin), and the unit e^(2 pi i Re tau) from _unit, whose memo holds exact
floors keyed by Re tau alone.  Nothing in the j kernel reads libmp's
process-wide memos, and no memo here takes a lock: each holds exact floors,
so what it returns does not depend on what it held.  The docstring of
j_of_lattice proves its error bound.  Class polynomials come from the real
root product over conjugate pairs of reduced forms of the discriminant, one
j per pair, at one precision: Enge's a-priori bound on the coefficient size
plus guard bits, which _expand_pairs proves always passes its a-posteriori
error bound.  The expansion runs on fixed-point integers; the embedding of
tau, the reality test, the size bound and the appendix check
(evaluate_expression, _matches_exact) call libmp at explicit precisions and
never mpmath's global context.
"""

from __future__ import annotations

import ast
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

import mpmath
from mpmath import mp
from mpmath.libmp import (
    fnone, fone, from_int, from_man_exp, fzero, mpc_abs, mpc_add, mpc_div, mpc_mul, mpc_neg,
    mpc_nthroot, mpc_pos, mpc_sub, mpf_abs, mpf_add, mpf_hypot, mpf_lt, mpf_mul, mpf_pos, mpf_shift,
    mpf_sqrt, round_nearest, to_fixed,
)

from .binforms import Form, _order_at_most_two, enumerate_reduced, reduce, validate_discriminant
from .cmlattice import CMLattice, form_to_lattice, ideal_class, parse_lattice
from .errors import DivisionByZero, LowerHalfPlane, ParseError, PrecisionExhausted
from .quadfield import _MIN_PREC, QuadElem, _require_prec, factorize

_GUARD_BITS = 48
_FIXED_GUARD_BITS = 64
_PRECISION_CAP = 1 << 16


@dataclass(frozen=True, slots=True)
class PrecComplex:
    """A complex value carried together with its precision in bits."""

    re: mpmath.mpf
    im: mpmath.mpf
    prec: int

    def __post_init__(self):
        _require_prec(self.prec)

    @classmethod
    def from_mpc(cls, z, prec: int) -> "PrecComplex":
        """z with each part rounded to nearest at prec bits."""
        z = mp.convert(z)
        parts = z._mpc_ if hasattr(z, "_mpc_") else (z._mpf_, fzero)
        re, im = (mp.make_mpf(mpf_pos(x, prec, round_nearest)) for x in parts)
        return cls(re, im, prec)

    def to_mpc(self) -> mpmath.mpc:
        # exact: the parts already have at most prec bits
        return mp.make_mpc((self.re._mpf_, self.im._mpf_))


def fundamental_domain_exact(tau: QuadElem) -> QuadElem:
    """Exact SL2(Z) reduction to |Re| <= 1/2, |tau| >= 1 (upper half-plane).

    Boundary convention: Re = +1/2 rather than -1/2, and Re >= 0 on the unit
    circle; every orbit has exactly one such representative.  The root of
    (a, -b, c) is -conj(tau), so the root (-r.b + sqrt(D))/(2 r.a) of its
    reduced form r, mirrored, is the representative with this convention.
    """
    if tau.y <= 0:
        raise LowerHalfPlane(f"{tau} is not in the upper half-plane")
    a, b, c = tau.minimal_polynomial()
    r = reduce(Form(a, -b, c))
    t = math.isqrt(r.discriminant // tau.field.d)  # sqrt(D) = t*sqrt(d)
    return QuadElem(tau.field, Fraction(r.b, 2 * r.a), Fraction(t, 2 * r.a))


def _mul(a: tuple[int, int], b: tuple[int, int], w: int) -> tuple[int, int]:
    """Product of two Gaussian integers read as fixed point with w fraction bits.

    Three big-integer products (Gauss): with rr = ar br and ii = ai bi,
    (ar + ai)(br + bi) - rr - ii = ar bi + ai br exactly, so the result is
    ((ar br - ai bi) >> w, (ar bi + ai br) >> w), bit for bit.  When ai = bi =
    0 that is ((ar br) >> w, 0), one product: j_of_lattice meets this case
    on every operand when q is real (Re tau is 0 or 1/2).
    """
    (ar, ai), (br, bi) = a, b
    if not ai and not bi:
        return (ar * br) >> w, 0
    rr, ii = ar * br, ai * bi
    return (rr - ii) >> w, ((ar + ai) * (br + bi) - rr - ii) >> w


def _sqr(a: tuple[int, int], w: int) -> tuple[int, int]:
    """_mul(a, a, w) from two big-integer products: (x + y)(x - y) = x^2 - y^2
    and 2 x y are exactly the integers that _mul shifts."""
    x, y = a
    return ((x + y) * (x - y)) >> w, (2 * x * y) >> w


def _jacobi(
    q: tuple[int, int], last: int, w: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """S(q) and S(q^2), where S(q) = sum over n >= 0 of (-1)^n (2n + 1)
    q^(n(n+1)/2), each over the exponents up to last, in fixed point with w
    fraction bits.

    Jacobi's identity makes S(q) = prod (1 - q^k)^3.  The term of S(q^2)
    with exponent 2g <= last is _sqr of the power q^g of S(q), with the same
    weight, so S(q^2) needs no recurrence of its own.  q^(n(n+1)/2) steps to
    the next exponent by q^(n+1), itself stepped by q.
    """
    re, im = re2, im2 = 1 << w, 0
    power = step = q  # q^g, g = n(n+1)/2, and q^n
    n, g, sign = 1, 1, -1
    while g <= last:
        weight = sign * (2 * n + 1)
        re, im = re + weight * power[0], im + weight * power[1]
        if 2 * g <= last:
            square = _sqr(power, w)
            re2, im2 = re2 + weight * square[0], im2 + weight * square[1]
        n, sign = n + 1, -sign
        g += n
        if g <= last:
            step = _mul(step, q, w)
            power = _mul(power, step, w)
    return (re, im), (re2, im2)


def _shift(x: int, n: int) -> int:
    """floor(x 2^n) for any integer n."""
    return x << n if n >= 0 else x >> -n


def _arccot_sum(terms: tuple[tuple[int, int], ...], bits: int, hyperbolic: bool) -> tuple[int, int]:
    """The sum of c arccot(m) (arccoth(m) if hyperbolic) over (c, m) in terms,
    times 2^bits, and a bound it is off by less than.

    arccot(m) = sum over odd j of (-1)^((j-1)/2) / (j m^j).  Since
    floor(floor(x) / n) = floor(x / n) for a positive integer n, power is
    floor(2^bits / m^j) exactly and each term floor(2^bits / (j m^j)), off by
    < 1; the terms left once power is 0 sum to < 1 / (1 - m^-2) < 1.1.  So
    each series is off by < its number of terms + 2.
    """
    total = bound = 0
    for c, m in terms:
        power, j, series = (1 << bits) // m, 1, 0
        while power:
            series += -(power // j) if j & 2 and not hyperbolic else power // j
            power //= m * m
            j += 2
        total += c * series
        bound += abs(c) * (j // 2 + 2)
    return total, bound


def _floors(approx, bits: int) -> tuple[int, ...]:
    """floor(v 2^bits), exactly, for each real value v that approx estimates.

    approx(b) returns integers, each off from its v 2^b by less than the
    bound it returns with them.  At bits + g bits, when every x - bound and
    x + bound floor to the same integer at bits (Ziv's test), v 2^(bits+g),
    which lies strictly between them, floors to it too; else g grows by 32.
    The test never passes when some v 2^bits is an integer, so a v with
    finitely many bits needs an exact route of its own.
    """
    guard = 32
    while True:
        values, bound = approx(bits + guard)
        floors = tuple((x - bound) >> guard for x in values)
        if floors == tuple((x + bound) >> guard for x in values):
            return floors
        guard += 32


class _Constant:
    """floor(c 2^p), exactly, for a constant c given by a Machin-type formula.

    The value is memoised as one immutable (bits, floor(c 2^bits)) pair, at
    the highest precision asked for so far (with a margin); a lower p shifts
    it down, which gives floor(c 2^p) again.  A new memo sums the series with
    guard bits until its floor is certain (_floors), so every thread computes
    the same value, and two threads that race store equal pairs or a lower
    one: no lock is needed.
    """

    def __init__(self, terms: tuple[tuple[int, int], ...], hyperbolic: bool):
        self._terms, self._hyperbolic = terms, hyperbolic
        self._memo = (0, 0)

    def __call__(self, p: int) -> int:
        bits, value = self._memo
        if p > bits:
            bits = p + (p >> 4) + 64
            (value,) = _floors(self._sum, bits)
            if bits > self._memo[0]:
                self._memo = bits, value
        return value >> (bits - p)

    def _sum(self, bits: int) -> tuple[tuple[int], int]:
        total, bound = _arccot_sum(self._terms, bits, self._hyperbolic)
        return (total,), bound


# Machin: pi = 16 arctan(1/5) - 4 arctan(1/239); ln 2 = 18 artanh(1/26) -
# 2 artanh(1/4801) + 8 artanh(1/8749)
_PI = _Constant(((16, 5), (-4, 239)), hyperbolic=False)
_LN2 = _Constant(((18, 26), (-2, 4801), (8, 8749)), hyperbolic=True)


def _cos_sin(x: int, p: int, hyperbolic: bool) -> tuple[int, int]:
    """(cos y, sin y), or (cosh y, sinh y) if hyperbolic, for y = x 2^-p, as
    integers scaled by 2^p, each within 2 ulps (2^(1-p)).  y must lie in
    [pi/4, 3 pi/4], or in [0.69, 1.39] if hyperbolic, where the odd part is
    well conditioned.

    libmp's exponential_series on integers, at wp = p + g fraction bits with
    g = 2k + bitlen(p) + 6: y is halved k = isqrt(p)/4 + 2 times (exactly;
    fewer than libmp's sqrt(p)/2, which measured slower), the even series
    sum (-+1)^i (y/2^k)^(2i) / (2i)! is summed by rectangular splitting over
    m powers of (y/2^k)^2, c -> 2c^2 - 1 doubles it back k times, and the
    odd part is isqrt(|c^2 - 1|).  The series is off by < 2 ulps (at wp) per
    term, plus m + 3, which is < 5p.  A doubling multiplies an error by
    4|c| (1 + 2^-p) and adds < 1; the product of the |c| is at most 1 for cos
    and sinh(y) / (2^k sinh(y/2^k)) <= sinh(y) / y < 1.37 for cosh, so c ends
    within 1.4 4^k (5p + 1).  The odd part adds |c| / s <= max(1, coth 0.69)
    < 1.68 times that, plus 1.  Both are within 2.4 4^k (5p + 1) + 1 <
    2^(g-1) ulps at wp, so floored to p bits within 1.5 ulps.
    """
    k = math.isqrt(p) // 4 + 2
    g = 2 * k + p.bit_length() + 6
    wp = p + g
    one = 1 << wp
    x <<= g - k
    x2 = (x * x) >> wp
    powers = [one, x2]
    for _ in range(max(2, int(0.3 * p**0.35)) - 1):
        powers.append((powers[-1] * x2) >> wp)
    sums = [0] * (len(powers) - 1)
    a, j = x2, 2
    while a:
        for i in range(len(sums)):
            a //= (j - 1) * j
            sums[i] += a if hyperbolic or not j & 2 else -a
            j += 2
        a = (a * powers[-1]) >> wp
    c = one + sum((total * power) >> wp for total, power in zip(sums, powers))
    for _ in range(k):
        c = ((c * c) >> (wp - 1)) - one
    s = math.isqrt(abs(c * c - (one << wp)))
    return c >> g, s >> g


def _unit_near(x: Fraction, p: int) -> tuple[tuple[int, int], int]:
    """cos and sin of 2 pi x, as integers scaled by 2^p, each within 4 ulps,
    and that bound, for 4x not an integer.

    2 pi x = (pi/2)(k + f), k = floor(4x - 1/2), so 1/2 <= f < 3/2 and the
    unit is i^k times cos + i sin of pi f / 2 in [pi/4, 3 pi/4).  That angle,
    floor(floor(pi 2^p) f / 2), is within 1.75 ulps, which moves cos and sin
    by as much, and _cos_sin adds < 2.
    """
    num, den = 4 * x.numerator, x.denominator
    k = (2 * num - den) // (2 * den)
    num -= k * den
    c, s = _cos_sin(_PI(p) * num // (2 * den), p, hyperbolic=False)
    for _ in range(k % 4):
        c, s = -s, c
    return (c, s), 4


def _twelfth(t: int, p: int) -> int:
    """floor(cos(pi t / 6) 2^p), exactly, for an integer t: cos^2 is m/4 for
    m = (4, 3, 1, 0, 1, 3)[t % 6], so the floor is a signed integer root."""
    n = (4, 3, 1, 0, 1, 3)[t % 6] << (2 * p - 2)
    root = math.isqrt(n)
    return root if t % 12 in (0, 1, 2, 10, 11) else -root - (root * root != n)


# Re tau -> (bits, floor(cos 2 pi Re tau 2^bits), floor(sin 2 pi Re tau 2^bits))
_UNITS: dict[Fraction, tuple[int, int, int]] = {}
_UNIT_SLOTS = 512


def _unit(x: Fraction, p: int) -> tuple[int, int]:
    """floor(cos(2 pi x) 2^p) and floor(sin(2 pi x) 2^p), exactly, so each
    within 1 ulp and a function of (x, p) alone.

    When 12x is an integer, cos and sin lie in {0, +-1/2, +-sqrt(3)/2, +-1}
    (_twelfth).  Otherwise neither is a rational (Niven), so neither has
    finitely many bits, and Ziv's test (_floors) settles on _unit_near.  The
    floors are memoised in _UNITS, keyed by x, at the highest precision asked
    for so far with a margin, as _Constant memoises pi; a lower p shifts them
    down, which gives the floors at p again.  The memo holds at most
    _UNIT_SLOTS entries (plus one per thread inserting at the same moment),
    is emptied when full, and stores nothing asked for at a p above the one
    j_of_lattice uses at the _PRECISION_CAP-bit cap, so at most 512 pairs of
    69,772-bit floors, about 9 MB.  Threads that race compute equal floors
    and at worst store a lower precision or lose an entry, which costs a
    later call a recomputation and changes no value: no lock is needed.
    """
    t = 12 * x
    if t.denominator == 1:
        return _twelfth(int(t), p), _twelfth(int(t) - 3, p)
    memo = _UNITS.get(x)
    if memo is None or memo[0] < p:
        bits = p + (p >> 4) + 64
        memo = bits, *_floors(lambda b: _unit_near(x, b), bits)
        if p <= _PRECISION_CAP + _FIXED_GUARD_BITS + 8:
            if len(_UNITS) >= _UNIT_SLOTS:
                _UNITS.clear()
            _UNITS[x] = memo
    bits, c, s = memo
    return c >> (bits - p), s >> (bits - p)


def j_of_lattice(lat: CMLattice, prec: int = 128) -> PrecComplex:
    """j of the homothety class, from the eta quotient on fixed-point integers.

    tau is reduced exactly (fundamental_domain_exact), so Im tau >= sqrt(3)/2
    and q = e^(2 pi i tau) has |q| <= lam = e^(-pi sqrt 3) < 2^-7.85.  With
    E(q) = prod (1 - q^k), R = (E(q^2)/E(q))^24 and t = (eta(tau)/eta(2 tau))^24
    = 1/(q R),
        j = (t + 256)^3 / t^2 = q^-1 R^-1 (1 + 256 q R)^3 = q^-1 F,
        F = U^3 / V,  U = A + 256 q B,  V = A^2 B,  A = E(q)^24,  B = E(q^2)^24,
    and A = S(q)^8, B = S(q^2)^8 for Jacobi's series S(q) = E(q)^3 (_jacobi),
    each by three squarings.  F runs on Gaussian integers scaled by 2^W,
    W = prec + 64 (u = 2^-W is one ulp).  q^(+-1) comes from integers at
    p = W + 8 fraction bits: Im tau from tau embedded to W + e bits, where
    2^e >= 8 Im tau, times pi; the split 2 pi Im tau = n ln 2 + r, e^r from
    _cos_sin and the unit e^(2 pi i Re tau) from the exact Re tau (_unit).
    q is floored to W + 8 bits for 256 q, and that floor floored to W bits,
    which is floor(q 2^W) again.  j = q^-1 F is an exact integer product,
    rounded once to prec bits.  When Re tau is 0 or 1/2 (the forms with b = 0
    or b = a), _unit is exact with sin 0, so q is real, every _mul takes its
    one-product case, and the imaginary part of j is exactly 0.  A prec below
    64 raises ValueError on entry, before any of this.

    Lemma.  The result j~ satisfies |j~ - j| <= 2^(1-prec) (1 + |j|), within
    the 2^(8-prec) (1 + |j|) that _expand_pairs and _is_real assume.

    Proof.  embed is within 2^(1-W-e) relative (its docstring; its square
    root runs on math.isqrt and rounds exactly as libmp's mpf_sqrt), _PI,
    _LN2 and _unit give exact floors, and _cos_sin is within the ulps its
    docstring proves.  Errors below are in ulps u; a fixed-point product
    (_mul, _sqr) floors each component of the exact integer product, adding
    < 1 per component and < 1.5 in modulus.
    - q.  Im tau < 2^(e-3), so t = 2 pi Im tau < 2^(e-0.35) is off by
      < 2^(1-W-e) t < 1.57 u from the embedding, and by < 1.07 ulps at p
      from floor(pi 2^(p+e+2)) and the floor to p bits.
      n = floor(t / ln 2) - 1 < 2^(e+0.2), so floor(n floor(ln 2 2^(p+e+2))
      2^(-e-2)) is within 1.3 ulps at p, and r = t - n ln 2, in [ln 2, 2 ln 2]
      up to those ulps, is off by < 1.57 u + 2.4 2^-p < 1.6 u.  _cos_sin
      gives e^r = cosh r + sinh r (>= 2) within 4 2^-p, so e^(2 pi Im tau)
      = 2^n e^r and its reciprocal are within 1.7 u relative, and _unit gives
      cos and sin within 1 ulp at p, 2^-8 u.  So q = 2^-n (cos + i sin) / e^r
      is within 1.8 u |q| before it is floored to W bits, so within 1.5 u,
      256 q (floored to W + 8 bits) within 256 lam 1.8 u + 1.5 u < 6 u, and
      G = q^-1 = 2^n e^r (cos - i sin) within 3 u |q^-1|.
    - Series.  S(q) = sum (-1)^n (2n + 1) q^(n(n+1)/2) over n >= 0.  Every
      power q^n and q^(n(n+1)/2) that _jacobi steps through is a product of
      two powers of modulus <= lam, each off by < 1.52 u, so it is off by
      < 3.04 lam + 1.5 < 1.52 u; each power q^(n(n+1)) of S(q^2) is the
      square of q^(n(n+1)/2), so it too is off by < 1.52 u.  Times its exact
      weight, the term of n is off by < 1.52 (2n + 1) u.  The exponents stop
      at N, chosen so that |q|^N <= 2^(-W-1): |q| = 2^-L, L = t / ln 2, and
      N = ceil((W + 1) 2^16 / (m - 1)) for the integer m = floor(2^16 t / ln 2)
      computed from t, so (m - 1) 2^-16 < L and N L >= W + 1.  If S(q) has
      the terms n = 1 .. K past its constant 1, S(q^2) has at most those.
      The first term left out of either has weight <= 2K + 3 and modulus
      <= |q|^(N+1) <= lam 2^(-W-1), and each later one is below lam times
      the one before, so the tail is < 0.0022 (2K + 3) u <= 0.0055 (K + 1) u.
      So S(q) and S(q^2) are off by < 1.52 ((K + 1)^2 - 1) + 0.0055 (K + 1)
      < s = 2 (K + 1)^2 u, and their moduli lie within
      3 lam + 5 lam^3 + ... < 0.01301 of 1.
    - The rule |d(xy)| <= |x| |dy| + |y| |dx| + 1.5 u then gives, for the
      moduli and errors in units of u:
          S(q), S(q^2)  in [0.98699, 1.01301]  s
          their squares <= 1.02619             2.0261 s + 1.5
          their 4th     <= 1.05307             4.159 s + 4.58
          A, B          in [0.9005, 1.109]     a = 8.76 s + 11.2
          U             <= 2.34                2.11 a + 8.2
          U^3           <= 12.9                34.7 a + 140
          V             in [0.73, 1.37]        3.7 a + 3.2
          F             <= 17.7                (34.7 a + 140 + 17.7 (3.7 a + 3.2)) / 0.73 + 1.5
      and floor((U^3 conj V) 2^W / |V|^2), exact up to that floor, puts F
      within 137.3 a + 271 = 1203 s + 1809 <= 2^12 (K + 1)^2 u, as K >= 1.
    - |q^-1| <= 2^10 (1 + |j|): for Im tau < 1, |q^-1| < e^(2 pi) < 536; for
      Im tau >= 1, |q| < 0.00187, |R^(+-1)| <= 1.047 and |1 + 256 q R| >= 0.499,
      so |F| >= 0.118 and |q^-1| = |j| / |F| < 8.5 |j|.
    - So the exact product G F is off by at most |q^-1| |dF| (1 + 3 u) + 3 u |j|
      <= 2^23 (K + 1)^2 u (1 + |j|) = 2^(-prec-41) (K + 1)^2 (1 + |j|), and
      rounding each component to prec bits adds at most 2^-prec |G F|.  K
      grows like sqrt(prec): K (K + 1) / 2 <= N <= (W + 1) / 7.84 + 1,
      so K <= 32 at 4096 bits and K < 2^20 at any prec below 2^41, and the
      total is below 2^-prec (1 + |j|) (1 + 2^-40 (K + 1)^2) <= 2^(1-prec)
      (1 + |j|).
    """
    _require_prec(prec)
    tau = fundamental_domain_exact(lat.tau)
    w = prec + _FIXED_GUARD_BITS
    # (8 Im tau)^2 = 64 y^2 |d| <= 2^(2e)
    yn, yd = tau.y.numerator, tau.y.denominator
    e = ((-(64 * yn * yn * tau.field.d // (yd * yd))).bit_length() + 1) // 2
    # pi and ln 2 take e + 2 bits more than p, the integer bits of t and n
    p = w + 8
    bits = p + e + 2
    # t = 2 pi Im tau and r = t - n ln 2, scaled by 2^p
    _, man, exp, _ = tau.embed(w + e).imag._mpf_
    t = _shift(_PI(bits) * man, exp + p + 1 - bits)
    ln2 = _LN2(bits)
    m = (t << (e + 18)) // ln2
    n = (m >> 16) - 1
    cosh, sinh = _cos_sin(t - ((n * ln2) >> (e + 2)), p, hyperbolic=True)
    big = cosh + sinh
    c, s = _unit(tau.x, p)
    # q = 2^-n (c + i s) / big, floored to w + 8 bits, and that floored to w
    q256 = _shift(c, w + 8 - n) // big, _shift(s, w + 8 - n) // big
    q = q256[0] >> 8, q256[1] >> 8
    last = -(-((w + 1) << 16) // (m - 1))
    a, b = _jacobi(q, last, w)
    for _ in range(3):
        a, b = _sqr(a, w), _sqr(b, w)
    qb = _mul(q256, b, w)
    u = a[0] + qb[0], a[1] + qb[1]
    u3 = _mul(_sqr(u, w), u, w)
    v = _mul(_sqr(a, w), b, w)
    norm = v[0] * v[0] + v[1] * v[1]
    f_re = ((u3[0] * v[0] + u3[1] * v[1]) << w) // norm
    f_im = ((u3[1] * v[0] - u3[0] * v[1]) << w) // norm
    # q^-1 F = 2^n big (c - i s) F 2^(-2p-w) exactly, rounded once to prec bits
    shift = n - 2 * p - w
    re = from_man_exp(big * (c * f_re + s * f_im), shift, prec, round_nearest)
    im = from_man_exp(big * (c * f_im - s * f_re), shift, prec, round_nearest)
    return PrecComplex(mp.make_mpf(re), mp.make_mpf(im), prec)


def _is_real(z: PrecComplex) -> bool:
    """|Im z| < 2^(16-prec) (1 + |z|): a real j passes with room, as the lemma
    of j_of_lattice bounds its error by 2^(1-prec) (1 + |j|), 2^-15 of this.
    |z| and 1 + |z| are rounded to nearest at prec bits."""
    re, im, prec = z.re._mpf_, z.im._mpf_, z.prec
    scale = mpf_add(fone, mpf_hypot(re, im, prec, round_nearest), prec, round_nearest)
    return mpf_lt(mpf_abs(im), mpf_shift(scale, 16 - prec))


@dataclass(frozen=True, slots=True)
class ClassPolynomial:
    """Monic integer polynomial with the j-invariants of a discriminant as roots.

    Coefficients are listed from the leading 1 down to the constant term;
    prec is the one precision in bits at which they were computed, the
    precision hilbert_class_polynomial was given raised to start_precision(D).
    Irreducibility over Q holds classically but is not verified here.
    """

    D: int
    coefficients: tuple[int, ...]
    prec: int = field(compare=False)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def start_precision(D: int) -> int:
    """The least precision in bits at which H_D is computed, and proven exact.

    Enge's a-priori bound on the bit size of H_D's coefficients (Math. Comp. 78, 2009),
        log2 C(h, h//2) + sum over reduced forms of log2(exp(pi*sqrt|D|/a) + 2079),
    plus _GUARD_BITS, which _expand_pairs' proof spends on ceil(log2 h) + 13
    and its margins, and at least _MIN_PREC.  Below the bound a coefficient
    can be a multiple of its ulp, so a wrong value would pass the rounding
    test; the size bound refuses such a precision.
    """
    forms = enumerate_reduced(D)
    h = len(forms)
    bits = math.log2(math.comb(h, h // 2))
    for f in forms:
        x = math.pi * math.sqrt(-D) / f.a
        # log2(e^x + 2079) without overflowing exp(x)
        bits += x / math.log(2) + math.log2(1 + 2079 * math.exp(-x))
    return max(_MIN_PREC, math.ceil(bits) + _GUARD_BITS)


def split_prime(D: int) -> int:
    """The least prime p = s^2 - D with s >= 1.

    4p = t^2 - v^2 D with t = 2s, v = 2, so p = x^2 + b x v + c v^2 at
    x = s - b is represented by the principal form (1, b, c) of D.  Such p
    (> |D|, so prime to D) split completely in the ring class field of the
    order of discriminant D (Cox, Primes of the form x^2+ny^2, Thm 9.4), and
    H_D mod p is the product of X - j over the h(D) distinct j-invariants of
    curves over F_p with that endomorphism ring (Sutherland, Math. Comp. 80
    (2011), section 2).
    """
    s = 1
    while factorize(s * s - D) != {s * s - D: 1}:
        s += 1
    return s * s - D


def _divides_x_to_the_p_minus_x(coefficients: list[int], p: int) -> bool:
    """True iff the monic polynomial (leading coefficient first) divides X^p - X mod p.

    That is, iff it splits into distinct linear factors over F_p.  X^p mod the
    polynomial comes from square-and-multiply on residues of degree below h.
    """
    h = len(coefficients) - 1
    low = [c % p for c in reversed(coefficients[1:])]  # X^h = -sum low[j] X^j

    def residue(r: list[int]) -> list[int]:
        r = r + [0] * (h - len(r))
        for i in range(len(r) - 1, h - 1, -1):
            c = r[i] % p
            if c:
                for j, m in enumerate(low):
                    r[i - h + j] -= c * m
        return [x % p for x in r[:h]]

    power = residue([1])
    for bit in bin(p)[2:]:
        square = [0] * (2 * h - 1)
        for i, a in enumerate(power):
            if a:
                for j, b in enumerate(power):
                    square[i + j] += a * b
        power = residue(square)
        if bit == "1":
            power = residue([0] + power)
    return power == residue([0, 1])


def is_plausible_class_polynomial(D: int, coefficients: list[int]) -> bool:
    """Exact necessary conditions on H_D, cheap next to computing it.

    The polynomial must be monic of degree h(D) and split into distinct linear
    factors modulo split_prime(D).  A wrong polynomial with that shape passes
    only if it also splits there; this is a check, not a certificate.
    """
    h = len(enumerate_reduced(D))
    return (
        len(coefficients) == h + 1
        and coefficients[0] == 1
        and _divides_x_to_the_p_minus_x(coefficients, split_prime(D))
    )


def hilbert_class_polynomial(D: int, prec: int = 128) -> ClassPolynomial:
    """Expand prod (X - j) over the reduced forms of D and round to integers.

    j is evaluated once per conjugate pair: for 0 < b < a < c the form
    (a, -b, c) is reduced too and its j is the conjugate of j(a, b, c), which
    gives the real factor X^2 - 2 Re(j) X + |j|^2; the ambiguous forms (b = 0,
    b = a or a = c) have real j and give X - Re(j).  Every j is evaluated
    once, at prec raised to start_precision(D), and expanded once:
    _expand_pairs proves that this precision passes its three checks whenever
    the lemma of j_of_lattice holds, so a failed check is a defect, raised as
    RuntimeError, and the coefficients do not depend on prec.  A start above
    the _PRECISION_CAP-bit cap is refused before any j is evaluated.
    """
    validate_discriminant(D)
    upper = [f for f in enumerate_reduced(D) if f.b >= 0]
    prec = max(prec, start_precision(D))
    if prec > _PRECISION_CAP:
        raise PrecisionExhausted(f"H_{D} needs {prec} bits, above the {_PRECISION_CAP}-bit cap")
    roots = [j_of_lattice(form_to_lattice(f), prec) for f in upper]
    paired = [0 < f.b < f.a < f.c for f in upper]
    return ClassPolynomial(D, _expand_pairs(roots, paired, prec), prec)


def _expand_pairs(roots: list[PrecComplex], paired: list[bool], prec: int) -> tuple[int, ...]:
    """Integer coefficients of prod (X - j), certified by three checks at prec.

    roots are the j of the reduced forms with b >= 0 at prec bits, paired
    marks those whose conjugate is a root too, and h = len(roots) +
    sum(paired) is the degree.  Each j carries an error |dr| <= eps (1 + |r|)
    with eps = 2^(8-prec) (the lemma of j_of_lattice proves 2^(1-prec)).
    Each check that fails raises RuntimeError naming it and prec.
    - The size bound.  Every coefficient is off by at most
      ((1+eps)^h - 1) prod(1 + |r_i|) <= 2 h eps prod(1 + |r_i|) over all h
      roots.  mag(prod) + ceil(log2 h) + 12 < prec puts that at or below
      1/16, so the nearest integer is the true coefficient; prod is taken at
      53 bits, every step rounded to nearest.
    - The reality test (_is_real) for every ambiguous j.
    - The rounding test: each rounded coefficient lies within 1/4 of its
      fixed-point value.  After the size bound this only checks consistency;
      the slack below 1/4 covers the 53-bit product.

    Theorem.  At any prec >= start_precision(D), roots computed by
    j_of_lattice pass all three checks.

    Proof.  Let P = prec >= B + 48, B Enge's bound of start_precision (its
    floats move B by less than 2^-20 below the 2^16-bit cap).  Each form
    puts tau in the fundamental domain with |q|^-1 = e^x, x = pi sqrt|D| / a
    >= pi sqrt 3, and Enge bounds |j| <= e^x + 2079 there; (a, -b, c) has the
    same a, so each of the h roots has its own term in B, and h < 5900 under
    the cap (each term is over 11 bits).  By the lemma 1 + |r_i| <=
    (1 + |j_i|)(1 + 2^(1-P)), and 1 + |j_i| <= (e^x + 2079)(1 + 1/2309); the
    at most 4h roundings of the 53-bit product raise it by a factor below
    1 + 2^-38.  So log2 size <= B - log2 C(h, h//2) + h/1600 + 2^-19, and
    mag(size) exceeds log2 size by at most 1.  Since ceil(log2 h) <=
    log2 C(h, h//2) + 1, mag(size) + ceil(log2 h) + 12 <= B + 14 + h/1600 +
    2^-19 < P - 30: the size bound passes with 30 bits to spare.  An
    ambiguous j is real, so |Im r| <= 2^(1-P) (1 + |j|) <= 2^(1-P) (1 + |r|)
    (1 + 2^(2-P)), while 1 + |r|, rounded twice to nearest at P bits, is at
    least (1 + |r|)(1 - 2^-P)^2: the reality test passes with a margin of
    2^15.  The size bound puts each fixed-point coefficient within 1/16 (times
    1 + 2^-38, plus the expansion's floors below) of the true integer, so
    the rounding test passes, 1/16 against 1/4.

    The expansion runs on integers scaled by 2^W, W = prec + 48 (u = 2^-W).
    The parts of each root are floored to W bits, so s = 2 Re r is off by
    < 2u and p = |r|^2, floored once more, by < 3 (1 + |r|) u.  A factor
    X - r or X^2 - sX + p updates every coefficient with one floored
    product, which adds < 1 u, to partial coefficients of modulus at most
    M = prod over the earlier factors of (1 + |r_j|) (times 1 + 2^-40).  So
    one factor adds < (5 (1 + |r|) M + 1) u, which the later factors scale
    by at most their (1 + |r_j|), and the floors put every coefficient off
    by < 6 h u prod(1 + |r_i|) in all, 3 2^-56 of the root error term.
    """
    h = len(roots) + sum(paired)
    rnd = round_nearest  # libmp's default rounds down and can lower mag(size)
    size = fone
    for r, pair in zip(roots, paired):
        factor = mpf_add(fone, mpf_hypot(r.re._mpf_, r.im._mpf_, 53, rnd), 53, rnd)
        if pair:
            factor = mpf_mul(factor, factor, 53, rnd)
        size = mpf_mul(size, factor, 53, rnd)
    _, _, exp, bc = size
    if exp + bc + (h - 1).bit_length() + 12 >= prec:
        raise RuntimeError(f"class polynomial fails the size bound at {prec} bits")
    w = prec + _GUARD_BITS
    coeffs = [1 << w]
    for r, pair in zip(roots, paired):
        # int(): under mpmath's gmpy backend to_fixed returns a gmpy2.mpz
        re = int(to_fixed(r.re._mpf_, w))
        if pair:
            im = int(to_fixed(r.im._mpf_, w))
            s, p = 2 * re, (re * re + im * im) >> w
            coeffs += [0, 0]
            for k in range(len(coeffs) - 1, 1, -1):
                coeffs[k] += (p * coeffs[k - 2] - s * coeffs[k - 1]) >> w
            coeffs[1] -= s
        elif _is_real(r):
            coeffs.append(0)
            for k in range(len(coeffs) - 1, 0, -1):
                coeffs[k] -= (re * coeffs[k - 1]) >> w
        else:
            raise RuntimeError(f"class polynomial fails the reality test at {prec} bits")
    half, quarter = 1 << (w - 1), 1 << (w - 2)
    rounded = tuple((c + half) >> w for c in coeffs)
    if any(abs(c - (n << w)) >= quarter for c, n in zip(coeffs, rounded)):
        raise RuntimeError(f"class polynomial fails the rounding test at {prec} bits")
    return rounded


_ALPHABET_RE = re.compile(r"(?:[0-9\s]|zeta3|sqrt|cbrt|root4|\*(?!\*)|[-+^()·])*")
_BINARY_OPS = {ast.Add: mpc_add, ast.Sub: mpc_sub, ast.Mult: mpc_mul}
_ROOTS = {"sqrt": 2, "cbrt": 3, "root4": 4}


def _int_literal(node: ast.expr) -> int:
    """An integer literal with at most one sign (an exponent or a radicand)."""
    sign = 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        sign = -1 if isinstance(node.op, ast.USub) else 1
        node = node.operand
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return sign * node.value
    raise ParseError(f"expected an integer literal, found {ast.unparse(node)!r}")


def _power(z: tuple, n: int, wp: int) -> tuple:
    """z^n rounded to nearest at wp bits, by binary powering at wp + 4 bitlen(n)
    + 4 bits as in mpf_pow_int: mpc_pow_int takes large complex powers through
    mpc_log and mpc_exp, which read libmp's process-wide memos of pi and log 2."""
    rnd, p = round_nearest, wp + 4 * abs(n).bit_length() + 4
    power = fone, fzero
    for bit in bin(abs(n))[2:]:
        power = mpc_mul(power, power, p, rnd)
        if bit == "1":
            power = mpc_mul(power, z, p, rnd)
    return mpc_div((fone, fzero), power, wp, rnd) if n < 0 else mpc_pos(power, wp, rnd)


def _evaluate(node: ast.expr, wp: int) -> tuple:
    """libmp complex value (re, im) of a whitelisted expression node, each
    operation rounded to nearest at wp bits."""
    rnd = round_nearest
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            return _power(_evaluate(node.left, wp), _int_literal(node.right), wp)
        op = _BINARY_OPS.get(type(node.op))
        if op is not None:
            return op(_evaluate(node.left, wp), _evaluate(node.right, wp), wp, rnd)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        value = _evaluate(node.operand, wp)
        return mpc_neg(value) if isinstance(node.op, ast.USub) else value
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        return from_int(node.value, wp, rnd), fzero
    elif isinstance(node, ast.Name) and node.id == "zeta3":
        # (-1 + sqrt(-3)) / 2
        return mpf_shift(fnone, -1), mpf_shift(mpf_sqrt(from_int(3), wp, rnd), -1)
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _ROOTS
        and len(node.args) == 1
        and not node.keywords
    ):
        n, k = _int_literal(node.args[0]), _ROOTS[node.func.id]
        # the principal root: |n|^(1/k), times the principal root of -1 if
        # n < 0 (mpc_nthroot of a large negative n calls mpc_log and mpc_exp)
        root = mpc_nthroot((from_int(abs(n)), fzero), k, wp, rnd)
        return mpc_mul(root, mpc_nthroot((fnone, fzero), k, wp, rnd), wp, rnd) if n < 0 else root
    raise ParseError(f"unsupported expression {ast.unparse(node)!r}")


def evaluate_expression(expr: str, prec: int = 128) -> PrecComplex:
    """Evaluate an algebraic expression at the given precision.

    The language: integer literals, + - * (also ·), ^ with an integer-literal
    exponent, unary signs, parentheses, zeta3, and sqrt(n), cbrt(n), root4(n)
    of a signed integer literal, each the principal root.  Python's parser
    builds the syntax tree, so precedence is Python's: 2*-3^2 is -18.  Every
    operation rounds to nearest at prec + 16 bits, through libmp.  A prec
    below 64 raises ValueError on entry.
    """
    _require_prec(prec)
    if not _ALPHABET_RE.fullmatch(expr):
        raise ParseError(f"bad character or '**' in expression {expr!r}")
    # whitespace runs become single spaces: ast.parse rejects a leading indent
    text = " ".join(expr.split()).replace("^", "**").replace("·", "*")
    try:
        value = _evaluate(ast.parse(text, mode="eval").body, prec + 16)
    except (SyntaxError, RecursionError) as exc:
        raise ParseError(f"bad expression {expr!r}: {exc}") from exc
    except ZeroDivisionError as exc:
        raise DivisionByZero(f"zero to a negative power in {expr!r}") from exc
    return PrecComplex.from_mpc(mp.make_mpc(value), prec)


def _matches_exact(computed: PrecComplex, expr: str, prec: int) -> bool:
    """|j - value(expr)| < 2^(16-prec) |value(expr)|, for j computed at prec + 16 bits.

    The expression is evaluated with doubled guard precision: the appendix
    values cancel catastrophically (terms around 2^61 summing to around
    2^10), and the tolerance is relative to the small final value.  The
    difference and both moduli round to nearest at that precision.
    """
    wp, rnd = 2 * prec + 64, round_nearest
    expected = evaluate_expression(expr, wp)
    value = expected.re._mpf_, expected.im._mpf_
    diff = mpc_sub((computed.re._mpf_, computed.im._mpf_), value, wp, rnd)
    return mpf_lt(mpc_abs(diff, wp, rnd), mpf_shift(mpc_abs(value, wp, rnd), 16 - prec))


def j_is_real(lat: CMLattice, prec: int = 128) -> bool:
    """Numeric reality test; agrees with 'class order at most 2' classically."""
    return _is_real(j_of_lattice(lat, prec))


def appendix_fixtures() -> list[dict]:
    """The golden lattice/expression pairs shipped with the package."""
    text = (
        resources.files("weightjac")
        .joinpath("data", "appendix_fixtures.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def verify_appendix(prec: int = 256) -> list[dict]:
    """Check every golden fixture; returns one record per lattice."""
    results = []
    for rec in appendix_fixtures():
        lat = parse_lattice(rec["lattice"])
        order, form = ideal_class(lat)
        # one j serves both checks: at prec + 16 bits the reality test's
        # tolerance is still 2^15 times the lemma's error bound
        j = j_of_lattice(lat, prec + 16)
        ok = _matches_exact(j, rec["exact"], prec)
        real_ok = _is_real(j) == _order_at_most_two(form)
        results.append(
            {
                "lattice": rec["lattice"],
                "D": rec["D"],
                "form": list(form.as_tuple()),
                "matches_exact_value": ok,
                "reality_matches_class_order": real_ok,
            }
        )
    return results
