"""Exact arithmetic over Q and over imaginary quadratic fields Q(sqrt(d)).

Elements are x + y*sqrt(d) with big-rational coordinates and d a squarefree
negative integer; sqrt(d) always denotes the root with positive imaginary
part. Everything here is immutable and pure.  One regex reads an element
literal, "x+y*sqrt(d)", "x" or "y*sqrt(d)" (parse_quadelem), and one function
reads every integer of input text, there and in every other literal and CLI
option (parse_int): a sign and ASCII digits, at most MAX_LITERAL_DIGITS, or
fewer under a lowered int/str digit limit (digit_budget).  mpmath, imported
at module level, serves QuadElem.embed and its _sqrt_nearest alone, so every
importer of this module loads it.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.libmp import fone, from_int, from_man_exp, mpf_div, mpf_mul, mpf_pos, round_nearest

from .errors import DiscriminantTooLarge, DivisionByZero, FieldMismatch, ParseError, RationalInput

# at most this many digits per integer, so a form's discriminant b^2 - 4ac has
# at most 4,001 and prints under Python's default limit of 4,300 digits per
# int/str conversion (sys.set_int_max_str_digits, CVE-2020-10735)
MAX_LITERAL_DIGITS = 2000
# entries kept by each memo of a per-discriminant object (the reduced forms in
# binforms, and the orders, their lattices and principal classes in cmlattice
# and jacobians): room for every discriminant of a few hundred class polynomials
# or of the orders of |D| <= 20,000 over a dozen fields, while a sweep over
# many D stays bounded.  The memo of a class's lattice in jacobians is bounded
# by the classes in hand instead (jacobians._lattice)
MEMO_SIZE = 1024
_INT_RE = re.compile(r"\s*[+-]?([0-9]+)\s*")
# the lowest precision in bits that embed, the j kernel and the CLI accept
_MIN_PREC = 64


def _require_prec(prec: int) -> None:
    # on entry, before any work: at a negative precision libmp's rounding never returns
    if prec < _MIN_PREC:
        raise ValueError(f"prec must be at least {_MIN_PREC}")


def _str_digit_limit() -> int:
    """sys.get_int_max_str_digits() now; 0, or none before Python 3.10.7, is no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def digit_budget(digits: int) -> int:
    """A digit budget set for Python's default int/str limit of 4,300 digits,
    times limit / 4,300 under a lower _str_digit_limit(), so that what fits
    the budget still prints; no limit, or a higher one, keeps the budget."""
    limit = _str_digit_limit()
    return digits * limit // 4300 if 0 < limit < 4300 else digits


def parse_int(text: str) -> int:
    """An optional sign and 1 to digit_budget(MAX_LITERAL_DIGITS) ASCII digits,
    with optional surrounding whitespace; "1_0" or a non-ASCII digit, as int()
    takes, is ParseError."""
    budget = digit_budget(MAX_LITERAL_DIGITS)
    m = _INT_RE.fullmatch(text)
    if not m or len(m[1]) > budget:
        raise ParseError(f"not an integer of at most {budget} ASCII digits: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (q unsigned) into a rational in lowest terms, refusing q = 0."""
    num, slash, den = text.strip().partition("/")
    if slash and not (num[-1:].isdigit() and den[:1].isdigit()):
        raise ParseError(f"not a rational literal: {text!r}")
    q = parse_int(den) if slash else 1
    if q == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return Fraction(parse_int(num), q)


# trial division stops here: a cofactor above MAX_TRIAL_DIVISOR**2 left
# without a factor would take minutes, so it is refused instead
MAX_TRIAL_DIVISOR = 10**6


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of |n| by trial division (n != 0).

    Raises DiscriminantTooLarge when the part left unfactored would need a
    trial divisor above MAX_TRIAL_DIVISOR.
    """
    if n == 0:
        raise ValueError("0 has no prime factorization")
    n = abs(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        if p > MAX_TRIAL_DIVISOR:
            raise DiscriminantTooLarge(
                f"{n} has no prime factor up to {MAX_TRIAL_DIVISOR} and is too large to factor"
            )
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n (n != 0)."""
    return n != 0 and all(e == 1 for e in factorize(n).values())


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor m of n with n/m a perfect square (sign kept)."""
    return (-1 if n < 0 else 1) * math.prod(p for p, e in factorize(n).items() if e % 2)


@dataclass(frozen=True, slots=True)
class FieldTag:
    """The imaginary quadratic field Q(sqrt(d)), d squarefree and negative."""

    d: int

    def __post_init__(self):
        # bools are ints to isinstance, and -1.0 would equal and hash like -1
        if type(self.d) is not int or self.d >= 0 or not is_squarefree(self.d):
            raise ParseError(f"field tag needs a squarefree negative d, got {self.d!r}")

    @property
    def dK(self) -> int:
        """Fundamental discriminant: d when d = 1 mod 4, else 4d."""
        return self.d if self.d % 4 == 1 else 4 * self.d

    def __repr__(self):
        return f"FieldTag(d={self.d})"


@dataclass(frozen=True, slots=True)
class QuadElem:
    """x + y*sqrt(d) with exact rational coordinates."""

    field: FieldTag
    x: Fraction
    y: Fraction

    @classmethod
    def from_rational(cls, field: FieldTag, x) -> "QuadElem":
        return cls(field, Fraction(x), Fraction(0))

    @classmethod
    def make(cls, field: FieldTag, x, y) -> "QuadElem":
        return cls(field, Fraction(x), Fraction(y))

    def _check(self, other: "QuadElem") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        return QuadElem(self.field, self.x + other.x, self.y + other.y)

    def __sub__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        return QuadElem(self.field, self.x - other.x, self.y - other.y)

    def __neg__(self) -> "QuadElem":
        return QuadElem(self.field, -self.x, -self.y)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadElem(self.field, self.x * other, self.y * other)
        self._check(other)
        d = self.field.d
        return QuadElem(
            self.field,
            self.x * other.x + d * self.y * other.y,
            self.x * other.y + self.y * other.x,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by zero")
            return QuadElem(self.field, self.x / other, self.y / other)
        self._check(other)
        n = other.norm()
        if n == 0:
            raise DivisionByZero("division by zero element")
        return (self * other.conj()) / n

    def conj(self) -> "QuadElem":
        return QuadElem(self.field, self.x, -self.y)

    def norm(self) -> Fraction:
        """x^2 - d*y^2; nonnegative, zero only at zero."""
        return self.x * self.x - self.field.d * self.y * self.y

    def minimal_polynomial(self) -> tuple[int, int, int]:
        """Primitive integer (a, b, c), a > 0, with a*z^2 + b*z + c = 0.

        z^2 - 2x*z + (x^2 - d*y^2) = 0 is cleared of denominators on integers,
        by (denominator of x)^2 * (denominator of y)^2, then divided by the
        content.  Only defined for non-rational elements (degree 2 over Q).
        """
        if self.y == 0:
            raise RationalInput(f"{self} is rational; no quadratic minimal polynomial")
        xn, xd = self.x.numerator, self.x.denominator
        yn, yd = self.y.numerator, self.y.denominator
        xd2, yd2 = xd * xd, yd * yd
        a, b, c = xd2 * yd2, -2 * xn * xd * yd2, xn * xn * yd2 - self.field.d * yn * yn * xd2
        g = math.gcd(a, b, c)
        return (a // g, b // g, c // g)

    def embed(self, prec: int = 128) -> mpmath.mpc:
        """Complex value with sqrt(d) on the positive imaginary axis.

        Each component is computed to nearest at prec + 8 bits (the numerator
        rounded, then divided, then times sqrt(-d)) and rounded to nearest at
        prec bits, so it has relative error below 2^(1-prec).  sqrt(-d) is
        _sqrt_nearest, libmp's correctly rounded mpf_sqrt on math.isqrt, so
        every rounding is the one libmp makes.  The libmp calls take explicit
        precisions and never read mpmath's global context.
        """
        _require_prec(prec)
        wp, rnd = prec + 8, round_nearest
        re, im = (
            mpf_div(from_int(q.numerator, wp, rnd), from_int(q.denominator), wp, rnd)
            for q in (self.x, self.y)
        )
        im = mpf_mul(im, _sqrt_nearest(-self.field.d, wp), wp, rnd)
        return mpmath.mp.make_mpc((mpf_pos(re, prec, rnd), mpf_pos(im, prec, rnd)))

    def __str__(self):
        sign = "+" if self.y >= 0 else "-"
        return f"{self.x}{sign}{abs(self.y)}*sqrt({self.field.d})"

    def __repr__(self):
        return f"QuadElem({self})"


# n -> (k, floor(sqrt(n) 2^k)), at most _ROOT_SLOTS entries
_ROOTS: dict[int, tuple[int, int]] = {}
_ROOT_SLOTS = 32


def _sqrt_nearest(n: int, prec: int) -> tuple:
    """mpf_sqrt(from_int(n), prec, round_nearest), bit for bit, for squarefree n > 0.

    libmp's steps on integers: from_int(n) strips n's trailing zero bits, at
    most one for squarefree n, and mpf_sqrt shifts an odd exponent back, so it
    takes the mantissa n at exponent 0 (n = 1 takes a shortcut to 1, returned
    here as it is).  It then shifts n left by an even number of bits 2s, at
    least 4 and enough for prec + 2 bits of root, takes the floor root
    floor(sqrt(n) 2^s), and on a nonzero remainder appends a sticky 1 bit, so
    that rounding to nearest never meets a false tie.  For squarefree n > 1,
    sqrt(n) is irrational, so the remainder is never 0 and the sticky bit is
    always set.

    One floor root per n is memoised in _ROOTS, floor(sqrt(n) 2^k) by
    math.isqrt at the highest s asked for so far with a margin, as analytic's
    _Constant memoises pi; a lower s shifts it down, which gives floor(sqrt(n)
    2^s) again.  So the forms of one field share one root at every precision
    the j kernel asks for.  The memo holds at most _ROOT_SLOTS entries (plus
    one per thread inserting at the same moment), each at most the largest
    root asked for with its margin, and is emptied when full.  Threads that
    race compute equal floors and at worst store a lower precision or lose
    an entry, which costs a later call a recomputation and changes no value.
    """
    if n == 1:
        return fone
    s = (max(4, 2 * prec - n.bit_length() + 4) + 1) // 2
    memo = _ROOTS.get(n)
    if memo is None or memo[0] < s:
        k = s + (s >> 4) + 64
        memo = k, math.isqrt(n << 2 * k)
        if len(_ROOTS) >= _ROOT_SLOTS:
            _ROOTS.clear()
        _ROOTS[n] = memo
    k, root = memo
    return from_man_exp(2 * (root >> (k - s)) + 1, -s - 1, prec, round_nearest)


# x is taken only when a sign or the end follows it, so "12*sqrt(-1)" is 12i and
# "1 2*sqrt(-1)" is refused; the lookahead at the start refuses a blank literal
_ELEM_RE = re.compile(
    r"^\s*(?=\S)(?:(?P<x>[+-]?[0-9]+(?:/[0-9]+)?)\s*(?=[+-]|$))?"
    r"(?:(?P<sign>[+-]?)\s*(?P<y>[0-9]+(?:/[0-9]+)?)\s*\*\s*sqrt\(\s*(?P<d>-[0-9]+)\s*\))?\s*$"
)


def parse_quadelem(text: str, field: FieldTag | None = None) -> QuadElem:
    """Parse "x+y*sqrt(d)", "x", or "y*sqrt(d)" (x, y as p/q rationals)."""
    m = _ELEM_RE.match(text)
    if not m:
        raise ParseError(f"not a quadratic element literal: {text!r}")
    x = parse_rational(m["x"]) if m["x"] else Fraction(0)
    if m["y"] is None:
        if field is None:
            raise ParseError(f"no field tag available for rational literal {text!r}")
        return QuadElem(field, x, Fraction(0))
    tag = FieldTag(parse_int(m["d"]))
    if field is not None and tag != field:
        raise ParseError(f"literal {text!r} names sqrt({tag.d}), expected sqrt({field.d})")
    y = parse_rational(m["y"])
    return QuadElem(tag, x, -y if m["sign"] == "-" else y)
