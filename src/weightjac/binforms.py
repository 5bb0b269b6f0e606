"""Binary quadratic forms of negative discriminant.

Reduction, Gauss composition (Cohen's Algorithm 5.4.7), enumeration of the
reduced primitive forms of a discriminant, and class-group structure.  The
lattice a form stands for is built in cmlattice (form_to_lattice), which
imports this module; this module imports nothing of cmlattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .errors import (
    DiscriminantMismatch, DiscriminantTooLarge, InvalidDiscriminant, InvalidForm, ParseError
)
from .quadfield import MEMO_SIZE, factorize, parse_int, squarefree_part

# enumerating the reduced forms takes time linear in |D|; larger discriminants
# fail fast instead of running for hours
MAX_ABS_DISCRIMINANT = 10**8


@dataclass(frozen=True, slots=True)
class Form:
    """Primitive positive-definite form a*x^2 + b*xy + c*y^2, b^2 - 4ac < 0."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        for v in (a, b, c):
            if type(v) is not int:  # bools are ints to isinstance
                raise InvalidForm(f"non-integer coefficient {v!r}")
        if a <= 0:
            raise InvalidForm(f"leading coefficient must be positive: {self.as_tuple()}")
        if b * b - 4 * a * c >= 0:
            raise InvalidForm(f"discriminant must be negative: {self.as_tuple()}")
        if math.gcd(a, b, c) != 1:
            raise InvalidForm(f"form is not primitive: {self.as_tuple()}")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def conjugate(self) -> "Form":
        """The inverse class (a, -b, c)."""
        return Form(self.a, -self.b, self.c)

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        return -a < b <= a <= c and not (a == c and b < 0)

    def __str__(self):
        return f"{self.a},{self.b},{self.c}"


def parse_form(text: str) -> Form:
    """The form "a,b,c", each coefficient read by parse_int (so "+5" is 5); a
    non-primitive, non-positive or indefinite form is a ParseError."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(f"form literal must be 'a,b,c': {text!r}")
    try:
        return Form(*map(parse_int, parts))
    except InvalidForm as exc:
        raise ParseError(str(exc)) from exc


def validate_discriminant(D: int) -> int:
    if D >= 0 or D % 4 not in (0, 1):
        raise InvalidDiscriminant(f"need D < 0 and D = 0,1 mod 4, got {D}")
    return D


def fundamental_decomposition(D: int) -> tuple[int, int]:
    """Split D = f^2 * dK with dK a fundamental discriminant; returns (dK, f)."""
    validate_discriminant(D)
    m = squarefree_part(D)
    t = math.isqrt(D // m)
    if m % 4 == 1:
        return (m, t)
    return (4 * m, t // 2)


def principal_form(D: int) -> Form:
    """The identity class: x^2 - (D/4)y^2 or x^2 + xy + ((1-D)/4)y^2."""
    validate_discriminant(D)
    k = D % 2
    return Form(1, k, (k * k - D) // 4)


def reduce(form: Form) -> Form:
    """The unique reduced representative of the proper equivalence class.

    A form that is already reduced is returned as is.
    """
    if form.is_reduced():
        return form
    return _reduce(form.a, form.b, form.c, form.discriminant)


def _reduce(a: int, b: int, c: int, D: int) -> Form:
    """Reduce the positive-definite (a, b, c) of discriminant D; builds one Form."""
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            # translate b into (-a, a]
            t = (a - b) // (2 * a)
            b = b + 2 * a * t
            c = (b * b - D) // (4 * a)
            continue
        if a == c and b < 0:
            b = -b
            continue
        return Form(a, b, c)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def compose(f: Form, g: Form) -> Form:
    """Reduced Gauss composition (Cohen, A Course in Computational Algebraic
    Number Theory, Algorithm 5.4.7) of two primitive forms of one discriminant,
    by two extended gcds.

    Cohen's special cases (a1 | a2, d | s) need no branch: _ext_gcd already
    returns his coefficients there, and any Bezout pair gives the same class.
    An operand with a = 1 represents 1, so it is the identity class: the
    other operand is reduced and returned without the algorithm.
    """
    if f.discriminant != g.discriminant:
        raise DiscriminantMismatch(
            f"disc {f.discriminant} vs {g.discriminant}"
        )
    if f.a == 1:
        return reduce(g)
    if g.a == 1:
        return reduce(f)
    D = f.discriminant
    (a1, b1, _), (a2, b2, c2) = f.as_tuple(), g.as_tuple()
    s = (b1 + b2) // 2
    d, y1, _ = _ext_gcd(a2, a1)
    d1, x2, y2 = _ext_gcd(s, d)
    v1, v2 = a1 // d1, a2 // d1
    r = (-y1 * y2 * (b2 - s) - x2 * c2) % v1
    A, B = v1 * v2, b2 + 2 * v2 * r
    return _reduce(A, B, (B * B - D) // (4 * A), D)


def power(form: Form, k: int) -> Form:
    """k-th composition power (negative k through the conjugate form).

    Binary powering starts from the reduced base at the lowest set bit of k,
    so no step composes with the identity; k = 0 is the principal form.
    """
    if k < 0:
        return power(form.conjugate(), -k)
    if k == 0:
        return principal_form(form.discriminant)
    base = reduce(form)
    while not k & 1:
        base = compose(base, base)
        k >>= 1
    result = base
    k >>= 1
    while k:
        base = compose(base, base)
        if k & 1:
            result = compose(result, base)
        k >>= 1
    return result


def element_order(form: Form) -> int:
    """Order of the class in the form class group."""
    identity = principal_form(form.discriminant)
    current = reduce(form)
    k = 1
    while current != identity:
        current = compose(current, form)
        k += 1
    return k


def _order_at_most_two(form: Form) -> bool:
    """Whether element_order(form) <= 2, read off the reduced form.

    The inverse of a reduced (a, b, c) is (a, -b, c).  It is reduced, and so a
    different class, unless b = 0, b = a or a = c: the ambiguous forms (Cox,
    Primes of the form x^2 + ny^2, section 3).
    """
    a, b, c = reduce(form).as_tuple()
    return b == 0 or b == a or a == c


@lru_cache(maxsize=MEMO_SIZE)
def _enumerate_reduced(D: int) -> tuple[Form, ...]:
    validate_discriminant(D)
    if -D > MAX_ABS_DISCRIMINANT:
        raise DiscriminantTooLarge(f"|D| = {-D} is above the {MAX_ABS_DISCRIMINANT} budget")
    out = []
    amax = math.isqrt(-D // 3)
    parity = D % 2
    for a in range(1, amax + 1):
        # b ranges over (-a, a] with b = D mod 2
        b = -a + 1
        if (b - parity) % 2:
            b += 1
        while b <= a:
            num = b * b - D
            if num % (4 * a) == 0:
                c = num // (4 * a)
                if c >= a and not (b < 0 and a == c):
                    if math.gcd(a, math.gcd(abs(b), c)) == 1:
                        out.append(Form(a, b, c))
            b += 2
    return tuple(sorted(out, key=Form.as_tuple))


def enumerate_reduced(D: int) -> list[Form]:
    """All reduced primitive forms of discriminant D, sorted by (a, b, c)."""
    return list(_enumerate_reduced(D))


@dataclass(frozen=True, slots=True)
class ClassGroup:
    """Form class group of a discriminant: its reduced forms and invariant factors."""

    D: int
    elements: tuple[Form, ...]
    structure: tuple[int, ...]

    @property
    def h(self) -> int:
        return len(self.elements)

    def to_record(self) -> dict:
        return {
            "D": self.D,
            "h": self.h,
            "structure": list(self.structure),
            "elements": [list(f.as_tuple()) for f in self.elements],
        }


def class_group(D: int) -> ClassGroup:
    """Class group with its invariant factors d_1 | d_2 | ..., read off element orders.

    For each prime p with p^e || h, every form is raised to h/p^e, which maps the
    group m-to-one onto its p-part (m = h/p^e), and then p-powered until it reaches
    the identity. If m*p^s_k forms need at most k p-powerings, the p-part has
    p^s_k elements killed by p^k, so s_k - s_(k-1) cyclic factors have p-exponent
    at least k (Cohen, A Course in Computational Algebraic Number Theory, 5.4).
    """
    elements = _enumerate_reduced(D)
    h, identity = len(elements), principal_form(D)
    factors: list[int] = []  # invariant factors, largest first
    for p, e in factorize(h).items():
        depth = [0] * (e + 1)  # depth[k]: forms needing exactly k p-powerings
        for f in elements:
            g, k = power(f, h // p**e), 0
            while g != identity:
                g, k = power(g, p), k + 1
            depth[k] += 1
        killed = list(accumulate(depth))  # killed[k] = m * p^s_k
        for k in range(1, e + 1):
            grown, i = killed[k] // killed[k - 1], 0  # p^(s_k - s_(k-1))
            while grown > 1:
                if i == len(factors):
                    factors.append(1)
                factors[i] *= p
                grown, i = grown // p, i + 1
    return ClassGroup(D=D, elements=elements, structure=tuple(reversed(factors)))

