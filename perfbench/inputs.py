"""Seeded input generators shared by the workloads.

Everything here draws from a ``random.Random`` the caller seeds, so the same
seed gives the same inputs.  Class numbers are counted here rather than with
``weightjac.binforms.enumerate_reduced``: that function is cached, and
warming its cache during set-up would hide enumeration work from the timed
loop.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

# fundamental discriminants of the fields the curve products live over
FUNDAMENTAL = (-3, -4, -7, -8, -11, -15, -19, -20, -23, -24, -31, -35, -39, -40, -43)
MAX_ORDER_DISC = 20_000


@lru_cache(maxsize=None)
def reduced_forms(D: int) -> tuple[tuple[int, int, int], ...]:
    """The reduced primitive forms (a, b, c) of discriminant D."""
    forms = []
    for a in range(1, math.isqrt(-D // 3) + 1):
        b = -a + 1
        if (b - D) % 2:
            b += 1
        while b <= a:
            num = b * b - D
            if num % (4 * a) == 0:
                c = num // (4 * a)
                if c >= a and not (b < 0 and a == c) and math.gcd(math.gcd(a, abs(b)), c) == 1:
                    forms.append((a, b, c))
            b += 2
    return tuple(forms)


def log_uniform_disc(rng: random.Random, lo: int, hi: int) -> int:
    """A discriminant D with lo <= |D| <= hi, log-uniform in |D|."""
    while True:
        D = -int(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        if D % 4 in (0, 1) and -D >= lo:
            return D


def _primes(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return tuple(p for p in range(limit) if sieve[p])


_PRIMES = _primes(3000)


def _kronecker(D: int, p: int) -> int:
    """The Kronecker symbol (D/p) for a prime p."""
    if p == 2:
        return 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
    r = pow(D % p, (p - 1) // 2, p)
    return 0 if r == 0 else (1 if r == 1 else -1)


def approx_class_number(D: int) -> float:
    """h(D) from the class number formula with L(1, (D/.)) cut off at primes below 3000.

    Within a few percent of the true value; cheap enough to draw discriminants
    near 10^6 by class number, where counting forms takes tens of ms.
    """
    L = 1.0
    for p in _PRIMES:
        L /= 1 - _kronecker(D, p) / p
    w = 6 if D == -3 else 4 if D == -4 else 2
    return w * math.sqrt(-D) * L / (2 * math.pi)


def disc_with_class_number(rng: random.Random, lo: int, hi: int, hmin: int, hmax: int) -> int:
    """A log-uniform D with lo <= |D| <= hi and roughly hmin <= h(D) <= hmax."""
    while True:
        D = log_uniform_disc(rng, lo, hi)
        if hmin <= approx_class_number(D) <= hmax:
            return D


def sl2_transform(form: tuple[int, int, int], rng: random.Random) -> tuple[int, int, int]:
    """An equivalent, usually non-reduced, form: f(px + qy, rx + sy) with ps - qr = 1."""
    a, b, c = form
    p, r = 0, 0
    while math.gcd(p, r) != 1:
        p, r = rng.randint(-3, 3), rng.randint(-3, 3)
    s, minus_q = _bezout(p, r)
    q = -minus_q
    return (
        a * p * p + b * p * r + c * r * r,
        2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
        a * q * q + b * q * s + c * s * s,
    )


def _bezout(x: int, y: int) -> tuple[int, int]:
    """(u, v) with x*u + y*v = gcd(x, y)."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while y:
        k = x // y
        x, y = y, x - k * y
        u0, u1 = u1, u0 - k * u1
        v0, v1 = v1, v0 - k * v1
    return (u0, v0) if x > 0 else (-u0, -v0)


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def field_d(dK: int) -> int:
    """The squarefree d with Q(sqrt(d)) of fundamental discriminant dK."""
    return dK if dK % 4 == 1 else dK // 4


def random_curves(rng: random.Random, n: int, wj) -> list:
    """n CurveClass values over one field, conductors dividing a common L.

    ``wj`` is the imported weightjac package; forms are drawn uniformly from
    the reduced forms of each order and handed over in an equivalent,
    non-reduced shape, so construction has reduction work to do.
    """
    dK = rng.choice(FUNDAMENTAL)
    f_max = math.isqrt(MAX_ORDER_DISC // -dK)
    conductors = _divisors(rng.randint(1, f_max))
    field = wj.FieldTag(field_d(dK))
    out = []
    for _ in range(n):
        order = wj.Order(field, rng.choice(conductors))
        out.append(random_class(rng, order, wj))
    return out


def random_class(rng: random.Random, order, wj):
    form = wj.Form(*sl2_transform(rng.choice(reduced_forms(order.discriminant)), rng))
    return wj.CurveClass(order, form)
