"""Lattices in an imaginary quadratic field.

A CMLattice is a rank-2 Z-module inside Q(sqrt(d)), stored in a canonical
Hermite-normalized basis <p/den, (q + r*sqrt(d))/den>.  Every such lattice has
complex multiplication, its endomorphism ring is an order, and homothety
classes correspond to reduced binary quadratic forms (Cox, Primes of the form
x^2+ny^2, §7): form_to_lattice takes (a, b, c) to the proper ideal
(a, (-b+sqrt(D))/2) of the order of discriminant D, and ideal_class reads the
order and the reduced form back off tau.  The basis data are integers, so the
lattice product and the Hermite normal form (Cohen, A Course in Computational
Algebraic Number Theory, 2.4.2) run on integer rows (x, y) standing for
(x + y*sqrt(d))/den; rational generators are first cleared to such rows over
the lcm of their denominators.  The lattice product (additive span of pairwise
element products), folded over wedge-image duals, is the lattice route to
higher-weight Jacobians (jacobians.m_jacobian_lattice_route), the oracle of
the class route.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import binforms
from .binforms import Form, fundamental_decomposition
from .errors import BadWeight, DegenerateBasis, FieldMismatch, JacobianTooLarge, NotCM, ParseError
from .quadfield import MEMO_SIZE, FieldTag, QuadElem, digit_budget, parse_int, parse_quadelem


@dataclass(frozen=True, slots=True)
class Order:
    """The order Z + f*O_K of conductor f in the field Q(sqrt(d))."""

    field: FieldTag
    f: int

    def __post_init__(self):
        if type(self.f) is not int or self.f < 1:  # bools are ints to isinstance
            raise NotCM(f"conductor must be a positive integer, got {self.f!r}")

    @property
    def discriminant(self) -> int:
        return self.f * self.f * self.field.dK

    @staticmethod
    @functools.lru_cache(maxsize=MEMO_SIZE, typed=True)
    def from_discriminant(D: int) -> "Order":
        """The order of discriminant D, built once per D (typed: -4.0 is not -4)."""
        dK, f = fundamental_decomposition(D)
        d = dK if dK % 4 == 1 else dK // 4
        return Order(FieldTag(d), f)

    @functools.lru_cache(maxsize=MEMO_SIZE)
    def as_lattice(self) -> "CMLattice":
        """The order itself, from its integer basis {1, f*omega}, built once per order.

        omega = (dK + sqrt(dK))/2 (Cox, Primes of the form x^2+ny^2, §7), and
        sqrt(dK) = s*sqrt(d) with s = 1 when dK = d is odd and s = 2 when
        dK = 4d.  So the basis is the integer rows (2, 0) and (f*dK, f*s)
        over den 2: the lattice of the principal form, without building it.
        """
        dK, f = self.field.dK, self.f
        s = 1 if dK % 2 else 2
        return _from_rows(self.field, 2, [(2, 0), (f * dK, f * s)])

    def __str__(self):
        return f"O(d={self.field.d}, f={self.f})"


@dataclass(frozen=True, slots=True)
class CMLattice:
    """Canonical basis <p/den, (q + r*sqrt(d))/den>; p, r > 0, 0 <= q < p,
    all four of type int."""

    field: FieldTag
    den: int
    p: int
    q: int
    r: int

    def __post_init__(self):
        ok = (
            # bools are ints to isinstance, and a float would reach math.gcd
            type(self.den) is int
            and type(self.p) is int
            and type(self.q) is int
            and type(self.r) is int
            and self.den > 0
            and self.p > 0
            and self.r > 0
            and 0 <= self.q < self.p
            and math.gcd(math.gcd(self.p, self.q), math.gcd(self.r, self.den)) == 1
        )
        if not ok:
            raise DegenerateBasis(f"non-canonical lattice data {self!r}")

    @property
    def g1(self) -> QuadElem:
        return QuadElem(self.field, Fraction(self.p, self.den), Fraction(0))

    @property
    def g2(self) -> QuadElem:
        return QuadElem(self.field, Fraction(self.q, self.den), Fraction(self.r, self.den))

    @property
    def tau(self) -> QuadElem:
        """g2/g1, normalized to the upper half-plane by construction."""
        return QuadElem(self.field, Fraction(self.q, self.p), Fraction(self.r, self.p))

    def scaled(self, factor) -> "CMLattice":
        """The homothetic lattice factor * L (factor a nonzero QuadElem or rational)."""
        if isinstance(factor, (int, Fraction)):
            factor = QuadElem.make(self.field, factor, 0)
        return canonicalize(self.g1 * factor, self.g2 * factor)

    def contains(self, z: QuadElem) -> bool:
        """Exact membership test against the canonical basis."""
        if z.field != self.field:
            return False
        # z = m*(p/den) + n*(q + r sqrt d)/den with integer m, n
        n = z.y * self.den / self.r
        if n.denominator != 1:
            return False
        m = (z.x * self.den - n * self.q) / self.p
        return m.denominator == 1

    def __str__(self):
        return f"⟨{self.g1}, {self.g2}⟩"


def _hnf_pairs(rows: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Hermite form of the Z-span of integer vectors (x, y).

    Returns (p, q, r) with span = Z*(p, 0) + Z*(q, r), p, r > 0, 0 <= q < p.
    Raises DegenerateBasis when the span has rank < 2.
    """
    q = r = 0
    xs: list[int] = []
    for x, y in rows:
        if y == 0:
            if x:
                xs.append(x)
            continue
        if r == 0:
            q, r = x, y
            continue
        g, s, t = binforms._ext_gcd(r, y)
        xs.append((y // g) * q - (r // g) * x)
        q, r = s * q + t * x, g
    if r == 0:
        raise DegenerateBasis("generators span rank < 2")
    if r < 0:
        q, r = -q, -r
    p = 0
    for x in xs:
        p = math.gcd(p, abs(x))
    if p == 0:
        raise DegenerateBasis("generators span rank < 2")
    return (p, q % p, r)


def from_generators(field: FieldTag, gens: list[QuadElem]) -> CMLattice:
    """Canonical lattice spanned over Z by the given elements."""
    den = 1
    for g in gens:
        if g.field is not field and g.field != field:
            raise FieldMismatch(f"{g} not in Q(sqrt({field.d}))")
        den = math.lcm(den, g.x.denominator, g.y.denominator)
    rows = [
        (g.x.numerator * (den // g.x.denominator), g.y.numerator * (den // g.y.denominator))
        for g in gens
    ]
    return _from_rows(field, den, rows)


def form_to_lattice(form: Form) -> CMLattice:
    """The lattice with basis {a, (-b+sqrt(D))/2} inside Q(sqrt(d)).

    Its endomorphism order has discriminant D = b^2 - 4ac.
    """
    D = form.discriminant
    field = Order.from_discriminant(D).field
    # sqrt(D) = t*sqrt(d) with t = sqrt(D/d)
    t = math.isqrt(D // field.d)
    g1 = QuadElem(field, Fraction(form.a), Fraction(0))
    g2 = QuadElem(field, Fraction(-form.b, 2), Fraction(t, 2))
    return from_generators(field, [g1, g2])


def _from_rows(field: FieldTag, den: int, rows: list[tuple[int, int]]) -> CMLattice:
    """Canonical lattice spanned by the (x + y*sqrt(d))/den for integer rows (x, y)."""
    p, q, r = _hnf_pairs(rows)
    g = math.gcd(p, q, r, den)
    return CMLattice(field, den // g, p // g, q // g, r // g)


def canonicalize(g1: QuadElem, g2: QuadElem) -> CMLattice:
    """Canonical basis of Z*g1 + Z*g2 (generators must be R-independent)."""
    return from_generators(g1.field, [g1, g2])


def lattice_product(lat1: CMLattice, lat2: CMLattice) -> CMLattice:
    """Additive span of pairwise products; again a lattice for CM inputs.

    The endomorphism order of the result has conductor gcd(f1, f2).  The four
    products of <p/den, (q + r*sqrt(d))/den> generators are integer rows over
    den1*den2, so no rational arithmetic is needed.
    """
    if lat1.field != lat2.field:
        raise FieldMismatch(f"{lat1.field} vs {lat2.field}")
    d = lat1.field.d
    p1, q1, r1 = lat1.p, lat1.q, lat1.r
    p2, q2, r2 = lat2.p, lat2.q, lat2.r
    rows = [
        (p1 * p2, 0),
        (p1 * q2, p1 * r2),
        (q1 * p2, r1 * p2),
        (q1 * q2 + d * r1 * r2, q1 * r2 + r1 * q2),
    ]
    return _from_rows(lat1.field, lat1.den * lat2.den, rows)


def ideal_class(lat: CMLattice) -> tuple[Order, Form]:
    """(endomorphism order, reduced form of the homothety class)."""
    a, b, c = lat.tau.minimal_polynomial()
    return (Order.from_discriminant(b * b - 4 * a * c), binforms.reduce(Form(a, b, c)))


def is_homothetic(lat1: CMLattice, lat2: CMLattice) -> bool:
    """True iff the lattices differ by a nonzero complex scale."""
    if lat1.field != lat2.field:
        raise FieldMismatch(f"{lat1.field} vs {lat2.field}")
    return ideal_class(lat1) == ideal_class(lat2)


def conjugate_lattice(lat: CMLattice) -> CMLattice:
    """Elementwise complex conjugate, a representative of the inverse class.

    lattice_product(L, conjugate_lattice(L)) is homothetic to End(L).
    """
    return canonicalize(lat.g1.conj(), lat.g2.conj())


@dataclass(frozen=True, slots=True)
class LatticeTuple:
    """Nonempty tuple of lattices over one field (hence pairwise isogenous)."""

    components: tuple[CMLattice, ...]

    def __post_init__(self):
        if not self.components:
            raise DegenerateBasis("empty lattice tuple")
        field = self.components[0].field
        for lat in self.components[1:]:
            if lat.field != field:
                raise FieldMismatch("tuple components in different fields")

    @property
    def field(self) -> FieldTag:
        return self.components[0].field

    def __len__(self):
        return len(self.components)


# a weight-m Jacobian of n curves has C(n, m) factors of m curves each; both
# routes spend about the same time per curve slot, and more slots fail fast
MAX_JACOBIAN_SLOTS = 10**4


def check_weight(n: int, m: int) -> None:
    """Raise unless 2 <= m <= n and the C(n, m)*m curve slots fit the budget."""
    if m < 2 or m > n:
        raise BadWeight(f"need 2 <= m <= {n}, got {m}")
    slots, budget = math.comb(n, m) * m, MAX_JACOBIAN_SLOTS
    if slots > budget:
        raise JacobianTooLarge(f"C({n}, {m})*{m} = {slots} curve slots, above the {budget} budget")


def image_lattice_L(tup: LatticeTuple, m: int) -> list[CMLattice]:
    """Image of wedge^m of the dual lattice in the antiholomorphic cotangent space.

    Component for indices i1 < ... < im is spanned by the 2^m products of
    {-eps_j * tau_j, eps_j} with eps_j = 1/(conj(tau_j) - tau_j), which by
    bilinearity is the lattice product of the duals <-eps_j * tau_j, eps_j>,
    a fold of m - 1 products.  It comes out homothetic to the lattice product
    of the corresponding components.
    """
    check_weight(len(tup), m)
    one = QuadElem.from_rational(tup.field, 1)
    duals = []
    for lat in tup.components:
        tau = lat.tau
        eps = one / (tau.conj() - tau)
        duals.append(canonicalize(-(eps * tau), eps))
    return [functools.reduce(lattice_product, subset) for subset in combinations(duals, m)]


# den, p, q < p, r and |d| of a parsed lattice stay below 10^MAX_LATTICE_DIGITS,
# so its reports print under Python's default int/str limit of 4,300 digits:
# tau = (q + r*sqrt(d))/p has a discriminant D dividing 4*p^2*r^2*d, so D, the
# conductor and the reduced class form (endring, homothety, jinv) have at most
# 5*850 + 1 = 4,251 digits; a latprod has den, p and r below 10^1700, and its
# order has conductor gcd(f1, f2), so a D no larger than its factors' D.
# A lower int/str limit scales the cap down (digit_budget).
MAX_LATTICE_DIGITS = 850

# ⟨g1, g2⟩ as printed, field named by the generators, or <g1;g2>@d
_LATTICE_RE = re.compile(
    r"⟨\s*(?P<g1>[^,⟩]+?)\s*,\s*(?P<g2>[^,⟩]+?)\s*⟩"
    r"|<\s*(?P<h1>[^;>]+?)\s*;\s*(?P<h2>[^>]+?)\s*>\s*@\s*(?P<d>-[0-9]+)"
)


def parse_lattices(text: str) -> list[CMLattice]:
    """Parse comma-separated lattice literals, each in its own field.

    A literal is written as printed, "⟨1+0*sqrt(-1), 0+3*sqrt(-1)⟩", its field
    read off the sqrt(d) of its p/q or x+y*sqrt(d) generators, or as
    "<1;3*sqrt(-1)>@-1" with the field named after the @.  A lattice whose
    canonical data exceed digit_budget(MAX_LATTICE_DIGITS) digits is a ParseError.
    """
    matches = list(_LATTICE_RE.finditer(text))
    rest = _LATTICE_RE.sub("", text).replace(",", "").strip()
    if not matches or rest:
        raise ParseError(f"lattice list must look like '<g1;g2>@d,...': {text!r}")
    cap = digit_budget(MAX_LATTICE_DIGITS)
    out = []
    for m in matches:
        if m["d"] is None:
            first, second = m["g1"], m["g2"]
            tag = re.search(r"sqrt\(\s*(-[0-9]+)\s*\)", first + second)
            field = FieldTag(parse_int(tag[1])) if tag else None
        else:
            first, second = m["h1"], m["h2"]
            field = FieldTag(parse_int(m["d"]))
        lat = canonicalize(parse_quadelem(first, field), parse_quadelem(second, field))
        if max(lat.den, lat.p, lat.r, -lat.field.d) >= 10**cap:
            raise ParseError(f"{m[0]!r} has canonical data of over {cap} digits")
        out.append(lat)
    return out


def parse_lattice(text: str) -> CMLattice:
    """Parse exactly one lattice literal, in either spelling of parse_lattices."""
    lats = parse_lattices(text)
    if len(lats) != 1:
        raise ParseError(f"not a lattice literal: {text!r}")
    return lats[0]
