"""Higher-weight Jacobians of products of CM elliptic curves.

Everything is computed on isomorphism classes: a CurveClass is (order,
reduced form), a ProductAV is a tuple of classes over one field.  One
kernel lifts a set of classes to the order of their gcd conductor and
composes them: the m-Jacobian applies it to every m-subset, and the
canonical decomposition is the conductor chain plus the kernel on all n
curves (the weight-n Jacobian).  A Jacobian orbit lifts only X's own
classes: its iterates follow in closed form from X's conductors and
terminal class.  The m-Jacobian is also computable from lattices through
cmlattice.image_lattice_L, which the test suite uses as an oracle.
phi returns the principal class without lattice arithmetic when the source
class is principal or the target order has class number one; every other
lift is a lattice_product followed by ideal_class, so for those lifts the
two routes still share these functions, until a forms-only phi lands.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

from . import binforms, cmlattice
from .binforms import Form, compose, element_order, form_to_lattice, power, principal_form
from .cmlattice import CMLattice, LatticeTuple, Order, ideal_class
from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    FieldMismatch,
    NotADivisor,
    OrderMismatch,
    PrimitivityViolation,
)
from .quadfield import FieldTag, factorize

# the 13 discriminants of imaginary quadratic orders with class number one
# (Cox, Primes of the form x^2+ny^2, Thm 7.30): phi into such an order can
# only land on the principal class
CLASS_NUMBER_ONE = frozenset({-3, -4, -7, -8, -11, -12, -16, -19, -27, -28, -43, -67, -163})


@dataclass(frozen=True, slots=True)
class CurveClass:
    """Isomorphism class of a CM elliptic curve: an order and a reduced form."""

    order: Order
    form: Form

    def __post_init__(self):
        object.__setattr__(self, "form", binforms.reduce(self.form))
        if self.form.discriminant != self.order.discriminant:
            raise OrderMismatch(
                f"form disc {self.form.discriminant} != order disc {self.order.discriminant}"
            )

    @classmethod
    def principal(cls, order: Order) -> "CurveClass":
        return cls(order, principal_form(order.discriminant))

    @classmethod
    def of_lattice(cls, lat: CMLattice) -> "CurveClass":
        order, form = ideal_class(lat)
        return cls(order, form)

    @property
    def field(self) -> FieldTag:
        return self.order.field

    @property
    def conductor(self) -> int:
        return self.order.f

    def is_principal(self) -> bool:
        """The reduced form represents 1, so it is the principal form."""
        return self.form.a == 1

    def lattice(self) -> CMLattice:
        return form_to_lattice(self.form)

    def __str__(self):
        return f"({self.order.discriminant}:{self.form})"


@dataclass(frozen=True, slots=True)
class ProductAV:
    """A product E_1 x ... x E_n of pairwise isogenous CM elliptic curves."""

    factors: tuple[CurveClass, ...]

    def __post_init__(self):
        if not self.factors:
            raise DimensionTooSmall("a product needs at least one factor")
        field = self.factors[0].field
        for f in self.factors[1:]:
            if f.field != field:
                raise FieldMismatch("factors with CM by different fields")

    @property
    def field(self) -> FieldTag:
        return self.factors[0].field

    @property
    def n(self) -> int:
        return len(self.factors)

    def conductors(self) -> tuple[int, ...]:
        return tuple(f.conductor for f in self.factors)

    def __str__(self):
        return " x ".join(str(f) for f in self.factors)


def phi(cls: CurveClass, c: int) -> CurveClass:
    """Extension of scalars Cl(Z[f*alpha]) -> Cl(Z[c*alpha]) for c | f.

    Realized as the lattice product with the order of conductor c; it is a
    group homomorphism, phi_{f,f} is the identity and phi_{d,c} o phi_{c,f}
    = phi_{d,f}.  Three answers are known without the lattice round trip:
    c = f returns cls itself, before any target order is built; a principal
    source maps to the principal class of the target; and so does every class when the target has class number one
    (CLASS_NUMBER_ONE), as its class group is trivial.
    """
    f = cls.conductor
    if c < 1 or f % c != 0:
        raise NotADivisor(f"{c} does not divide the conductor {f}")
    if c == f and type(c) is int:  # bools are ints to isinstance
        return cls
    target = Order(cls.field, c)  # refuses a c that is not an int
    if cls.is_principal() or target.discriminant in CLASS_NUMBER_ONE:
        return CurveClass.principal(target)
    lifted = cmlattice.lattice_product(cls.lattice(), target.as_lattice())
    order, form = ideal_class(lifted)
    return CurveClass(order, form)


def _compose_lifts(curves, lift) -> CurveClass:
    """Lift curves over one field to the order of conductor d = gcd and compose.

    lift is phi, or a per-call cache of it when one curve recurs in many sets.
    """
    d = math.gcd(*(e.conductor for e in curves))
    form = functools.reduce(compose, (lift(e, d).form for e in curves))
    return CurveClass(Order(curves[0].field, d), form)


def brauer_jacobian_pair(e1: CurveClass, e2: CurveClass) -> CurveClass:
    """Class of the weight-2 Jacobian of E1 x E2.

    Lives over the order of conductor gcd(f1, f2); with equal orders it is
    just the product of the two classes.
    """
    if e1.field != e2.field:
        raise FieldMismatch("curves with CM by different fields")
    return _compose_lifts((e1, e2), phi)


def m_jacobian(x: ProductAV, m: int) -> ProductAV:
    """The weight-m Jacobian: one factor per m-subset of the curve factors.

    The factor for subset S is prod_{i in S} phi_{d_S, f_i}([E_i]) over the
    order of conductor d_S = gcd of the subset conductors.  phi is cached for
    the call, so each curve is lifted once per target conductor.
    """
    cmlattice.check_weight(x.n, m)
    lift = functools.cache(phi)
    return ProductAV(
        tuple(_compose_lifts(subset, lift) for subset in combinations(x.factors, m))
    )


def m_jacobian_lattice_route(x: ProductAV, m: int) -> ProductAV:
    """Same object computed from period lattices via the wedge-image formula.

    The two routes must agree componentwise.  They share lattice_product and
    ideal_class through phi's lifts of non-principal classes into orders of
    class number above one, until a forms-only phi lands.
    """
    tup = LatticeTuple(tuple(e.lattice() for e in x.factors))
    comps = cmlattice.image_lattice_L(tup, m)
    return ProductAV(tuple(CurveClass.of_lattice(lat) for lat in comps))


def kummer_jacobian(x: ProductAV, m: int) -> ProductAV:
    """m-Jacobian of the Kummer variety of X: canonically that of X itself."""
    return m_jacobian(x, m)


@dataclass(frozen=True, slots=True)
class TwoMaximalReport:
    ok: bool
    reason: str | None
    ns_rank: int | None
    rank_image: int | None


def is_two_maximal(components) -> TwoMaximalReport:
    """Whether a tuple of lattices underlies a 2-maximal complex torus.

    Accepts a LatticeTuple or an iterable of CMLattice.  True iff there are
    at least two components and all endomorphism orders sit in one imaginary
    quadratic field; then NS rank is n^2 and the image lattice in weight 2
    has rank n^2 - n.
    """
    lats = list(components.components if isinstance(components, LatticeTuple) else components)
    n = len(lats)
    if n < 2:
        return TwoMaximalReport(False, "dim X > 1 required", None, None)
    field = lats[0].field
    if any(lat.field != field for lat in lats[1:]):
        return TwoMaximalReport(False, "not isogenous (distinct CM fields)", None, None)
    return TwoMaximalReport(True, None, n * n, n * n - n)


@dataclass(frozen=True, slots=True)
class SurfaceReport:
    """Canonical model of a 2-maximal abelian surface: C/O(A) x Jacobian."""

    big_order: Order
    jacobian: CurveClass
    primitivity_degree: int


def surface_decompose(e1: CurveClass, e2: CurveClass) -> SurfaceReport:
    """E1 x E2 = C/O(A) x Jacobian with O(A) of conductor lcm(f1, f2)."""
    if e1.field != e2.field:
        raise FieldMismatch("curves with CM by different fields")
    f1, f2 = e1.conductor, e2.conductor
    big = Order(e1.field, math.lcm(f1, f2))
    return SurfaceReport(
        big_order=big,
        jacobian=brauer_jacobian_pair(e1, e2),
        primitivity_degree=math.lcm(f1, f2) // math.gcd(f1, f2),
    )


@dataclass(frozen=True, slots=True)
class Decomposition:
    """X = C/R_n x ... x C/R_2 x terminal with r_1 | r_2 | ... | r_n.

    conductors is the ascending divisor chain (r_1 = gcd, r_n = lcm); the
    terminal class has conductor r_1; primitivity_degree = r_2/r_1 for n = 2.
    """

    conductors: tuple[int, ...]
    terminal_class: CurveClass
    primitivity_degree: int | None

    def to_record(self) -> dict:
        return {
            "conductors": list(self.conductors),
            "terminal_order_discriminant": self.terminal_class.order.discriminant,
            "terminal_form": list(self.terminal_class.form.as_tuple()),
            "primitivity_degree": self.primitivity_degree,
        }


def n_decompose(x: ProductAV) -> Decomposition:
    """Canonical decomposition of Lemma-4.13 type from the conductor chain.

    The chain r_1 | ... | r_n is the invariant-factor chain of the
    conductors: r_k carries the k-th smallest exponent of every prime, which
    is where the surface rule applied pair by pair ends up.  The terminal
    class is the weight-n Jacobian, the composed lifts of all n classes to
    the order of conductor r_1.  The result is independent of the factor
    order.
    """
    if x.n < 2:
        raise DimensionTooSmall("decomposition needs n >= 2")
    chain = _chain(x.conductors())
    primitivity = chain[1] // chain[0] if x.n == 2 else None
    return Decomposition(chain, _compose_lifts(x.factors, phi), primitivity)


def _chain(conductors) -> tuple[int, ...]:
    """Invariant-factor chain: the k-th entry carries every prime's k-th smallest exponent."""
    factored = {f: factorize(f) for f in set(conductors)}
    chain = [1] * len(conductors)
    for p in set().union(*factored.values()):
        for k, e in enumerate(sorted(factored[f].get(p, 0) for f in conductors)):
            chain[k] *= p**e
    return tuple(chain)


def is_isomorphic(x: ProductAV, y: ProductAV) -> bool:
    """Equality of canonical decompositions (the full isomorphism invariant)."""
    if x.field != y.field:
        raise FieldMismatch("products over different fields")
    if x.n != y.n:
        raise DimensionMismatch(f"n = {x.n} vs {y.n}")
    if x.n == 1:
        return x.factors[0] == y.factors[0]
    return n_decompose(x) == n_decompose(y)


def is_fixed_point(x: ProductAV) -> bool:
    """Whether X is isomorphic to its (n-1)-Jacobian (n >= 3).

    Holds iff all conductors agree and the terminal class has order
    dividing n - 2; for n = 3 that means X = (C/O)^3.
    """
    if x.n < 3:
        raise DimensionTooSmall("fixed points are defined for n >= 3")
    dec = n_decompose(x)
    if len(set(dec.conductors)) != 1:
        return False
    return (x.n - 2) % element_order(dec.terminal_class.form) == 0


def jacobian_orbit(x: ProductAV) -> list[Decomposition]:
    """Decompositions visited by iterating the (n-1)-Jacobian, up to first repeat.

    Closed form: only X's own decomposition lifts classes.  Let X have
    factors E_j and terminal class t over the order of conductor r_1.  The
    (n-1)-Jacobian has one factor J_S = prod_{j in S} phi_{d_S}(E_j) per
    (n-1)-subset S, with d_S the gcd of the conductors in S; the gcd of all
    the d_S is again r_1.  phi is a homomorphism and phi_{r_1} o phi_{d_S} =
    phi_{r_1}, and each E_j lies in n - 1 of the subsets, so the iterate's
    terminal class is prod_S prod_{j in S} phi_{r_1}(E_j) = t^(n-1) over the
    same order, and its conductors are the d_S.  By induction the k-th
    iterate has terminal class t^((n-1)^k), and its conductor chain follows
    from the conductors alone.
    """
    n = x.n
    if n < 3:
        raise DimensionTooSmall("orbits are defined for n >= 3")
    dec = n_decompose(x)
    cmlattice.check_weight(n, n - 1)  # the budget of the Jacobians it stands for
    conductors, t = x.conductors(), dec.terminal_class
    seen: list[Decomposition] = []
    while dec not in seen:
        seen.append(dec)
        conductors = tuple(math.gcd(*s) for s in combinations(conductors, n - 1))
        t = CurveClass(t.order, power(t.form, n - 1))
        dec = Decomposition(_chain(conductors), t, None)
    return seen


def same_field_of_definition(e1: CurveClass, e2: CurveClass) -> bool:
    """Q(j(E1)) = Q(j(E2)) for classes over one order: [E1]^2 = [E2]^2."""
    if e1.order != e2.order:
        raise OrderMismatch(
            "classes over distinct orders; use field_contains for the phi transfer"
        )
    return power(e1.form, 2) == power(e2.form, 2)


def field_contains(e_small: CurveClass, e_big: CurveClass) -> bool:
    """Q(j(e_small)) inside Q(j(e_big)) for conductors c | f.

    Via the Galois description this is [e_small]^2 = phi_{c,f}([e_big])^2.
    """
    if e_small.field != e_big.field:
        raise FieldMismatch("classes over different fields")
    c, f = e_small.conductor, e_big.conductor
    if f % c != 0:
        raise NotADivisor(f"{c} does not divide {f}")
    return power(e_small.form, 2) == power(phi(e_big, c).form, 2)


def product_definable_over_jacobian_field(e1: CurveClass, e2: CurveClass) -> bool:
    """Whether E1 x E2 admits a model over Q(j(Jacobian)) (primitive case).

    Defined when the orders coincide; true iff the Jacobian class has order
    at most 2 (equivalently, a real j-invariant).
    """
    f1, f2 = e1.conductor, e2.conductor
    if math.gcd(f1, f2) != math.lcm(f1, f2):
        raise PrimitivityViolation("defined only for equal orders (primitive case)")
    return binforms._order_at_most_two(brauer_jacobian_pair(e1, e2).form)
