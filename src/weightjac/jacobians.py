"""Higher-weight Jacobians of products of CM elliptic curves.

Everything is computed on isomorphism classes: a CurveClass is (order,
reduced form), a ProductAV is a tuple of classes over one field.  One
kernel lifts a set of classes to the order of their gcd conductor and
composes them: the m-Jacobian applies it to every m-subset, and the
canonical decomposition is the conductor chain plus the kernel on all n
curves (the weight-n Jacobian); surface_decompose reads the report of a
surface E1 x E2 off that decomposition.  A Jacobian orbit lifts only X's
own classes: its iterates follow in closed form from X's conductors and
terminal class.  _fixed_point returns a fixed-point verdict with the one
decomposition it is read off, as _surface_report reads a surface's.  The
m-Jacobian is also computable from lattices through cmlattice.image_lattice_L,
which the test suite uses as an oracle.  phi returns the principal class
without lattice arithmetic when the source class is principal or the target
order has class number one; every other lift is a lattice_product followed by
ideal_class.  The order a lift lands in, its lattice and its principal class
are each built once per discriminant, in memos bounded by MEMO_SIZE; the
source class's lattice is built once per form, in a memo bounded by the few
classes one product lifts (_lattice).  The lift itself, lattice_product and
ideal_class, runs on every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

from . import binforms, cmlattice
from .binforms import Form, compose, power, principal_form
from .cmlattice import CMLattice, LatticeTuple, Order, form_to_lattice, ideal_class
from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    FieldMismatch,
    NotADivisor,
    OrderMismatch,
    PrimitivityViolation,
)
from .quadfield import MEMO_SIZE, FieldTag, factorize

# the 13 discriminants of imaginary quadratic orders with class number one
# (Cox, Primes of the form x^2+ny^2, Thm 7.30): phi into such an order can
# only land on the principal class
CLASS_NUMBER_ONE = frozenset({-3, -4, -7, -8, -11, -12, -16, -19, -27, -28, -43, -67, -163})

# the order of conductor c in a field, built once per (field, c) for phi's
# targets and the composed classes; typed, so that a bool or float c misses
# the entry of the int it equals and reaches Order, which refuses it
_order = functools.lru_cache(maxsize=MEMO_SIZE, typed=True)(Order)

# the lattice of a reduced form, built once for the classes in hand: phi lifts
# one class into each divisor of its conductor, and the m-Jacobians, the
# decomposition, the orbit and the field predicates of one product lift the
# same few classes again.  The bound is that working set, not MEMO_SIZE: over
# one pass of the 1,200 seed-0 jacobian-algebra products from an empty memo,
# 16 entries build 1,001 lattices, 64 build 971 and 1,024 build 793, against
# 5,459 without a memo; what more entries add beyond that is hits on products
# that come back, which a benchmark loop replaying its deck sees and no caller
# analysing its products once does
_lattice = functools.lru_cache(maxsize=64)(form_to_lattice)


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

    @staticmethod
    @functools.lru_cache(maxsize=MEMO_SIZE)
    def principal(order: Order) -> "CurveClass":
        """The principal class of the order, built once per order."""
        return CurveClass(order, principal_form(order.discriminant))

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
        """The lattice of the reduced form (form_to_lattice), built once per
        form while it stays among the 64 most recently used."""
        return _lattice(self.form)

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
    source maps to the principal class of the target; and so does every
    class when the target has class number one (CLASS_NUMBER_ONE), as its
    class group is trivial.  The target order, its lattice and its principal
    class are each built once per discriminant, and the source class's
    lattice once per form while it is in hand (CurveClass.lattice); the lift
    itself, lattice_product and ideal_class, runs on every call.
    """
    f = cls.conductor
    if c < 1 or f % c != 0:
        raise NotADivisor(f"{c} does not divide the conductor {f}")
    if c == f and type(c) is int:  # bools are ints to isinstance
        return cls
    target = _order(cls.field, c)  # refuses a c that is not an int
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
    return CurveClass(_order(curves[0].field, d), form)


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
    """E1 x E2 = C/O(A) x Jacobian, read off n_decompose (_surface_report);
    ProductAV refuses classes over different fields."""
    return _surface_report(n_decompose(ProductAV((e1, e2))))


def _surface_report(dec: Decomposition) -> SurfaceReport:
    """The SurfaceReport of a surface's decomposition: O(A) has the conductor
    lcm(f1, f2) that ends its chain, the Jacobian is its terminal class."""
    return SurfaceReport(
        big_order=_order(dec.terminal_class.field, dec.conductors[-1]),
        jacobian=dec.terminal_class,
        primitivity_degree=dec.primitivity_degree,
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
    order.  There is no budget on n: _chain factors each distinct conductor
    once and sorts one list of exponents per prime.
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
    dividing n - 2, that is t^(n-2) = 1; for n = 3 that means X = (C/O)^3.
    """
    return _fixed_point(x)[0]


def _fixed_point(x: ProductAV) -> tuple[bool, Decomposition]:
    """is_fixed_point's verdict and the one decomposition it is read off."""
    if x.n < 3:
        raise DimensionTooSmall("fixed points are defined for n >= 3")
    dec = n_decompose(x)
    same = len(set(dec.conductors)) == 1
    t = dec.terminal_class.form
    return same and power(t, x.n - 2) == principal_form(t.discriminant), dec


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
    return _same_square(e1.form, e2.form)


def field_contains(e_small: CurveClass, e_big: CurveClass) -> bool:
    """Q(j(e_small)) inside Q(j(e_big)) for conductors c | f.

    Via the Galois description this is [e_small]^2 = phi_{c,f}([e_big])^2;
    phi refuses a c that does not divide f.
    """
    if e_small.field != e_big.field:
        raise FieldMismatch("classes over different fields")
    return _same_square(e_small.form, phi(e_big, e_small.conductor).form)


def _same_square(f: Form, g: Form) -> bool:
    """[f]^2 = [g]^2, asked once on the class group: [f][g]^-1 has order at most 2."""
    return binforms._order_at_most_two(compose(f, g.conjugate()))


def product_definable_over_jacobian_field(e1: CurveClass, e2: CurveClass) -> bool:
    """Whether E1 x E2 admits a model over Q(j(Jacobian)) (primitive case).

    Defined when the orders coincide; true iff the Jacobian class has order
    at most 2 (equivalently, a real j-invariant).
    """
    f1, f2 = e1.conductor, e2.conductor
    if math.gcd(f1, f2) != math.lcm(f1, f2):
        raise PrimitivityViolation("defined only for equal orders (primitive case)")
    return _definable_over_jacobian_field(brauer_jacobian_pair(e1, e2))


def _definable_over_jacobian_field(jacobian: CurveClass) -> bool:
    """product_definable_over_jacobian_field read off the Jacobian class alone."""
    return binforms._order_at_most_two(jacobian.form)
