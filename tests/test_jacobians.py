import functools
import hashlib
import json
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightjac import cmlattice, jacobians
from weightjac.binforms import Form, compose, element_order, enumerate_reduced, power
from weightjac.cmlattice import LatticeTuple, Order, canonicalize
from weightjac.errors import (
    BadWeight,
    DimensionMismatch,
    DimensionTooSmall,
    FieldMismatch,
    JacobianTooLarge,
    NotADivisor,
    NotCM,
    OrderMismatch,
    PrimitivityViolation,
)
from weightjac.jacobians import (
    CurveClass,
    ProductAV,
    brauer_jacobian_pair,
    field_contains,
    is_fixed_point,
    is_isomorphic,
    is_two_maximal,
    jacobian_orbit,
    kummer_jacobian,
    m_jacobian,
    m_jacobian_lattice_route,
    n_decompose,
    phi,
    product_definable_over_jacobian_field,
    same_field_of_definition,
    surface_decompose,
)
from weightjac.quadfield import MEMO_SIZE, FieldTag, QuadElem

GAUSS = FieldTag(-1)
EISEN = FieldTag(-3)

GEN_144 = CurveClass(Order(GAUSS, 6), Form(5, -4, 8))  # class of <3, 1+2i>
SQ_144 = CurveClass(Order(GAUSS, 6), Form(4, 0, 9))  # class of <3, 2i>
GEN_108 = CurveClass(Order(EISEN, 6), Form(4, 2, 7))  # class of <3, 2+sqrt(-3)>


def classes_of(D):
    order = Order.from_discriminant(D)
    return [CurveClass(order, f) for f in enumerate_reduced(D)]


def random_product(rng, bound=2000, nmax=4):
    d = [-1, -2, -3, -5, -6, -7, -10, -11, -13][rng.randrange(9)]
    field = FieldTag(d)
    n = rng.randint(2, nmax)
    factors = []
    for _ in range(n):
        fmax = math.isqrt(bound // -field.dK)
        f = rng.randint(1, max(fmax, 1))
        forms = enumerate_reduced(Order(field, f).discriminant)
        factors.append(CurveClass(Order(field, f), forms[rng.randrange(len(forms))]))
    return ProductAV(tuple(factors))


def test_phi_identity_and_surjectivity():
    assert phi(GEN_144, 6) == GEN_144
    images = {phi(e, 3).form.as_tuple() for e in classes_of(-144)}
    assert images == {(1, 0, 9), (2, 2, 5)}
    principal = CurveClass.principal(Order(GAUSS, 6))
    assert phi(principal, 3).is_principal()
    assert phi(principal, 1).is_principal()
    with pytest.raises(NotADivisor):
        phi(GEN_144, 4)
    # unchecked, 2.0 reaches Form as a float coefficient, 4.0 passes as the identity, True acts as 1
    for c in (2.0, 4.0, True):
        with pytest.raises(NotCM, match="positive integer"):
            phi(CurveClass.principal(Order(GAUSS, 4)), c)
    # at f = 1, 1.0 and True equal the conductor: the c = f shortcut still refuses them
    for e in classes_of(-20):
        for c in (1.0, True):
            with pytest.raises(NotCM, match="positive integer"):
                phi(e, c)


def test_memoized_orders_refuse_a_conductor_that_is_not_an_int():
    # phi(cls, 1) and phi(cls, 2) fill the per-(field, c) memo of target orders
    principal = CurveClass.principal(Order(GAUSS, 4))
    assert principal is CurveClass.principal(Order(GAUSS, 4))
    assert phi(principal, 1).is_principal() and phi(principal, 2).is_principal()
    # ... and True, 1.0 and 2.0, which equal and hash like them, still reach Order
    for c in (True, 1.0, 2.0):
        with pytest.raises(NotCM, match="positive integer"):
            phi(principal, c)
        with pytest.raises(NotCM, match="positive integer"):
            jacobians._order(GAUSS, c)
    # _compose_lifts builds the composed class's order from the same memo
    assert brauer_jacobian_pair(GEN_144, SQ_144).order is jacobians._order(GAUSS, 6)


def test_principal_classes_and_target_orders_stay_bounded():
    sweep = [(FieldTag(d), f) for d in (-1, -2, -3) for f in range(1, MEMO_SIZE // 2)]
    assert len(sweep) > MEMO_SIZE
    for field, f in sweep:
        order = jacobians._order(field, f)
        assert order == Order(field, f)
        assert CurveClass.principal(order).is_principal()
    for memo in (jacobians._order, CurveClass.principal):
        assert memo.cache_info().currsize <= MEMO_SIZE


# conductor chains e | c | f with f <= 12
CHAINS = [(e, c, f) for f in range(1, 13) for c in range(1, f + 1) for e in range(1, c + 1)
          if f % c == 0 and c % e == 0]


# each example checks every class of one order, so few examples are needed
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(d=st.sampled_from([-1, -2, -3, -7, -11]), chain=st.sampled_from(CHAINS), i=st.integers(0, 99))
def test_phi_is_a_homomorphism_and_functorial(d, chain, i):
    e, c, f = chain
    classes = classes_of(Order(FieldTag(d), f).discriminant)
    x = classes[i % len(classes)]
    x_c = phi(x, c).form
    for y in classes:
        y_c = phi(y, c)
        # homomorphism
        xy = CurveClass(x.order, compose(x.form, y.form))
        assert phi(xy, c).form == compose(x_c, y_c.form)
        # functoriality phi_{e,c} o phi_{c,f} = phi_{e,f}
        assert phi(y_c, e) == phi(y, e)


def test_phi_is_surjective_sampled():
    rng = random.Random(59)
    for _ in range(20):
        d = [-1, -2, -3, -7, -11][rng.randrange(5)]
        field = FieldTag(d)
        a = rng.randint(2, 10)
        c = rng.choice([k for k in range(1, a) if a % k == 0])
        source = classes_of(Order(field, a).discriminant)
        target = {f.as_tuple() for f in enumerate_reduced(Order(field, c).discriminant)}
        image = {phi(e, c).form.as_tuple() for e in source}
        assert image == target


def reduced_by_gauss(a, b, c):
    """The reduced form properly equivalent to the positive definite (a, b, c)."""
    D = b * b - 4 * a * c
    while True:
        b += 2 * a * ((a - b) // (2 * a))  # into (-a, a]
        c = (b * b - D) // (4 * a)
        if c >= a:
            return (a, -b if c == a and b < 0 else b, c)
        a, b, c = c, -b, a


def phi_by_cox(form, k):
    """phi on the class of a primitive form of discriminant k^2 D' into the
    order of discriminant D', by Cox, Primes of the form x^2+ny^2, §7: an
    ideal prime to k extends to the one of the same norm, so move to a form
    whose leading A = form(x, y) is prime to k, and lift its middle term.
    Integer arithmetic only: it shares no code with phi."""
    a, b, c = form
    D = (b * b - 4 * a * c) // (k * k)

    def value(x, y):
        return a * x * x + b * x * y + c * y * y

    x, y = next(
        (x, y)
        for y in range(4 * k)
        for x in range(-4 * k, 4 * k + 1)
        if math.gcd(x, y) == 1 and math.gcd(value(x, y), k) == 1
    )
    A = value(x, y)
    # a proper change of variables (x, r; y, s) puts A in front
    s = x if y == 0 else pow(x, -1, y)
    r = 0 if y == 0 else (x * s - 1) // y
    b1 = 2 * a * x * r + b * (x * s + r * y) + 2 * c * y * s
    # k B = b1 (mod 2A) and B = D (mod 2), so B^2 = D (mod 4A); when A is odd
    # the parity fixes B modulo 2A, when A is even k is odd and it holds anyway
    modulus = 2 * A if A % 2 == 0 else A
    B = b1 * pow(k, -1, modulus) % modulus
    if (B - D) % 2:
        B += A
    C, rest = divmod(B * B - D, 4 * A)
    assert rest == 0
    return reduced_by_gauss(A, B, C)


def test_phi_matches_the_ideal_extension_of_cox():
    pairs = 0
    for D in range(-3, -2001, -1):
        if D % 4 not in (0, 1):
            continue
        classes = classes_of(D)
        f = classes[0].conductor
        for c in (c for c in range(1, f + 1) if f % c == 0):
            for e in classes:
                assert phi(e, c).form.as_tuple() == phi_by_cox(e.form.as_tuple(), f // c), (e, c)
            pairs += len(classes)
    assert pairs == 19074


def test_m_jacobian_from_the_ideal_extension_of_cox():
    # the products of test_m_jacobian_agrees_with_lattice_route
    rng = random.Random(73)
    for _ in range(40):
        x = random_product(rng, 1200, 4)
        for m in range(2, x.n + 1):
            factors = []
            for subset in combinations(x.factors, m):
                d = math.gcd(*(e.conductor for e in subset))
                lifts = [Form(*phi_by_cox(e.form.as_tuple(), e.conductor // d)) for e in subset]
                factors.append(CurveClass(Order(x.field, d), functools.reduce(compose, lifts)))
            assert m_jacobian(x, m).factors == tuple(factors)


def test_pair_jacobian_examples():
    assert brauer_jacobian_pair(GEN_144, GEN_144) == SQ_144
    principal = CurveClass.principal(Order(GAUSS, 6))
    assert brauer_jacobian_pair(principal, GEN_144) == GEN_144
    # conductors 3 and 4 over Q(sqrt(-3)), both principal
    p3 = CurveClass.principal(Order(EISEN, 3))
    p4 = CurveClass.principal(Order(EISEN, 4))
    out = brauer_jacobian_pair(p3, p4)
    assert out.order == Order(EISEN, 1) and out.is_principal()
    with pytest.raises(FieldMismatch):
        brauer_jacobian_pair(GEN_144, p3)


def test_pair_jacobian_commutative_and_group_like():
    rng = random.Random(67)
    for _ in range(40):
        x = random_product(rng, 1000, 2)
        e1, e2 = x.factors
        assert brauer_jacobian_pair(e1, e2) == brauer_jacobian_pair(e2, e1)
    # equal orders: the group law
    for D in (-144, -108, -192, -84):
        classes = classes_of(D)
        for e1 in classes:
            for e2 in classes:
                got = brauer_jacobian_pair(e1, e2)
                assert got.form == compose(e1.form, e2.form)
                assert got.order == e1.order


def test_m_jacobian_base_and_cube():
    x2 = ProductAV((GEN_144, GEN_144))
    assert m_jacobian(x2, 2).factors == (brauer_jacobian_pair(GEN_144, GEN_144),)
    x3 = ProductAV((GEN_144,) * 3)
    assert m_jacobian(x3, 2).factors == (SQ_144,) * 3
    with pytest.raises(BadWeight):
        m_jacobian(x3, 1)
    with pytest.raises(BadWeight):
        m_jacobian(x3, 4)


def test_m_jacobian_iterated_pair_equivalence():
    rng = random.Random(71)
    for _ in range(25):
        x = random_product(rng, 1500, 4)
        n = x.n
        if n < 2:
            continue
        top = m_jacobian(x, n).factors[0]
        acc = x.factors[0]
        for e in x.factors[1:]:
            acc = brauer_jacobian_pair(acc, e)
        assert acc == top


def test_m_jacobian_agrees_with_lattice_route():
    rng = random.Random(73)
    for _ in range(40):
        x = random_product(rng, 1200, 4)
        for m in range(2, x.n + 1):
            assert m_jacobian(x, m) == m_jacobian_lattice_route(x, m)


def test_lattice_route_folds_one_product_per_curve():
    # one factor of 14 curves: the lattice route folds 13 lattice products
    x = ProductAV(tuple([GEN_144] * 14))
    assert m_jacobian_lattice_route(x, 14) == m_jacobian(x, 14)
    assert m_jacobian(x, 14).n == 1


def test_jacobian_budget_counts_curve_slots():
    # only C(200, 199) = 200 factors, but 39,800 curve slots: both routes refuse at once
    x = ProductAV(tuple([GEN_144] * 200))
    for route in (m_jacobian, m_jacobian_lattice_route):
        with pytest.raises(JacobianTooLarge, match="39800 curve slots"):
            route(x, 199)
    # the closed-form orbit keeps the budget of the (n-1)-Jacobians it stands for
    with pytest.raises(JacobianTooLarge, match="39800 curve slots"):
        jacobian_orbit(x)


def test_kummer_passthrough():
    rng = random.Random(79)
    for _ in range(10):
        x = random_product(rng, 800, 3)
        for m in range(2, x.n + 1):
            assert kummer_jacobian(x, m) == m_jacobian(x, m)


def test_two_maximal_reports():
    a = canonicalize(QuadElem.from_rational(GAUSS, 1), QuadElem.make(GAUSS, 0, 3))
    b = canonicalize(QuadElem.from_rational(GAUSS, 3), QuadElem.make(GAUSS, 1, 1))
    rep = is_two_maximal([a, b])
    assert rep.ok and rep.ns_rank == 4 and rep.rank_image == 2
    rep3 = is_two_maximal(LatticeTuple((a, b, a)))
    assert rep3.ok and rep3.ns_rank == 9 and rep3.rank_image == 6
    mixed = is_two_maximal([a, Order(EISEN, 1).as_lattice()])
    assert not mixed.ok and "isogenous" in mixed.reason
    single = is_two_maximal([a])
    assert not single.ok and "dim" in single.reason


def test_surface_decompose_examples():
    rep = surface_decompose(GEN_144, GEN_144)
    assert rep.big_order == Order(GAUSS, 6)
    assert rep.jacobian == SQ_144
    assert rep.primitivity_degree == 1
    assert product_definable_over_jacobian_field(GEN_144, GEN_144) is True

    rep2 = surface_decompose(GEN_108, GEN_108)
    assert rep2.big_order == Order(EISEN, 6)
    assert rep2.jacobian.form == Form(4, -2, 7)
    assert rep2.primitivity_degree == 1
    assert product_definable_over_jacobian_field(GEN_108, GEN_108) is False

    principal = CurveClass.principal(Order(GAUSS, 4))
    rep3 = surface_decompose(principal, principal)
    assert rep3.big_order == Order(GAUSS, 4)
    assert rep3.jacobian.is_principal()
    assert rep3.primitivity_degree == 1

    with pytest.raises(PrimitivityViolation):
        product_definable_over_jacobian_field(
            CurveClass.principal(Order(GAUSS, 2)), CurveClass.principal(Order(GAUSS, 4))
        )


def test_n_decompose_triple_middle_conductor():
    rng = random.Random(83)
    for _ in range(50):
        x = random_product(rng, 1800, 3)
        if x.n != 3:
            continue
        f1, f2, f3 = x.conductors()
        dec = n_decompose(x)
        d = math.gcd(f1, math.gcd(f2, f3))
        N = math.lcm(f1, math.lcm(f2, f3))
        assert dec.conductors[0] == d and dec.conductors[-1] == N
        assert dec.conductors[1] == f1 * f2 * f3 // (d * N)


def test_n_decompose_equal_conductors_principal():
    for f in (1, 2, 5):
        order = Order(GAUSS, f)
        x = ProductAV((CurveClass.principal(order),) * 4)
        dec = n_decompose(x)
        assert dec.conductors == (f, f, f, f)
        assert dec.terminal_class.is_principal()


def test_n_decompose_matches_surface_for_pairs():
    rng = random.Random(89)
    for _ in range(30):
        x = random_product(rng, 1500, 2)
        e1, e2 = x.factors
        dec = n_decompose(x)
        rep = surface_decompose(e1, e2)
        assert dec.conductors == (rep.jacobian.conductor, rep.big_order.f)
        assert dec.terminal_class == rep.jacobian
        assert dec.primitivity_degree == rep.primitivity_degree


def decompose_by_pair_rule(x: ProductAV):
    """Reference decomposition by the surface rule applied pair by pair.

    Replaces the first pair with conductors incomparable under divisibility
    by (principal class at the lcm, composed lifts at the gcd) until the
    conductors form a chain, then sweeps the class data down it.
    """

    def pair_rule(e1, e2):
        c = math.gcd(e1.conductor, e2.conductor)
        big = CurveClass.principal(Order(e1.field, math.lcm(e1.conductor, e2.conductor)))
        return big, CurveClass(Order(e1.field, c), compose(phi(e1, c).form, phi(e2, c).form))

    work = list(x.factors)
    while True:
        hit = next(
            (
                (i, j)
                for i, j in combinations(range(x.n), 2)
                if work[i].conductor % work[j].conductor and work[j].conductor % work[i].conductor
            ),
            None,
        )
        if hit is None:
            break
        i, j = hit
        work[i], work[j] = pair_rule(work[i], work[j])
    work.sort(key=lambda e: -e.conductor)
    for k in range(x.n - 1):
        work[k], work[k + 1] = pair_rule(work[k], work[k + 1])
    return tuple(e.conductor for e in reversed(work)), work[-1]


def test_n_decompose_matches_pair_rule():
    # conductors from the divisors of 60 and 72, so chains mix several primes
    rng = random.Random(97)
    divisors = sorted({k for k in range(1, 73) if 60 % k == 0 or 72 % k == 0})
    for _ in range(60):
        field = FieldTag(rng.choice([-1, -2, -3, -7]))
        factors = []
        for _ in range(rng.randint(2, 6)):
            order = Order(field, rng.choice(divisors))
            forms = enumerate_reduced(order.discriminant)
            factors.append(CurveClass(order, forms[rng.randrange(len(forms))]))
        x = ProductAV(tuple(factors))
        dec = n_decompose(x)
        assert (dec.conductors, dec.terminal_class) == decompose_by_pair_rule(x)
        for small, big in zip(dec.conductors, dec.conductors[1:]):
            assert big % small == 0


def chain_by_compare_exchange(conductors):
    """Reference chain: gcd/lcm compare-exchange over all pairs, a selection sort per prime."""
    chain = list(conductors)
    for i, j in combinations(range(len(chain)), 2):
        chain[i], chain[j] = math.gcd(chain[i], chain[j]), math.lcm(chain[i], chain[j])
    return tuple(chain)


def test_n_decompose_chain_matches_compare_exchange():
    # conductors up to 2^3 * 3^2 * 5 * 7 = 2520, so chains mix four primes
    rng = random.Random(113)
    for _ in range(40):
        field = FieldTag(rng.choice([-1, -2, -3, -7]))
        conductors = [
            2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2) * rng.choice([1, 5]) * rng.choice([1, 7])
            for _ in range(rng.randint(2, 40))
        ]
        x = ProductAV(tuple(CurveClass.principal(Order(field, f)) for f in conductors))
        assert n_decompose(x).conductors == chain_by_compare_exchange(conductors)


def test_class_number_one_discriminants_are_the_thirteen():
    one = {D for D in range(-20000, -2) if D % 4 in (0, 1) and len(enumerate_reduced(D)) == 1}
    assert jacobians.CLASS_NUMBER_ONE == one


def test_phi_into_class_number_one_matches_the_lattice_product():
    # every (dK, c) with c^2*dK of class number one, every class of every O_f
    # with c | f and f^2*|dK| <= 20000: the shortcut's principal class is the
    # lattice product with the order, read back as a class
    lifts = 0
    for D in jacobians.CLASS_NUMBER_ONE:
        order = Order.from_discriminant(D)
        field, c = order.field, order.f
        target = Order(field, c).as_lattice()
        for f in range(c, math.isqrt(20000 // -field.dK) + 1, c):
            for e in classes_of(Order(field, f).discriminant):
                lifted = cmlattice.lattice_product(e.lattice(), target)
                assert phi(e, c) == CurveClass(*cmlattice.ideal_class(lifted)), (e, c)
                lifts += 1
    assert lifts > 1000


def test_phi_from_a_principal_source_matches_the_lattice_product():
    # every O_f with c | f and f^2*|dK| <= 20000, over every field: the
    # principal class of O_f times the order of conductor c, read back as a
    # class, is what phi returns
    squareful = {m for p in range(2, 142) for m in range(p * p, 20001, p * p)}
    lifts = 0
    for n in range(1, 20001):
        if n in squareful or (n % 4 != 3 and 4 * n > 20000):
            continue
        field = FieldTag(-n)
        for f in range(1, math.isqrt(20000 // -field.dK) + 1):
            source = CurveClass.principal(Order(field, f))
            for c in (c for c in range(1, f + 1) if f % c == 0):
                lifted = cmlattice.lattice_product(source.lattice(), Order(field, c).as_lattice())
                assert phi(source, c) == CurveClass(*cmlattice.ideal_class(lifted)), (source, c)
                lifts += 1
    assert lifts > 10000


def test_phi_into_class_number_one_skips_the_lattice_product(monkeypatch):
    calls = []
    lattice_product = cmlattice.lattice_product
    monkeypatch.setattr(
        cmlattice, "lattice_product", lambda a, b: calls.append(b) or lattice_product(a, b)
    )
    # Cl(-144) -> Cl(-36) (h = 2) goes through the lattice product once ...
    assert phi(GEN_144, 3) == CurveClass(Order(GAUSS, 3), Form(2, 2, 5))
    assert len(calls) == 1
    # ... and lifts into Z[i] (-4), Z[2i] (-16) and Z[3*omega] (-27) not at all
    calls.clear()
    assert phi(GEN_144, 1).is_principal() and phi(GEN_144, 2).is_principal()
    assert phi(CurveClass(Order(EISEN, 6), Form(4, 2, 7)), 3).is_principal()
    assert calls == []


def test_phi_onto_itself_builds_no_order_and_a_principal_source_no_lattice_product(monkeypatch):
    calls = []
    # phi takes its target order from the per-(field, c) memo
    monkeypatch.setattr(jacobians, "_order", lambda *args: calls.append(args) or Order(*args))
    # c = f builds no target order ...
    assert phi(GEN_144, 6) is GEN_144
    assert calls == []
    # ... and a principal source into Cl(-36) (h = 2) no lattice product
    monkeypatch.setattr(cmlattice, "lattice_product", lambda a, b: calls.append(b))
    assert phi(CurveClass.principal(Order(GAUSS, 6)), 3) == CurveClass.principal(Order(GAUSS, 3))
    assert calls == [(GAUSS, 3)]


def test_m_jacobian_lifts_each_curve_once_per_conductor(monkeypatch):
    rng = random.Random(109)
    factors = []
    for _ in range(12):
        order = Order(GAUSS, rng.choice([1, 2, 3, 6]))
        forms = enumerate_reduced(order.discriminant)
        factors.append(CurveClass(order, forms[rng.randrange(len(forms))]))
    x = ProductAV(tuple(factors))
    expected = m_jacobian(x, 6)
    calls = []
    monkeypatch.setattr(jacobians, "phi", lambda cls, c: calls.append(c) or phi(cls, c))
    # one lift per (curve, target conductor), not one per (subset, curve)
    assert m_jacobian(x, 6) == expected
    assert len(calls) <= 12 * 4 < math.comb(12, 6) * 6
    calls.clear()
    n_decompose(x)
    assert len(calls) <= x.n


def test_n_decompose_order_independent():
    rng = random.Random(101)
    for _ in range(25):
        x = random_product(rng, 1500, 4)
        dec = n_decompose(x)
        perm = list(x.factors)
        rng.shuffle(perm)
        assert n_decompose(ProductAV(tuple(perm))) == dec


def test_is_isomorphic_examples():
    x = ProductAV((GEN_144, GEN_144))
    y = ProductAV((CurveClass.principal(Order(GAUSS, 6)), SQ_144))
    assert is_isomorphic(x, y)
    assert is_isomorphic(x, x)
    z = ProductAV((SQ_144, SQ_144))
    assert not is_isomorphic(x, z)
    with pytest.raises(DimensionMismatch):
        is_isomorphic(x, ProductAV((GEN_144,) * 3))
    with pytest.raises(FieldMismatch):
        is_isomorphic(x, ProductAV((GEN_108, GEN_108)))


def test_guards_of_classes_and_products():
    # a form of another discriminant than the order's
    with pytest.raises(OrderMismatch):
        CurveClass(Order(GAUSS, 6), Form(1, 0, 1))
    with pytest.raises(DimensionTooSmall):
        ProductAV(())
    with pytest.raises(DimensionTooSmall):
        n_decompose(ProductAV((GEN_144,)))
    # one curve: isomorphic when the classes are equal
    assert is_isomorphic(ProductAV((GEN_144,)), ProductAV((GEN_144,)))
    assert not is_isomorphic(ProductAV((GEN_144,)), ProductAV((SQ_144,)))
    with pytest.raises(FieldMismatch):
        field_contains(CurveClass.principal(Order(EISEN, 2)), GEN_144)
    # surface_decompose over two fields: ProductAV refuses them
    with pytest.raises(FieldMismatch):
        surface_decompose(GEN_144, GEN_108)


def test_surface_isomorphism_matches_report_equality_exhaustive():
    # pairs of surfaces over one small discriminant: isomorphic exactly when
    # the (big order, Jacobian class) reports coincide
    for D in (-144, -108, -192):
        classes = classes_of(D)
        pairs = [(a, b) for a in classes for b in classes]
        for a1, b1 in pairs:
            for a2, b2 in pairs:
                x = ProductAV((a1, b1))
                y = ProductAV((a2, b2))
                same_report = surface_decompose(a1, b1) == surface_decompose(a2, b2)
                assert is_isomorphic(x, y) == same_report


def test_is_isomorphic_is_equivalence_sampled():
    rng = random.Random(103)
    for _ in range(15):
        x = random_product(rng, 900, 3)
        assert is_isomorphic(x, x)
        y = random_product(rng, 900, 3)
        if x.n == y.n and x.field == y.field:
            assert is_isomorphic(x, y) == is_isomorphic(y, x)


def test_fixed_points():
    for D in (-36, -144, -108, -192):
        order = Order.from_discriminant(D)
        cube = ProductAV((CurveClass.principal(order),) * 3)
        assert is_fixed_point(cube)
    assert not is_fixed_point(ProductAV((GEN_144,) * 3))
    # the cube can be a fixed point even when written with nonprincipal factors
    inv = CurveClass(Order(GAUSS, 6), power(GEN_144.form, -1))
    balanced = ProductAV((GEN_144, inv, CurveClass.principal(Order(GAUSS, 6))))
    assert is_fixed_point(balanced)
    # n = 4: (C/O)^3 x E with [E] of order 2
    x4 = ProductAV((CurveClass.principal(Order(GAUSS, 6)),) * 3 + (SQ_144,))
    assert is_fixed_point(x4)
    assert not is_fixed_point(ProductAV((CurveClass.principal(Order(GAUSS, 6)),) * 3 + (GEN_144,)))
    with pytest.raises(DimensionTooSmall):
        is_fixed_point(ProductAV((GEN_144, GEN_144)))


def test_orbit_fixed_point_is_singleton():
    cube = ProductAV((CurveClass.principal(Order(GAUSS, 3)),) * 3)
    assert len(jacobian_orbit(cube)) == 1


def test_orbit_order_three_terminal():
    # disc -108 generator has order 3; exponents 2^k cycle 2, 4=1, ...
    x = ProductAV((GEN_108,) * 3)
    orbit = jacobian_orbit(x)
    t = n_decompose(x).terminal_class.form
    for k, dec in enumerate(orbit):
        assert dec.terminal_class.form == power(t, 2 ** k)
    assert len(orbit) <= 3 + 1


def test_orbit_order_four_terminal():
    x = ProductAV((GEN_144,) * 3)
    orbit = jacobian_orbit(x)
    t = n_decompose(x).terminal_class.form
    for k, dec in enumerate(orbit):
        assert dec.terminal_class.form == power(t, 2 ** k)
    # exponents 1, 2, 4, 8... stabilize at the principal class
    assert orbit[-1].terminal_class.is_principal()
    with pytest.raises(DimensionTooSmall):
        jacobian_orbit(ProductAV((GEN_144, GEN_144)))


def test_orbit_exponent_law_random():
    rng = random.Random(107)
    for _ in range(20):
        x = random_product(rng, 1200, 4)
        if x.n < 3:
            continue
        orbit = jacobian_orbit(x)
        t = n_decompose(x).terminal_class.form
        n = x.n
        for k, dec in enumerate(orbit):
            assert dec.terminal_class.form == power(t, (n - 1) ** k)


def orbit_by_iteration(x: ProductAV):
    """Reference orbit: decompose, take the (n-1)-Jacobian, repeat until a decomposition recurs."""
    seen = []
    current = x
    while (dec := n_decompose(current)) not in seen:
        seen.append(dec)
        current = m_jacobian(current, x.n - 1)
    return seen


def random_orbit_product(rng):
    # conductors base * {1, 2, 3, 4, 6}: gcds above 1, so terminal classes of order > 2 occur
    field = FieldTag(rng.choice([-1, -2, -3, -7, -11]))
    base = rng.choice([1, 2, 3, 5, 6, 7])
    factors = []
    for _ in range(rng.randint(3, 5)):
        order = Order(field, base * rng.choice([1, 2, 3, 4, 6]))
        forms = enumerate_reduced(order.discriminant)
        factors.append(CurveClass(order, forms[rng.randrange(len(forms))]))
    return ProductAV(tuple(factors))


def test_orbit_matches_literal_iteration():
    rng = random.Random(127)
    lengths = []
    for _ in range(300):
        x = random_orbit_product(rng)
        orbit = jacobian_orbit(x)
        assert orbit == orbit_by_iteration(x)
        assert is_fixed_point(x) == (len(orbit) == 1)
        lengths.append(len(orbit))
    assert max(lengths) >= 5 and min(lengths) == 1


def test_orbit_lifts_only_the_products_own_classes(monkeypatch):
    x = ProductAV((GEN_144, SQ_144, CurveClass.principal(Order(GAUSS, 12))))
    expected = orbit_by_iteration(x)
    assert len(expected) >= 3
    calls = []
    monkeypatch.setattr(jacobians, "phi", lambda cls, c: calls.append(c) or phi(cls, c))
    assert jacobian_orbit(x) == expected
    assert len(calls) <= x.n


def test_same_field_of_definition():
    e1, e2 = classes_of(-36)
    assert same_field_of_definition(e1, e2)
    # disc -144: <3,2i> has real j, <3,1+2i> does not; the fields differ
    assert not same_field_of_definition(SQ_144, GEN_144)
    assert same_field_of_definition(CurveClass.principal(Order(GAUSS, 6)), SQ_144)
    # disc -108: all three classes generate distinct cubic fields
    c108 = classes_of(-108)
    for a, b in combinations(c108, 2):
        assert not same_field_of_definition(a, b)
    # disc -192: all four classes generate one quartic field
    c192 = classes_of(-192)
    for a, b in combinations(c192, 2):
        assert same_field_of_definition(a, b)
    with pytest.raises(OrderMismatch):
        same_field_of_definition(GEN_144, e1)


def test_field_contains():
    # Q(sqrt(3)) sits inside both quartic fields of disc -144
    for big in classes_of(-144):
        e_small = CurveClass(Order(GAUSS, 3), phi(big, 3).form)
        assert field_contains(e_small, big)
        # Cl(-36) has exponent 2: either class's field sits inside, not only phi's image
        for other in classes_of(-36):
            assert field_contains(other, big)
    principal36 = CurveClass.principal(Order(GAUSS, 3))
    assert field_contains(principal36, CurveClass.principal(Order(GAUSS, 6)))
    with pytest.raises(NotADivisor):
        field_contains(CurveClass.principal(Order(GAUSS, 4)), CurveClass.principal(Order(GAUSS, 6)))


def test_field_predicates_match_the_squares_definition():
    # the predicates ask whether [E1][E2]^-1 lies in Cl[2]; the definition squares both classes
    rng = random.Random(1117)
    verdicts = set()
    for _ in range(400):
        field = FieldTag(rng.choice([-1, -2, -3, -5, -7, -15]))
        f = rng.choice([1, 2, 3, 4, 6, 8, 12, 15])
        c = rng.choice([k for k in range(1, f + 1) if f % k == 0])
        big, other = (rng.choice(classes_of(Order(field, f).discriminant)) for _ in range(2))
        small = rng.choice(classes_of(Order(field, c).discriminant))
        same = power(big.form, 2) == power(other.form, 2)
        contained = power(small.form, 2) == power(phi(big, c).form, 2)
        assert same_field_of_definition(big, other) == same
        assert field_contains(small, big) == contained
        verdicts |= {same, contained}
    assert verdicts == {True, False}


def test_fixed_point_matches_the_order_of_the_terminal_class():
    # one power t^(n-2) against the definition by the order of t
    rng = random.Random(1123)
    verdicts = []
    for _ in range(300):
        field = FieldTag(rng.choice([-1, -2, -3, -7, -11]))
        # mostly one conductor, so that the conductor test passes often
        f, other = rng.choice([3, 5, 6, 9]), rng.choice([3, 5, 6, 9])
        factors = []
        for _ in range(rng.randint(3, 7)):
            order = Order(field, other if rng.random() < 0.1 else f)
            forms = enumerate_reduced(order.discriminant)
            factors.append(CurveClass(order, forms[rng.randrange(len(forms))]))
        x = ProductAV(tuple(factors))
        dec = n_decompose(x)
        t = dec.terminal_class.form
        expected = len(set(dec.conductors)) == 1 and (x.n - 2) % element_order(t) == 0
        assert is_fixed_point(x) == expected
        verdicts.append(expected)
    assert 10 < sum(verdicts) < len(verdicts) - 10


def test_each_lifted_class_builds_its_lattice_once(monkeypatch):
    # one product analysed as a jacobian-algebra op analyses it: every weight,
    # the decomposition, the orbit and a field predicate lift the same
    # classes again, but each source class's lattice is built once
    small = classes_of(-36)[1]
    x = ProductAV((classes_of(-576)[1], GEN_144, SQ_144, small))
    jacobians._lattice.cache_clear()
    built, sources = [], []
    from_generators, lattice_product = cmlattice.from_generators, cmlattice.lattice_product

    def build(*args):
        built.append(from_generators(*args))
        return built[-1]

    def lift(source, target):
        sources.append(source)
        return lattice_product(source, target)

    monkeypatch.setattr(cmlattice, "from_generators", build)
    monkeypatch.setattr(cmlattice, "lattice_product", lift)
    for m in range(2, x.n + 1):
        m_jacobian(x, m)
    n_decompose(x)
    jacobian_orbit(x)
    assert field_contains(small, GEN_144)
    assert len(sources) > len(set(sources)) > 1
    assert len(built) == len(set(built)) and set(built) == set(sources)


def golden_product(rng):
    """2-4 classes over one field, conductors dividing a common L, so pairs share orders or nest."""
    field = FieldTag(rng.choice([-1, -2, -3, -5, -7, -15]))
    L = rng.choice([1, 2, 4, 6, 12, 18, 30])
    divisors = [f for f in range(1, L + 1) if L % f == 0]
    factors = []
    for _ in range(rng.randint(2, 4)):
        order = Order(field, rng.choice(divisors))
        forms = enumerate_reduced(order.discriminant)
        factors.append(CurveClass(order, forms[rng.randrange(len(forms))]))
    return ProductAV(tuple(factors))


def jacobian_api_text(x: ProductAV) -> str:
    """Every Jacobian-API output on x: each weight, the decomposition, the orbit, the fod predicates."""
    lines = [str(x)]
    lines += [str(m_jacobian(x, m)) for m in range(2, x.n + 1)]
    lines.append(json.dumps(n_decompose(x).to_record()))
    if x.n >= 3:
        lines.append(json.dumps([dec.to_record() for dec in jacobian_orbit(x)]))
        lines.append(str(is_fixed_point(x)))
    for e1, e2 in combinations(x.factors, 2):
        if e1.order == e2.order:
            fod = (same_field_of_definition(e1, e2), product_definable_over_jacobian_field(e1, e2))
        elif e2.conductor % e1.conductor == 0:
            fod = field_contains(e1, e2)
        elif e1.conductor % e2.conductor == 0:
            fod = field_contains(e2, e1)
        else:
            fod = None
        lines.append(str(fod))
    return "\n".join(lines)


# sha256 of the Jacobian API's outputs on the 300 golden products, recorded at
# a version whose phi ran form_to_lattice on both sides of the lattice product
GOLDEN_JACOBIAN_SHA256 = "4b9ad5da632bd2c0e3c25715d2633ce93f5b0fb5fa9539e915b3fa9a00f38484"


def test_jacobian_api_golden_digest():
    rng = random.Random(1931)
    digest = hashlib.sha256()
    sizes = set()
    for _ in range(300):
        x = golden_product(rng)
        sizes.add(x.n)
        digest.update(jacobian_api_text(x).encode() + b"\n\n")
    assert sizes == {2, 3, 4}
    assert digest.hexdigest() == GOLDEN_JACOBIAN_SHA256
