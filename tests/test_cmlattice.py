import math
import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightjac import binforms, cmlattice
from weightjac.binforms import Form, compose, enumerate_reduced, form_to_lattice
from weightjac.cmlattice import (
    CMLattice,
    LatticeTuple,
    Order,
    canonicalize,
    conjugate_lattice,
    endomorphism_order,
    from_generators,
    ideal_class,
    image_lattice_L,
    is_homothetic,
    lattice_product,
    parse_lattice,
)
from weightjac.errors import BadWeight, DegenerateBasis, FieldMismatch, NotCM, ParseError
from weightjac.quadfield import FieldTag, QuadElem, is_squarefree

GAUSS = FieldTag(-1)
EISEN = FieldTag(-3)


def q(x, y, field=GAUSS):
    return QuadElem.make(field, x, y)


def lat(g1x, g1y, g2x, g2y, field=GAUSS):
    return canonicalize(q(g1x, g1y, field), q(g2x, g2y, field))


def random_class_lattice(rng, bound=2000):
    """Random (D, reduced form) with |D| <= bound, as a lattice."""
    while True:
        D = -rng.randrange(3, bound + 1)
        if D % 4 in (0, 1):
            forms = enumerate_reduced(D)
            return D, form_to_lattice(forms[rng.randrange(len(forms))])


def test_canonicalize_reorders_generators():
    a = canonicalize(q(0, 3), q(1, 0))
    assert (a.den, a.p, a.q, a.r) == (1, 1, 0, 3)
    assert str(a) == "⟨1+0*sqrt(-1), 0+3*sqrt(-1)⟩"


def test_canonicalize_sign_of_second_generator():
    a = canonicalize(q(2, 0), q(-1, 3))
    b = canonicalize(q(2, 0), q(1, 3))
    assert a == b
    # membership oracle in both directions
    for z in (q(2, 0), q(-1, 3), q(1, 3)):
        assert a.contains(z)


def test_canonicalize_scaling_consistency():
    a = canonicalize(q(1, 0), q(F(1, 3), F(2, 3)))
    b = canonicalize(q(F(1, 3), 0), q(F(1, 9), F(2, 9)))
    assert b == a.scaled(F(1, 3))
    assert is_homothetic(a, b)


def test_degenerate_basis_rejected():
    with pytest.raises(DegenerateBasis):
        canonicalize(q(1, 0), q(2, 0))
    with pytest.raises(DegenerateBasis):
        canonicalize(q(0, 0), q(1, 2))


def test_lattice_data_must_be_ints():
    # True equalled the lattice with den 1, and a float p raised TypeError in math.gcd
    for den, p, q_, r in ((True, 1, 0, 1), (1, 2.0, 1, 1), (1, 1, 0.0, 1), (1, 1, 0, F(3))):
        with pytest.raises(DegenerateBasis):
            CMLattice(GAUSS, den, p, q_, r)
    assert CMLattice(GAUSS, 1, 1, 0, 1) == Order(GAUSS, 1).as_lattice()


def test_endomorphism_orders():
    assert endomorphism_order(lat(1, 0, 0, 3)) == Order(GAUSS, 3)
    assert endomorphism_order(lat(3, 0, 1, 2)) == Order(GAUSS, 6)
    assert endomorphism_order(lat(1, 0, 0, 1)) == Order(GAUSS, 1)
    assert Order(GAUSS, 3).discriminant == -36
    assert Order(GAUSS, 6).discriminant == -144
    assert Order.from_discriminant(-108) == Order(EISEN, 6)


def test_order_refuses_conductors_that_are_not_ints():
    # True would equal and hash like 1, and 2.0 would give a float discriminant
    for f in (True, 2.0, 0, -3):
        with pytest.raises(NotCM, match="positive integer"):
            Order(GAUSS, f)
    assert Order(GAUSS, 2).discriminant == -16


def test_order_lattice_is_ring_lattice():
    for order in (Order(GAUSS, 1), Order(GAUSS, 6), Order(EISEN, 2), Order(FieldTag(-7), 3)):
        ol = order.as_lattice()
        assert endomorphism_order(ol) == order
        # closed under multiplication
        for a in ol.generators():
            for b in ol.generators():
                assert ol.contains(a * b)


def test_order_lattice_is_its_integer_basis():
    for d in range(-200, 0):
        if not is_squarefree(d):
            continue
        field = FieldTag(d)
        dK = field.dK
        # sqrt(dK) = t*sqrt(d), and omega = (dK + sqrt(dK))/2 is integral of discriminant dK
        t = math.isqrt(dK // d)
        assert t * t * d == dK
        omega = q(F(dK, 2), F(t, 2), field)
        assert omega * omega == omega * dK - q(F(dK * dK - dK, 4), 0, field)
        for f in range(1, 31):
            order = Order(field, f)
            lattice = order.as_lattice()
            assert lattice == form_to_lattice(binforms.principal_form(order.discriminant))
            assert lattice == canonicalize(q(1, 0, field), omega * f)


def test_order_lattice_builds_no_form_and_no_generators(monkeypatch):
    orders = [Order(field, f) for field in (GAUSS, EISEN, FieldTag(-2)) for f in (1, 2, 6)]
    expected = [form_to_lattice(binforms.principal_form(o.discriminant)) for o in orders]

    def refuse(*args):
        raise AssertionError("Order.as_lattice left its integer basis")

    monkeypatch.setattr(binforms, "principal_form", refuse)
    monkeypatch.setattr(binforms, "form_to_lattice", refuse)
    monkeypatch.setattr(cmlattice, "from_generators", refuse)
    assert [o.as_lattice() for o in orders] == expected


def test_lattice_product_worked_example():
    lam = canonicalize(q(1, 0), q(F(1, 3), F(2, 3)))
    prod = lattice_product(lam, lam)
    assert (prod.den, prod.p, prod.q, prod.r) == (9, 3, 0, 2)
    assert prod == canonicalize(q(F(1, 3), 0), q(0, F(2, 9)))


def test_order_times_own_lattice_is_identity():
    rng = random.Random(23)
    for _ in range(40):
        D, lam = random_class_lattice(rng, 800)
        order = endomorphism_order(lam)
        assert lattice_product(order.as_lattice(), lam) == lam


def test_order_product_conductor_gcd():
    # orders of conductors 3 and 4 multiply to the maximal order
    o3, o4 = Order(EISEN, 3), Order(EISEN, 4)
    prod = lattice_product(o3.as_lattice(), o4.as_lattice())
    assert endomorphism_order(prod) == Order(EISEN, 1)
    assert prod == Order(EISEN, 1).as_lattice()
    # the literal rings Z[3*sqrt(-3)] and Z[4*sqrt(-3)] have conductors 6 and 8
    z3r3 = lat(1, 0, 0, 3, EISEN)
    z4r3 = lat(1, 0, 0, 4, EISEN)
    assert endomorphism_order(z3r3).f == 6
    assert endomorphism_order(z4r3).f == 8
    assert endomorphism_order(lattice_product(z3r3, z4r3)) == Order(EISEN, 2)


def test_lattice_product_produces_conductor_gcd_generally():
    rng = random.Random(29)
    for _ in range(40):
        d = [-1, -3, -7, -2][rng.randrange(4)]
        field = FieldTag(d)
        f1, f2 = rng.randint(1, 12), rng.randint(1, 12)
        D1, D2 = Order(field, f1).discriminant, Order(field, f2).discriminant
        forms1, forms2 = enumerate_reduced(D1), enumerate_reduced(D2)
        l1 = form_to_lattice(forms1[rng.randrange(len(forms1))])
        l2 = form_to_lattice(forms2[rng.randrange(len(forms2))])
        prod = lattice_product(l1, l2)
        assert endomorphism_order(prod).f == math.gcd(f1, f2)


def test_lattice_product_commutative_associative():
    rng = random.Random(31)
    for _ in range(25):
        d = [-1, -3, -7][rng.randrange(3)]
        field = FieldTag(d)
        lats = []
        for _ in range(3):
            f = rng.randint(1, 8)
            forms = enumerate_reduced(Order(field, f).discriminant)
            lats.append(form_to_lattice(forms[rng.randrange(len(forms))]))
        a, b, c = lats
        assert lattice_product(a, b) == lattice_product(b, a)
        assert lattice_product(lattice_product(a, b), c) == lattice_product(a, lattice_product(b, c))


def test_lattice_product_matches_form_composition():
    # same order: the product realizes ideal multiplication, i.e. Gauss composition
    rng = random.Random(37)
    for _ in range(60):
        D = -rng.randrange(3, 2000)
        if D % 4 not in (0, 1):
            continue
        forms = enumerate_reduced(D)
        f = forms[rng.randrange(len(forms))]
        g = forms[rng.randrange(len(forms))]
        prod = lattice_product(form_to_lattice(f), form_to_lattice(g))
        order, cls = ideal_class(prod)
        assert order.discriminant == D
        assert cls == compose(f, g)


def test_ideal_class_appendix_table():
    assert ideal_class(lat(1, 0, 0, 3))[1] == Form(1, 0, 9)
    order, cls = ideal_class(lat(3, 0, 1, 1))
    assert (order, cls) == (Order(GAUSS, 3), Form(2, 2, 5))
    # <2, -1+3i> ~ <3, 1+i>
    assert ideal_class(lat(2, 0, -1, 3))[1] == Form(2, 2, 5)


def test_form_lattice_pairing_all_appendix_orders():
    # every appendix order: the ideal (a, (-b+sqrt(D))/2) pairs each form with
    # the homothety class of the lattice the appendix lists next to it
    table = {
        -36: [((1, 0, 9), lat(1, 0, 0, 3)), ((2, 2, 5), lat(2, 0, -1, 3))],
        -144: [
            ((1, 0, 36), lat(1, 0, 0, 6)),
            ((4, 0, 9), lat(4, 0, 0, 6)),  # <4, 6i> ~ <3, 2i>
            ((5, 4, 8), lat(5, 0, -2, 6)),
            ((5, -4, 8), lat(5, 0, 2, 6)),
        ],
        -108: [
            ((1, 0, 27), lat(1, 0, 0, 3, EISEN)),
            ((4, 2, 7), lat(4, 0, -1, 3, EISEN)),  # ~ <3, 2+sqrt(-3)>
            ((4, -2, 7), lat(4, 0, 1, 3, EISEN)),  # ~ <3, 1+sqrt(-3)>
        ],
        -192: [
            ((1, 0, 48), lat(1, 0, 0, 4, EISEN)),
            ((7, 2, 7), lat(7, 0, -1, 4, EISEN)),  # ~ <4, 2+sqrt(-3)>
            ((4, 4, 13), lat(4, 0, -2, 4, EISEN)),  # ~ <2, 1+2*sqrt(-3)>
            ((3, 0, 16), lat(3, 0, 0, 4, EISEN)),  # ~ <4, sqrt(-3)>
        ],
    }
    extra_homothety = {
        (4, 0, 9): lat(3, 0, 0, 2),
        (4, 2, 7): lat(3, 0, 2, 1, EISEN),
        (4, -2, 7): lat(3, 0, 1, 1, EISEN),
        (7, 2, 7): lat(4, 0, 2, 1, EISEN),
        (4, 4, 13): lat(2, 0, 1, 2, EISEN),
        (3, 0, 16): lat(4, 0, 0, 1, EISEN),
    }
    for D, pairs in table.items():
        for coeffs, ideal in pairs:
            form = Form(*coeffs)
            assert is_homothetic(form_to_lattice(form), ideal), (D, coeffs)
            assert ideal_class(ideal)[1] == form
            if coeffs in extra_homothety:
                assert is_homothetic(ideal, extra_homothety[coeffs]), coeffs


def test_ideal_class_is_homothety_invariant():
    rng = random.Random(41)
    for _ in range(30):
        D, lam = random_class_lattice(rng, 600)
        scale = q(F(rng.randint(1, 9), rng.randint(1, 9)), F(rng.randint(0, 9), rng.randint(1, 9)), lam.field)
        if scale == q(0, 0, lam.field):
            continue
        assert ideal_class(lam.scaled(scale)) == ideal_class(lam)
        assert is_homothetic(lam, lam.scaled(F(7, 5)))


def test_homothety_worked_examples():
    lam = canonicalize(q(1, 0), q(F(1, 3), F(2, 3)))
    assert is_homothetic(lam, lat(3, 0, 1, 2))
    assert not is_homothetic(lat(3, 0, 1, 2), lat(3, 0, 0, 2))
    with pytest.raises(FieldMismatch):
        is_homothetic(lam, lat(1, 0, 0, 1, EISEN))


def test_conjugate_and_inverse_class():
    l312 = lat(3, 0, 1, 2)
    assert conjugate_lattice(l312) == lat(3, 0, -1, 2)
    prod = lattice_product(l312, conjugate_lattice(l312))
    assert is_homothetic(prod, Order(GAUSS, 6).as_lattice())
    # a ring lattice is its own conjugate
    assert conjugate_lattice(Order(GAUSS, 5).as_lattice()) == Order(GAUSS, 5).as_lattice()
    rng = random.Random(43)
    for _ in range(25):
        D, lam = random_class_lattice(rng, 800)
        order = endomorphism_order(lam)
        assert is_homothetic(lattice_product(lam, conjugate_lattice(lam)), order.as_lattice())


def test_image_lattice_two_components():
    l1 = canonicalize(q(1, 0), q(F(1, 3), F(2, 3)))
    l2 = lat(1, 0, 0, 1)
    comps = image_lattice_L(LatticeTuple((l1, l2)), 2)
    assert len(comps) == 1
    assert is_homothetic(comps[0], lattice_product(l1, l2))


def test_image_lattice_principal_triple():
    ok = Order(GAUSS, 1).as_lattice()
    comps = image_lattice_L(LatticeTuple((ok, ok, ok)), 2)
    assert len(comps) == 3
    for comp in comps:
        assert is_homothetic(comp, ok)


def test_image_lattice_triple_product_disc_144():
    forms = enumerate_reduced(-144)
    lats = tuple(form_to_lattice(f) for f in forms[:3])
    comps = image_lattice_L(LatticeTuple(lats), 3)
    assert len(comps) == 1
    chain = lattice_product(lattice_product(lats[0], lats[1]), lats[2])
    assert is_homothetic(comps[0], chain)


def test_image_lattice_matches_products_randomly():
    rng = random.Random(47)
    from itertools import combinations

    for _ in range(20):
        d = [-1, -3, -2][rng.randrange(3)]
        field = FieldTag(d)
        n = rng.randint(2, 4)
        lats = []
        for _ in range(n):
            f = rng.randint(1, 6)
            forms = enumerate_reduced(Order(field, f).discriminant)
            lats.append(form_to_lattice(forms[rng.randrange(len(forms))]))
        tup = LatticeTuple(tuple(lats))
        for m in range(2, n + 1):
            comps = image_lattice_L(tup, m)
            for subset, comp in zip(combinations(range(n), m), comps):
                expected = lats[subset[0]]
                for j in subset[1:]:
                    expected = lattice_product(expected, lats[j])
                assert is_homothetic(comp, expected)


def span_of_generator_products(tup, m):
    """image_lattice_L by its definition: the span of the 2^m products of
    {-eps_j * tau_j, eps_j}, eps_j = 1/(conj(tau_j) - tau_j), per m-subset."""
    one = QuadElem.from_rational(tup.field, 1)
    choices = []
    for lam in tup.components:
        tau = lam.tau
        eps = one / (tau.conj() - tau)
        choices.append((-(eps * tau), eps))
    return [
        from_generators(tup.field, [math.prod(picks, start=one) for picks in product(*subset)])
        for subset in combinations(choices, m)
    ]


def test_image_lattice_equals_span_of_generator_products():
    # exact equality of canonical bases, not just homothety
    rng = random.Random(53)
    for _ in range(30):
        field = FieldTag(rng.choice([-1, -2, -3, -7, -15, -23]))
        lats = []
        for _ in range(rng.randint(2, 4)):
            forms = enumerate_reduced(Order(field, rng.randint(1, 6)).discriminant)
            lam = form_to_lattice(forms[rng.randrange(len(forms))])
            if rng.random() < 0.5:
                scale = q(F(rng.randint(-5, 5), rng.randint(1, 5)), F(rng.randint(1, 5), 3), field)
                lam = lam.scaled(scale)
            lats.append(lam)
        tup = LatticeTuple(tuple(lats))
        for m in range(2, len(tup) + 1):
            assert image_lattice_L(tup, m) == span_of_generator_products(tup, m)


FIELDS = st.sampled_from([GAUSS, EISEN, FieldTag(-2), FieldTag(-7), FieldTag(-15)])
# integer coordinates (x, y) of (x + y*sqrt(d))/den
COORDS = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


@st.composite
def generators(draw, field):
    """A rank-2 generator list: p, x + y*sqrt(d) with p, y nonzero, then extras."""
    den = draw(st.integers(1, 6))
    rows = [(draw(st.integers(1, 9)), 0), (draw(st.integers(-9, 9)), draw(st.integers(1, 9)))]
    rows += draw(st.lists(COORDS, max_size=2))
    return [q(F(x, den), F(y, den), field) for x, y in rows]


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(data=st.data(), field=FIELDS)
def test_from_generators_ignores_unimodular_changes(data, field):
    gens = data.draw(generators(field))
    lam = from_generators(field, gens)
    # elementary moves g_i += k*g_j, swaps and sign flips generate GL_n(Z)
    moved = list(gens)
    index = st.integers(0, len(gens) - 1)
    steps = st.tuples(index, index, st.integers(-4, 4))
    for i, j, k in data.draw(st.lists(steps, max_size=6)):
        if i == j:
            moved[i] = -moved[i]
        elif k == 0:
            moved[i], moved[j] = moved[j], moved[i]
        else:
            moved[i] = moved[i] + moved[j] * q(k, 0, field)
    assert from_generators(field, moved) == lam
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(gens), max_size=len(gens)))
    combo = sum((g * q(c, 0, field) for g, c in zip(gens, coeffs)), q(0, 0, field))
    assert from_generators(field, gens + [combo]) == lam


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(data=st.data(), field=FIELDS)
def test_lattice_product_commutes_and_associates_exactly(data, field):
    a, b, c = (from_generators(field, data.draw(generators(field))) for _ in range(3))
    assert lattice_product(a, b) == lattice_product(b, a)
    assert lattice_product(lattice_product(a, b), c) == lattice_product(a, lattice_product(b, c))


def reference_from_generators(field, gens):
    """Canonical lattice by Fraction arithmetic and 2x2 minors, sharing no code with the HNF.

    The span over den projects onto r*Z in the sqrt(d) coordinate, its
    covolume p*r is the gcd of the 2x2 minors, and q is the rational
    coordinate of a row combination whose sqrt(d) coordinate is r.
    """
    den = math.lcm(*(c.denominator for g in gens for c in (g.x, g.y)))
    rows = [(int(g.x * den), int(g.y * den)) for g in gens]
    q0 = r = 0
    for x, y in rows:
        if y == 0:
            continue
        g = math.gcd(r, y)
        t = pow(y // g, -1, r // g) if r else (1 if y > 0 else -1)
        s = (g - t * y) // r if r else 0
        q0, r = s * q0 + t * x, g
    minors = math.gcd(*(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in combinations(rows, 2)))
    p = minors // r
    q0 %= p
    g = math.gcd(p, q0, r, den)
    return CMLattice(field, den // g, p // g, q0 // g, r // g)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data(), field=FIELDS)
def test_integer_kernel_matches_rational_products(data, field):
    gens_a, gens_b = data.draw(generators(field)), data.draw(generators(field))
    a, b = from_generators(field, gens_a), from_generators(field, gens_b)
    assert a == reference_from_generators(field, gens_a)
    assert b == reference_from_generators(field, gens_b)
    # the integer rows of lattice_product against QuadElem products of the generators
    (v1, w1), (v2, w2) = a.generators(), b.generators()
    products = [v1 * v2, v1 * w2, w1 * v2, w1 * w2]
    prod = lattice_product(a, b)
    assert prod == from_generators(field, products)
    assert prod == reference_from_generators(field, products)


def test_image_lattice_scale_invariance():
    l1 = lat(3, 0, 1, 2)
    l2 = lat(1, 0, 0, 6)
    tup = LatticeTuple((l1, l2))
    scaled = LatticeTuple((l1.scaled(q(F(2, 3), F(1, 5))), l2))
    a = image_lattice_L(tup, 2)[0]
    b = image_lattice_L(scaled, 2)[0]
    assert is_homothetic(a, b)


def test_image_lattice_bad_weight():
    tup = LatticeTuple((lat(1, 0, 0, 1), lat(1, 0, 0, 2)))
    with pytest.raises(BadWeight):
        image_lattice_L(tup, 1)
    with pytest.raises(BadWeight):
        image_lattice_L(tup, 3)


def test_lattice_literal_round_trip():
    lam = lat(3, 0, 1, 2)
    assert parse_lattice(str(lam)) == lam
    for D in (-4, -3, -8, -7, -56, -144, -108, -23, -1999):
        lats = [form_to_lattice(f).scaled(F(2, 3)) for f in enumerate_reduced(D)]
        for L in lats:
            assert parse_lattice(str(L)) == L
            assert parse_lattice(f"<{L.g1};{L.g2}>@{L.field.d}") == L
            assert parse_lattice(f"< {L.g1.x} ; {L.g2} > @ {L.field.d}") == L
        assert cmlattice.parse_lattices(", ".join(map(str, lats))) == lats
    i3, e2 = "⟨1+0*sqrt(-1), 0+3*sqrt(-1)⟩", "⟨2+0*sqrt(-3), 1+1*sqrt(-3)⟩"
    # a list may mix fields
    assert [L.field.d for L in cmlattice.parse_lattices(f"{i3}, <1;1*sqrt(-3)>@-3")] == [-1, -3]
    for parse, text, error in (
        (parse_lattice, "⟨1+0*sqrt(-1)⟩", ParseError),
        (parse_lattice, "⟨1, 2⟩", ParseError),
        (parse_lattice, "⟨1+0*sqrt(-1), 2+0*sqrt(-1)⟩", DegenerateBasis),
        (parse_lattice, "⟨1+0*sqrt(-1), 0+1*sqrt(-2)⟩", ParseError),
        (parse_lattice, "⟨1+0*sqrt(-4), 0+1*sqrt(-4)⟩", ParseError),
        (parse_lattice, "<1;1*sqrt(-2)>@-1", ParseError),
        (parse_lattice, "garbage", ParseError),
        (parse_lattice, f"{i3} {e2}", ParseError),
        (parse_lattice, "⟨1, 2, 3*sqrt(-1)⟩", ParseError),
    ):
        with pytest.raises(error):
            parse(text)


def test_lattice_tuple_field_check():
    with pytest.raises(DegenerateBasis):
        LatticeTuple(())
    with pytest.raises(FieldMismatch):
        LatticeTuple((lat(1, 0, 0, 1), lat(1, 0, 0, 1, EISEN)))
