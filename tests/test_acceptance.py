"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with pytest -s)."""

import math
import random
import time
from contextlib import contextmanager
from itertools import combinations

import mpmath
import pytest
from mpmath import mp

from weightjac import analytic, binforms, cmlattice, hodgecalc, jacobians
from weightjac.analytic import (
    evaluate_expression,
    hilbert_class_polynomial,
    j_is_real,
    j_of_lattice,
    verify_appendix,
)
from weightjac.binforms import (
    Form,
    class_group,
    compose,
    enumerate_reduced,
    fundamental_decomposition,
    power,
    principal_form,
)
from weightjac.cmlattice import (
    LatticeTuple,
    Order,
    canonicalize,
    form_to_lattice,
    is_homothetic,
    lattice_product,
    parse_lattice,
)
from weightjac.hodgecalc import (
    SyntheticHodge,
    abelian_product_hodge,
    blowup,
    direct_sum,
    discrepancy,
    has_jacobian,
    projective_bundle,
    torsion_dim,
)
from weightjac.jacobians import (
    CurveClass,
    ProductAV,
    is_fixed_point,
    jacobian_orbit,
    kummer_jacobian,
    m_jacobian,
    m_jacobian_lattice_route,
    n_decompose,
    product_definable_over_jacobian_field,
    same_field_of_definition,
    surface_decompose,
)
from weightjac.quadfield import FieldTag, QuadElem

# the four appendix orders: Z[3i], Z[6i], Z[3*sqrt(-3)], Z[4*sqrt(-3)]
APPENDIX_TABLES = {
    -36: ([2], [(1, 0, 9), (2, 2, 5)]),
    -144: ([4], [(1, 0, 36), (4, 0, 9), (5, -4, 8), (5, 4, 8)]),
    -108: ([3], [(1, 0, 27), (4, -2, 7), (4, 2, 7)]),
    -192: ([2, 2], [(1, 0, 48), (3, 0, 16), (4, 4, 13), (7, 2, 7)]),
}

GAUSS = FieldTag(-1)
EISEN = FieldTag(-3)


def discs_up_to(bound):
    return [D for D in range(-3, -bound - 1, -1) if D % 4 in (0, 1)]


def fields_with_orders(bound):
    """d -> list of discriminants |D| <= bound of orders in Q(sqrt(d))."""
    fields = {}
    for D in discs_up_to(bound):
        dK, _ = fundamental_decomposition(D)
        d = dK if dK % 4 == 1 else dK // 4
        fields.setdefault(d, []).append(D)
    return fields


def random_product(rng, fields, nmax=4, nmin=2):
    d = rng.choice(sorted(fields))
    pool = fields[d]
    n = rng.randint(nmin, nmax)
    factors = []
    for _ in range(n):
        D = pool[rng.randrange(len(pool))]
        forms = enumerate_reduced(D)
        factors.append(CurveClass(Order.from_discriminant(D), forms[rng.randrange(len(forms))]))
    return ProductAV(tuple(factors))


def class_order_at_most_two(form):
    return compose(form, form) == principal_form(form.discriminant)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL ({description})")
        raise
    print(f"criterion {num}: PASS ({description})")


def test_criterion_1_class_group_tables():
    with criterion(1, "class group tables for the four appendix orders, exact, < 1 s"):
        binforms._enumerate_reduced.cache_clear()
        t0 = time.monotonic()
        for D, (structure, forms) in APPENDIX_TABLES.items():
            group = class_group(D)
            assert list(group.structure) == structure
            assert [f.as_tuple() for f in group.elements] == forms
        elapsed = time.monotonic() - t0
        # the radicands the appendix names the last two orders by are
        # different (smaller) discriminants; pin their honest groups too
        assert class_group(-27).h == 1
        assert class_group(-48).structure == (2,)
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_golden_j_values():
    with criterion(2, "all appendix j-values at prec 256, rel err < 2^-200, < 5 s"):
        t0 = time.monotonic()
        fixtures = analytic.appendix_fixtures()
        assert len(fixtures) == 13
        for rec in fixtures:
            lat = parse_lattice(rec["lattice"])
            value = j_of_lattice(lat, 256).to_mpc()
            with mp.workprec(700):
                exact = evaluate_expression(rec["exact"], 640).to_mpc()
                assert abs(value - exact) < abs(exact) * mpmath.mpf(2) ** -200, rec
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def exact_expansion_coefficients():
    """Independent exact-algebra oracle for the appendix class polynomials."""
    sympy = pytest.importorskip("sympy")
    X = sympy.symbols("X")
    sqrt2, sqrt3, sqrt6 = sympy.sqrt(2), sympy.sqrt(3), sympy.sqrt(6)
    r12 = sympy.root(12, 4)
    i = sympy.I
    zeta3 = sympy.Rational(-1, 2) + sqrt3 * i / 2
    cbrt2 = sympy.root(2, 3)
    roots = {
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
            820762881440077125 * sqrt6 + 1160733998424384000 * sqrt3 + 1421603011620136125 * sqrt2 + 2010450259344609000,
            -820762881440077125 * sqrt6 - 1160733998424384000 * sqrt3 + 1421603011620136125 * sqrt2 + 2010450259344609000,
            -820762881440077125 * sqrt6 + 1160733998424384000 * sqrt3 - 1421603011620136125 * sqrt2 + 2010450259344609000,
            820762881440077125 * sqrt6 - 1160733998424384000 * sqrt3 - 1421603011620136125 * sqrt2 + 2010450259344609000,
        ],
    }
    tables = {}
    for D, rs in roots.items():
        poly = sympy.expand(sympy.prod([X - r for r in rs]))
        coeffs = []
        for c in sympy.Poly(poly, X).all_coeffs():
            c = sympy.simplify(sympy.expand(c))
            assert c.is_integer, (D, c)
            coeffs.append(int(c))
        tables[D] = tuple(coeffs)
    return tables


def test_criterion_3_hilbert_class_polynomials():
    with criterion(3, "class polynomials match exact root-product expansions, < 10 s"):
        oracle = exact_expansion_coefficients()
        t0 = time.monotonic()
        for D, coeffs in oracle.items():
            poly = hilbert_class_polynomial(D, 256)
            assert poly.degree == len(enumerate_reduced(D))
            assert poly.coefficients == coeffs, D
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_4_lattice_product_fixture():
    with criterion(4, "lattice product and homothety verdicts of the worked example, exact"):
        from fractions import Fraction as F

        lam = canonicalize(QuadElem.from_rational(GAUSS, 1), QuadElem.make(GAUSS, F(1, 3), F(2, 3)))
        prod = lattice_product(lam, lam)
        expected = canonicalize(QuadElem.make(GAUSS, F(1, 3), 0), QuadElem.make(GAUSS, 0, F(2, 9)))
        assert prod == expected
        assert (prod.den, prod.p, prod.q, prod.r) == (9, 3, 0, 2)
        l312 = canonicalize(QuadElem.from_rational(GAUSS, 3), QuadElem.make(GAUSS, 1, 2))
        l32i = canonicalize(QuadElem.from_rational(GAUSS, 3), QuadElem.make(GAUSS, 0, 2))
        assert is_homothetic(lam, l312)
        assert is_homothetic(prod, l32i)
        assert not is_homothetic(l312, l32i)


def test_criterion_5_two_route_jacobian_oracle():
    with criterion(5, ">= 500 sampled products, every weight, class route = lattice route, < 60 s"):
        t0 = time.monotonic()
        fields = fields_with_orders(2000)
        rng = random.Random(20260810)
        cases = 0
        seen_n = set()
        while cases < 500:
            x = random_product(rng, fields, nmax=4)
            seen_n.add(x.n)
            for m in range(2, x.n + 1):
                assert m_jacobian(x, m) == m_jacobian_lattice_route(x, m)
            cases += 1
        assert seen_n == {2, 3, 4}
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"took {elapsed:.3f}s"


def test_criterion_6_decomposition_fixtures():
    with criterion(6, "surface decompositions of the worked examples and the triple conductor rule"):
        # (C/<3,1+2i>)^2 = C/Z[6i] x C/<3,2i>, primitivity 1, Jacobian class of order 2
        e144 = CurveClass.of_lattice(
            canonicalize(QuadElem.from_rational(GAUSS, 3), QuadElem.make(GAUSS, 1, 2))
        )
        rep = surface_decompose(e144, e144)
        assert rep.big_order == Order(GAUSS, 6)
        assert rep.jacobian == CurveClass.of_lattice(
            canonicalize(QuadElem.from_rational(GAUSS, 3), QuadElem.make(GAUSS, 0, 2))
        )
        assert rep.primitivity_degree == 1
        assert product_definable_over_jacobian_field(e144, e144) is True

        # (C/<3,2+sqrt(-3)>)^2 = C/Z[sqrt(-27)] x C/<3,1+sqrt(-3)>, order-3 Jacobian class
        e108 = CurveClass.of_lattice(
            canonicalize(QuadElem.from_rational(EISEN, 3), QuadElem.make(EISEN, 2, 1))
        )
        rep2 = surface_decompose(e108, e108)
        assert rep2.big_order == Order(EISEN, 6)
        assert rep2.jacobian == CurveClass.of_lattice(
            canonicalize(QuadElem.from_rational(EISEN, 3), QuadElem.make(EISEN, 1, 1))
        )
        assert rep2.primitivity_degree == 1
        assert product_definable_over_jacobian_field(e108, e108) is False

        # n = 3: the middle conductor is f1 f2 f3 / (d N)
        fields = fields_with_orders(2000)
        rng = random.Random(424242)
        for _ in range(100):
            x = random_product(rng, fields, nmax=3, nmin=3)
            f1, f2, f3 = x.conductors()
            dec = n_decompose(x)
            d = math.gcd(f1, math.gcd(f2, f3))
            N = math.lcm(f1, math.lcm(f2, f3))
            assert dec.conductors == (d, f1 * f2 * f3 // (d * N), N)


def test_criterion_7_fixed_points_and_orbits():
    with criterion(7, "fixed points exactly the principal cubes; orbit exponent law and length bound"):
        for D in discs_up_to(2000):
            order = Order.from_discriminant(D)
            principal = CurveClass.principal(order)
            assert is_fixed_point(ProductAV((principal,) * 3))
            forms = enumerate_reduced(D)
            if len(forms) > 1:
                stranger = CurveClass(order, forms[1])
                assert not is_fixed_point(ProductAV((stranger, principal, principal)))
        # mixed conductors are never fixed points
        assert not is_fixed_point(
            ProductAV(
                (
                    CurveClass.principal(Order(GAUSS, 1)),
                    CurveClass.principal(Order(GAUSS, 2)),
                    CurveClass.principal(Order(GAUSS, 2)),
                )
            )
        )
        fields = fields_with_orders(2000)
        rng = random.Random(77)
        for _ in range(100):
            x = random_product(rng, fields, nmax=4, nmin=3)
            n = x.n
            orbit = jacobian_orbit(x)
            t = n_decompose(x).terminal_class.form
            for k, dec in enumerate(orbit):
                assert dec.terminal_class.form == power(t, (n - 1) ** k)
            h_terminal = len(enumerate_reduced(t.discriminant))
            # the conductor chain needs two iterations to collapse, so the
            # provable bound is h + 2; h + 1 fails already for conductors
            # (1, 2, 12) with h = 1 (orbit length 3)
            assert len(orbit) <= h_terminal + 2
            if len(set(x.conductors())) == 1:
                assert len(orbit) <= h_terminal + 1
        counterexample = ProductAV(
            tuple(CurveClass.principal(Order(GAUSS, f)) for f in (1, 2, 12))
        )
        assert len(jacobian_orbit(counterexample)) == 3


def test_criterion_8_field_of_definition_predicates():
    with criterion(8, "field-of-definition verdicts and j reality = class order <= 2 for |D| <= 2000"):
        # the three classes of the order the appendix calls Z[sqrt(-27)]
        c108 = [CurveClass(Order.from_discriminant(-108), f) for f in enumerate_reduced(-108)]
        for a, b in combinations(c108, 2):
            assert not same_field_of_definition(a, b)
        # the four classes of Z[sqrt(-48)] share one quartic field
        c192 = [CurveClass(Order.from_discriminant(-192), f) for f in enumerate_reduced(-192)]
        for a, b in combinations(c192, 2):
            assert same_field_of_definition(a, b)
        # both classes of Z[3i] generate Q(sqrt(3))
        c36 = [CurveClass(Order.from_discriminant(-36), f) for f in enumerate_reduced(-36)]
        assert same_field_of_definition(c36[0], c36[1])
        # numeric reality of j agrees with the algebraic order criterion everywhere
        for D in discs_up_to(2000):
            for f in enumerate_reduced(D):
                assert j_is_real(form_to_lattice(f), 192) == class_order_at_most_two(f), (D, f)


def test_criterion_9_hodge_property_suites():
    with criterion(9, "hodge calculus properties on >= 1000 random instances, < 5 s"):
        t0 = time.monotonic()
        rng = random.Random(909090)
        point = SyntheticHodge(0, (1,), 0)

        def random_hodge(weight):
            half = [rng.randint(0, 6) for _ in range(weight // 2 + 1)]
            numbers = half + list(reversed(half[: (weight + 1) // 2]))
            h0m = numbers[-1]
            if weight == 0 or h0m == 0:
                rank = 0
            else:
                rank = rng.randint(2 * h0m, sum(numbers))
            return SyntheticHodge(weight, tuple(numbers), rank)

        for _ in range(1000):
            weight = rng.randint(1, 5)
            parts = [random_hodge(weight) for _ in range(rng.randint(1, 4))]
            total = direct_sum(parts)
            assert discrepancy(total) == sum(discrepancy(p) for p in parts)
            h = parts[0]
            assert torsion_dim(h, 2) == torsion_dim(h, 13) == 2 * h.h0m + discrepancy(h)
            if weight >= 2:
                blown = blowup(h, {weight - 2: random_hodge(weight - 2), 0: point}, 2)
                assert discrepancy(blown) == discrepancy(h)
                sections = {weight: h, weight - 2: random_hodge(weight - 2)}
                if weight - 4 >= 0:
                    sections[weight - 4] = random_hodge(weight - 4)
                    bundle = projective_bundle(sections, 2, weight)
                else:
                    bundle = projective_bundle(sections, 1, weight)
                assert discrepancy(bundle) == discrepancy(h)
        for n in range(2, 7):
            h = abelian_product_hodge(n, 2)
            assert has_jacobian(h)
            assert h.total_rank - h.rank_image == n * n
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_criterion_10_computable_shadows():
    with criterion(10, "geometry out of scope; Kummer passthrough and 2-maximal criteria covered"):
        fields = fields_with_orders(1000)
        rng = random.Random(1010)
        for _ in range(25):
            x = random_product(rng, fields, nmax=4)
            for m in range(2, x.n + 1):
                assert kummer_jacobian(x, m) == m_jacobian(x, m)
        # Theorem-level equivalence on class data: products of same-field CM
        # classes are 2-maximal with NS rank n^2; mixed fields are not
        a = canonicalize(QuadElem.from_rational(GAUSS, 1), QuadElem.make(GAUSS, 0, 3))
        b = canonicalize(QuadElem.from_rational(EISEN, 1), QuadElem.make(EISEN, 0, 1))
        good = jacobians.is_two_maximal([a, a, a])
        assert good.ok and good.ns_rank == 9 and good.rank_image == 6
        assert not jacobians.is_two_maximal([a, b]).ok
        assert not jacobians.is_two_maximal([a]).ok
