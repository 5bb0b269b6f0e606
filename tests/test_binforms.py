import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightjac import binforms, quadfield
from weightjac.binforms import (
    ClassGroup,
    Form,
    class_group,
    compose,
    element_order,
    enumerate_reduced,
    form_to_lattice,
    fundamental_decomposition,
    parse_form,
    power,
    principal_form,
    reduce,
)
from weightjac.cmlattice import endomorphism_order, ideal_class, lattice_product
from weightjac.errors import DiscriminantMismatch, InvalidDiscriminant, InvalidForm


def all_discriminants(bound):
    return [D for D in range(-3, -bound - 1, -1) if D % 4 in (0, 1)]


def bfs_reduced(form):
    """Independent reduction oracle: breadth-first search over S and T moves."""
    start = form.as_tuple()
    seen = {start}
    queue = deque([start])
    while queue:
        a, b, c = queue.popleft()
        f = Form(a, b, c)
        if f.is_reduced():
            return f
        for nxt in ((c, -b, a), (a, b + 2 * a, a + b + c), (a, b - 2 * a, a - b + c)):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    raise AssertionError("no reduced form reachable")


def test_form_validation():
    with pytest.raises(InvalidForm):
        Form(-1, 0, 1)
    with pytest.raises(InvalidForm):
        Form(1, 0, -1)
    with pytest.raises(InvalidForm):
        Form(2, 2, 2)
    with pytest.raises(InvalidForm):
        Form(2, 0, 18)  # gcd 2, disc -144
    with pytest.raises(InvalidForm):
        Form(2, -2, 2)  # gcd 2 with a negative middle coefficient
    with pytest.raises(InvalidForm):
        Form(True, 1, True)  # equal to (1, 1, 1) but would print as [true, 1, true]
    with pytest.raises(InvalidForm):
        Form(1, 0.5, 1)


def test_reduce_examples():
    assert reduce(Form(2, 2, 5)) == Form(2, 2, 5)
    assert reduce(Form(1, 0, 36)) == Form(1, 0, 36)
    assert reduce(Form(5, 14, 13)) == Form(4, 4, 5)
    assert reduce(Form(5, 14, 13)) == bfs_reduced(Form(5, 14, 13))
    # boundary forms: a == c or b == -a with b < 0 are not reduced
    for f, expected in [
        (Form(3, -1, 3), Form(3, 1, 3)),
        (Form(2, -2, 5), Form(2, 2, 5)),
        (Form(5, -5, 7), Form(5, 5, 7)),
    ]:
        assert not f.is_reduced()
        assert reduce(f) == expected == bfs_reduced(f)


def test_reduce_is_idempotent_and_orbit_constant():
    # brute-force orbit check: small-coefficient forms per small discriminant
    for D in all_discriminants(200):
        for a in range(1, 51):
            for b in range(-50, 51):
                num = b * b - D
                if num % (4 * a):
                    continue
                c = num // (4 * a)
                if c == 0 or c > 50 or math.gcd(a, math.gcd(abs(b), abs(c))) != 1:
                    continue
                if c < 0:
                    continue
                f = Form(a, b, c)
                r = reduce(f)
                assert r.is_reduced()
                assert reduce(r) is r
                assert r == bfs_reduced(f)


def test_compose_identity_and_paper_squares():
    assert compose(principal_form(-36), Form(2, 2, 5)) == Form(2, 2, 5)
    assert compose(Form(2, 2, 5), Form(2, 2, 5)) == Form(1, 0, 9)
    assert compose(Form(5, 4, 8), Form(5, 4, 8)) == Form(4, 0, 9)
    assert compose(Form(5, -4, 8), Form(5, -4, 8)) == Form(4, 0, 9)
    with pytest.raises(DiscriminantMismatch):
        compose(Form(1, 0, 9), Form(1, 0, 1))
    # the identity shortcut (an operand with a = 1) comes after the check
    for one in (Form(1, 0, 9), Form(1, 4, 13)):
        with pytest.raises(DiscriminantMismatch):
            compose(one, Form(2, 1, 3))
        with pytest.raises(DiscriminantMismatch):
            compose(Form(2, 1, 3), one)


# each example checks every element of one group, so few examples are needed
@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(D=st.sampled_from(all_discriminants(2000)), i=st.integers(0, 99), j=st.integers(0, 99))
def test_compose_group_axioms_sampled(D, i, j):
    elements = enumerate_reduced(D)
    e = principal_form(D)
    f, g = elements[i % len(elements)], elements[j % len(elements)]
    fg = compose(f, g)
    for h in elements:
        assert compose(h, e) == h
        assert compose(h, h.conjugate()) == e
        assert compose(f, h) == compose(h, f)
        assert compose(fg, h) == compose(f, compose(g, h))
    assert {compose(f, h) for h in elements} == set(elements)


def test_compose_large_random_discriminants():
    rng = random.Random(5)
    for _ in range(20):
        k = rng.randrange(1, 1250)
        D = -4 * k if rng.random() < 0.5 else -4 * k + 1
        elements = enumerate_reduced(D)
        e = principal_form(D)
        for f in elements:
            assert compose(f, f.conjugate()) == e


def _gcdext(a, b):
    g, s, t = a, 1, 0
    r, x, y = b, 0, 1
    while r:
        q = g // r
        g, r = r, g - q * r
        s, x = x, s - q * x
        t, y = y, t - q * y
    if g < 0:
        g, s, t = -g, -s, -t
    return g, s, t


def _solve_linmod(a, b, m):
    # x with a*x = b (mod m), plus the period m/gcd
    g, d, _ = _gcdext(a, m)
    q, r = divmod(b, g)
    assert r == 0, "no solution"
    return q * d % m, m // g


def oracle_compose(f1, f2):
    """Independent composition oracle via the classical linear-congruence recipe."""
    if (f1.a, f1.b, f1.c) == (f2.a, f2.b, f2.c):
        a, b, c = f1.a, f1.b, f1.c
        mu = _solve_linmod(b, c, a)[0]
        return Form(a * a, b - 2 * a * mu, mu * mu - (b * mu - c) // a)
    a, b, c = f1.a, f1.b, f1.c
    alpha, beta, gamma = f2.a, f2.b, f2.c
    g = (b + beta) // 2
    h = -(b - beta) // 2
    w = math.gcd(math.gcd(a, alpha), g)
    j = w
    s = a // w
    t = alpha // w
    u = g // w
    mu, nu = _solve_linmod(t * u, h * u + s * c, s * t)
    lam = _solve_linmod(t * nu, h - t * mu, s)[0]
    k = mu + nu * lam
    ell = (k * t - h) // s
    m = (t * u * k - h * u - c * s) // (s * t)
    return Form(s * t, j * u - (k * t + ell * s), k * ell - j * m)


def _is_prime(n):
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def test_compose_against_independent_oracle():
    # the classical recipe assumes the gcd solvability that prime
    # discriminants guarantee; composite discriminants are cross-checked
    # against ideal multiplication in test_compose_matches_ideal_multiplication
    rng = random.Random(20250815)
    primes = [p for p in range(3, 5000, 4) if _is_prime(p)]
    checked = 0
    while checked < 400:
        D = -primes[rng.randrange(len(primes))]
        elements = enumerate_reduced(D)
        f = elements[rng.randrange(len(elements))]
        g = elements[rng.randrange(len(elements))]
        assert compose(f, g) == reduce(oracle_compose(f, g)), (D, f, g)
        checked += 1


def _scrambled(form, rng):
    """An SL2(Z)-equivalent, usually unreduced form: a few T^k then S moves."""
    a, b, c = form.as_tuple()
    for _ in range(rng.randrange(1, 4)):
        k = rng.randrange(-3, 4)
        a, b, c = a * k * k + b * k + c, -(b + 2 * a * k), a
    return Form(a, b, c)


def test_compose_matches_ideal_multiplication():
    # every ordered pair of reduced forms for |D| <= 300, composite D included:
    # the lattice product of the two ideals is their product ideal, and it
    # is symmetric, so one product checks both orders
    seen_gcd, seen_d_not_dividing_s = False, False
    for D in all_discriminants(300):
        forms = enumerate_reduced(D)
        lattices = [form_to_lattice(f) for f in forms]
        for i, (f, lf) in enumerate(zip(forms, lattices)):
            for g, lg in zip(forms[i:], lattices[i:]):
                expected = ideal_class(lattice_product(lf, lg))[1]
                assert compose(f, g) == expected == compose(g, f), (f, g)
                d = math.gcd(f.a, g.a)
                seen_gcd |= d > 1
                seen_d_not_dividing_s |= (f.b + g.b) // 2 % d != 0
    assert seen_gcd and seen_d_not_dividing_s
    rng = random.Random(20261018)
    for _ in range(200):
        D = rng.choice(all_discriminants(300))
        f, g = (_scrambled(rng.choice(enumerate_reduced(D)), rng) for _ in range(2))
        expected = ideal_class(lattice_product(form_to_lattice(f), form_to_lattice(g)))[1]
        assert compose(f, g) == expected, (f, g)
    # non-reduced identities (1, b + 2k, c'), translates of the principal
    # form, take compose's a = 1 shortcut from either side
    for _ in range(200):
        D = rng.choice(all_discriminants(300))
        e, k = principal_form(D), rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        one = Form(1, e.b + 2 * k, k * k + e.b * k + e.c)
        g = _scrambled(rng.choice(enumerate_reduced(D)), rng)
        expected = ideal_class(lattice_product(form_to_lattice(one), form_to_lattice(g)))[1]
        assert compose(one, g) == expected == compose(g, one), (one, g)
        assert compose(one, one) == e


def test_enumerate_reduced_paper_tables():
    assert [f.as_tuple() for f in enumerate_reduced(-36)] == [(1, 0, 9), (2, 2, 5)]
    assert [f.as_tuple() for f in enumerate_reduced(-144)] == [
        (1, 0, 36),
        (4, 0, 9),
        (5, -4, 8),
        (5, 4, 8),
    ]
    assert [f.as_tuple() for f in enumerate_reduced(-4)] == [(1, 0, 1)]
    # the appendix orders Z[3*sqrt(-3)] and Z[4*sqrt(-3)] have these tables
    assert [f.as_tuple() for f in enumerate_reduced(-108)] == [(1, 0, 27), (4, -2, 7), (4, 2, 7)]
    assert [f.as_tuple() for f in enumerate_reduced(-192)] == [
        (1, 0, 48),
        (3, 0, 16),
        (4, 4, 13),
        (7, 2, 7),
    ]
    # literal discriminants -27 and -48 are different (and smaller) groups
    assert [f.as_tuple() for f in enumerate_reduced(-27)] == [(1, 1, 7)]
    assert [f.as_tuple() for f in enumerate_reduced(-48)] == [(1, 0, 12), (3, 0, 4)]
    with pytest.raises(InvalidDiscriminant):
        enumerate_reduced(-5)
    with pytest.raises(InvalidDiscriminant):
        enumerate_reduced(4)


def test_class_group_structures():
    assert class_group(-36).structure == (2,)
    assert class_group(-144).structure == (4,)
    assert class_group(-108).structure == (3,)
    assert class_group(-192).structure == (2, 2)
    assert class_group(-27).structure == ()
    assert class_group(-48).structure == (2,)
    assert class_group(-3).structure == ()
    # h = product of the invariant factors, divisor chain ascending
    for D in (-36, -144, -108, -192, -2044, -1999):
        group = class_group(D)
        prod = 1
        for k in group.structure:
            prod *= k
        assert prod == group.h
        for small, big in zip(group.structure, group.structure[1:]):
            assert big % small == 0


def test_class_group_structure_matches_element_orders():
    # #{x : x^n = 1} = prod gcd(n, d_i) for every n | h determines a finite
    # abelian group up to isomorphism; the orders come from repeated compose
    for D in all_discriminants(1500) + [-308292, -114992]:
        group = class_group(D)
        orders = [element_order(f) for f in group.elements]
        for n in range(1, group.h + 1):
            if group.h % n == 0:
                expected = math.prod(math.gcd(n, d) for d in group.structure)
                assert sum(1 for k in orders if n % k == 0) == expected, (D, n)
    assert class_group(-308292).structure == (2, 2, 40)
    assert class_group(-114992).structure == (150,)


def test_order_at_most_two_matches_element_order():
    # the ambiguous-form test against repeated composition, on every reduced
    # form with |D| <= 3000 and on a non-reduced translate of each
    for D in all_discriminants(3000):
        for f in enumerate_reduced(D):
            expected = element_order(f) <= 2
            translate = Form(f.a, f.b + 2 * f.a, f.a + f.b + f.c)
            assert binforms._order_at_most_two(f) == expected, f
            assert binforms._order_at_most_two(translate) == expected, f


def _kronecker(a, n):
    """Kronecker symbol (a/n) for n >= 1."""
    if n == 1:
        return 1
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # remaining n is odd: multiplicative over prime powers via Legendre
    p = 3
    while p * p <= n:
        while n % p == 0:
            n //= p
            leg = pow(a % p, (p - 1) // 2, p)
            if leg == 0:
                return 0
            if leg == p - 1:
                result = -result
        p += 2
    if n > 1:
        leg = pow(a % n, (n - 1) // 2, n)
        if leg == 0:
            return 0
        if leg == n - 1:
            result = -result
    return result


def _units(dK):
    return 6 if dK == -3 else 4 if dK == -4 else 2


def dirichlet_class_number(D):
    """Independent class-number oracle: Dirichlet's formula plus the
    conductor correction for non-maximal orders."""
    dK, f = fundamental_decomposition(D)
    total = sum(_kronecker(dK, k) * k for k in range(1, abs(dK)))
    h_fund = _units(dK) * abs(total) // (2 * abs(dK))
    if f == 1:
        return h_fund
    h = h_fund * f
    for p in set(_prime_factors_of(f)):
        h = h * (p - _kronecker(dK, p)) // p
    # unit index [O_K^* : O^*] for a non-maximal order
    return h // (_units(dK) // 2)


def _prime_factors_of(n):
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def test_class_numbers_match_dirichlet_formula():
    for D in all_discriminants(1200):
        assert len(enumerate_reduced(D)) == dirichlet_class_number(D), D


def test_class_group_record():
    rec = class_group(-144).to_record()
    assert rec == {
        "D": -144,
        "h": 4,
        "structure": [4],
        "elements": [[1, 0, 36], [4, 0, 9], [5, -4, 8], [5, 4, 8]],
    }


def test_element_order_and_power():
    assert element_order(principal_form(-36)) == 1
    assert element_order(Form(5, 4, 8)) == 4
    assert element_order(Form(2, 2, 5)) == 2
    assert power(Form(2, 2, 5), -1) == Form(2, 2, 5)
    assert power(Form(5, 4, 8), -1) == Form(5, -4, 8)
    assert power(Form(5, 4, 8), 0) == principal_form(-144)
    assert power(Form(5, 4, 8), 3) == power(Form(5, 4, 8), -1)


def test_power_matches_repeated_ideal_multiplication():
    # f^k for |k| <= 9 on every class with |D| <= 300, reduced and scrambled,
    # against the k-fold lattice product of the ideal of f (of its conjugate
    # for k < 0), read back as a class
    rng = random.Random(30)
    for D in all_discriminants(300):
        for f in enumerate_reduced(D):
            g = _scrambled(f, rng)
            assert power(f, 0) == power(g, 0) == principal_form(D)
            for sign, base in ((1, f), (-1, f.conjugate())):
                lat = prod = form_to_lattice(base)
                for k in range(1, 10):
                    expected = ideal_class(prod)[1]
                    assert power(f, sign * k) == expected == power(g, sign * k), (f, sign * k)
                    prod = lattice_product(prod, lat)


def test_memos_are_bounded_and_recompute_evicted_answers():
    # a sweep over more discriminants than quadfield.MEMO_SIZE fills every per-D memo
    # to the bound; the first answers, evicted, come back equal
    memos = (class_group, binforms._enumerate_reduced, quadfield.is_squarefree)
    sweep = all_discriminants(2 * quadfield.MEMO_SIZE + 200)
    assert len(sweep) > quadfield.MEMO_SIZE + 50
    answers = [(class_group(D), fundamental_decomposition(D), quadfield.is_squarefree(D)) for D in sweep]
    for memo in memos:
        info = memo.cache_info()
        assert info.maxsize == quadfield.MEMO_SIZE and info.currsize == quadfield.MEMO_SIZE, memo
    again = [(class_group(D), fundamental_decomposition(D), quadfield.is_squarefree(D)) for D in sweep[:50]]
    assert again == answers[:50]
    assert all(new[0] is not old[0] for new, old in zip(again, answers))


def test_fundamental_decomposition():
    assert fundamental_decomposition(-36) == (-4, 3)
    assert fundamental_decomposition(-144) == (-4, 6)
    assert fundamental_decomposition(-108) == (-3, 6)
    assert fundamental_decomposition(-192) == (-3, 8)
    assert fundamental_decomposition(-27) == (-3, 3)
    assert fundamental_decomposition(-7) == (-7, 1)
    assert fundamental_decomposition(-4) == (-4, 1)


def test_form_to_lattice_paper_pairs():
    # <1, 3i>
    lat = form_to_lattice(Form(1, 0, 9))
    assert (lat.den, lat.p, lat.q, lat.r) == (1, 1, 0, 3)
    # (2,2,5) -> <2, -1+3i>, the class of <3, 1+i>
    lat = form_to_lattice(Form(2, 2, 5))
    order, cls = ideal_class(lat)
    assert cls == Form(2, 2, 5) and order.f == 3
    # (5,4,8) is the conjugate of the class of <3, 1+2i>
    from weightjac.cmlattice import canonicalize, is_homothetic
    from weightjac.quadfield import FieldTag, QuadElem

    gauss = FieldTag(-1)
    l312 = canonicalize(QuadElem.from_rational(gauss, 3), QuadElem.make(gauss, 1, 2))
    assert is_homothetic(form_to_lattice(Form(5, -4, 8)), l312)
    assert is_homothetic(form_to_lattice(Form(5, 4, 8)), l312) is False


def test_form_lattice_round_trip():
    rng = random.Random(17)
    for D in rng.sample(all_discriminants(2000), 60):
        for f in enumerate_reduced(D):
            order, cls = ideal_class(form_to_lattice(f))
            assert cls == f
            assert order.discriminant == D


def test_parse_form():
    assert parse_form("5, 14, 13") == Form(5, 14, 13)
    assert str(Form(5, -4, 8)) == "5,-4,8"
    with pytest.raises(Exception):
        parse_form("5,14")
