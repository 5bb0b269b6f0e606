import math
import random

import pytest

from weightjac.errors import (
    BadWeight,
    HodgeTooLarge,
    MissingSummand,
    NoJacobian,
    ParseError,
    WeightMismatch,
)
from weightjac.hodgecalc import (
    MAX_HODGE_DIGITS,
    SyntheticHodge,
    abelian_product_hodge,
    blowup,
    direct_sum,
    discrepancy,
    has_jacobian,
    parse_hodge,
    projective_bundle,
    split_h0,
    torsion_dim,
)

ABELIAN_SURFACE = SyntheticHodge(2, (1, 4, 1), 2)
ABELIAN_3FOLD_W2 = abelian_product_hodge(3, 2)
ZERO_W2 = SyntheticHodge(2, (0, 0, 0), 0)


def random_hodge(rng, weight):
    half = [rng.randint(0, 6) for _ in range(weight // 2 + 1)]
    numbers = half + list(reversed(half[: (weight + 1) // 2]))
    h0m = numbers[-1]
    if h0m == 0:
        rank = 0
    else:
        rank = rng.randint(2 * h0m, sum(numbers))
    return SyntheticHodge(weight, tuple(numbers), rank)


def test_type_invariants_enforced():
    with pytest.raises(ParseError):
        SyntheticHodge(2, (1, 4, 2), 4)  # not symmetric
    with pytest.raises(ParseError):
        SyntheticHodge(2, (1, 4, 1), 1)  # lattice cannot span H^{0,2}
    with pytest.raises(ParseError):
        SyntheticHodge(2, (0, 4, 0), 1)  # rank must vanish with h^{0,2}
    with pytest.raises(ParseError):
        SyntheticHodge(2, (1, 4, 1), 7)  # rank above total
    with pytest.raises(ParseError):
        SyntheticHodge(2, (1, 1), 0)  # wrong length
    # 2.0 and 0.5 were accepted, and split_h0 or projective_bundle then raised TypeError
    for data in [(2.0, (1, 0, 1), 2), (2, (1, 0.5, 1), 2), (2, (1, 0, 1), 2.0), (True, (0, 0), 0)]:
        with pytest.raises(ParseError):
            SyntheticHodge(*data)


def test_discrepancy_examples():
    assert discrepancy(ABELIAN_3FOLD_W2) == 0
    assert discrepancy(ZERO_W2) == 0
    assert discrepancy(SyntheticHodge(2, (2, 5, 2), 2 * 2 + 3)) == 3
    assert has_jacobian(ABELIAN_SURFACE)
    assert not has_jacobian(SyntheticHodge(2, (2, 5, 2), 7))


def test_direct_sum_additivity():
    total = direct_sum([ABELIAN_SURFACE, ABELIAN_SURFACE])
    assert discrepancy(total) == 0
    bad = SyntheticHodge(2, (2, 5, 2), 7)
    assert discrepancy(direct_sum([ABELIAN_SURFACE, bad])) == 3
    assert direct_sum([ABELIAN_SURFACE, ZERO_W2]) == ABELIAN_SURFACE
    with pytest.raises(WeightMismatch):
        direct_sum([ABELIAN_SURFACE, abelian_product_hodge(3, 3)])
    with pytest.raises(WeightMismatch):
        direct_sum([])
    rng = random.Random(211)
    for _ in range(200):
        parts = [random_hodge(rng, 4) for _ in range(rng.randint(1, 5))]
        assert discrepancy(direct_sum(parts)) == sum(discrepancy(p) for p in parts)


def test_torsion_dim():
    assert torsion_dim(ABELIAN_SURFACE, 2) == 2
    assert torsion_dim(ABELIAN_3FOLD_W2, 5) == 6
    assert torsion_dim(ZERO_W2, 3) == 0
    rng = random.Random(223)
    for _ in range(100):
        h = random_hodge(rng, 3)
        assert torsion_dim(h, 2) == torsion_dim(h, 97) == h.rank_image
    with pytest.raises(ValueError):
        torsion_dim(ABELIAN_SURFACE, 6)
    assert torsion_dim(ABELIAN_SURFACE, 1000003) == 2
    for not_prime in (0, 1, 999983**2, 999983 * 1000003):
        with pytest.raises(ValueError):
            torsion_dim(ABELIAN_SURFACE, not_prime)


def test_torsion_dim_refuses_primes_beyond_trial_division():
    # a prime with no witness below 10^6 is refused at once instead of tried up to 10^9
    with pytest.raises(ValueError, match="trial division up to 1000000"):
        torsion_dim(ABELIAN_SURFACE, 10**18 + 3)


def test_projective_bundle():
    sections = {2: ABELIAN_SURFACE, 0: SyntheticHodge(0, (1,), 0)}
    out = projective_bundle(sections, 1, 2)
    assert discrepancy(out) == discrepancy(ABELIAN_SURFACE)
    assert out.numbers == (1, 5, 1)  # the twist adds one (1,1) class
    assert projective_bundle({2: ABELIAN_SURFACE}, 0, 2) == ABELIAN_SURFACE
    with pytest.raises(MissingSummand):
        projective_bundle({2: ABELIAN_SURFACE}, 1, 2)
    with pytest.raises(MissingSummand):
        projective_bundle({2: ABELIAN_SURFACE, 0: ABELIAN_SURFACE}, 1, 2)


def test_blowup_preserves_discrepancy():
    w2_of_3fold = ABELIAN_3FOLD_W2
    point = SyntheticHodge(0, (1,), 0)
    blown = blowup(w2_of_3fold, {0: point}, 3)
    assert discrepancy(blown) == 0
    assert blown.numbers[1] == w2_of_3fold.numbers[1] + 1
    assert blowup(w2_of_3fold, {}, 1) == w2_of_3fold
    rng = random.Random(227)
    for _ in range(100):
        h = random_hodge(rng, 2)
        chain = h
        for _ in range(3):
            chain = blowup(chain, {0: point}, rng.randint(2, 4))
        assert discrepancy(chain) == discrepancy(h)
    with pytest.raises(MissingSummand):
        blowup(w2_of_3fold, {}, 3)


def test_split_h0():
    head, rest = split_h0(ABELIAN_SURFACE)
    assert head == SyntheticHodge(2, (1, 0, 1), 2)
    assert rest == SyntheticHodge(2, (0, 4, 0), 0)
    assert direct_sum([head, rest]) == ABELIAN_SURFACE

    w3 = abelian_product_hodge(3, 3)
    head3, _ = split_h0(w3)
    assert head3 == SyntheticHodge(3, (1, 0, 0, 1), 2)

    h0, h0rest = split_h0(ZERO_W2)
    assert h0.total_rank == 0 and h0rest == ZERO_W2

    with pytest.raises(NoJacobian, match="discrepancy 3 != 0"):
        split_h0(SyntheticHodge(2, (2, 5, 2), 7))


def test_split_h0_refuses_weight_zero():
    # discrepancy 0 at weight 0, so only the weight refuses it; and the weight
    # is tested first, so a weight-0 discrepancy of -1 (rank below 2 h^{0,0},
    # which only positive weight refuses) is refused for its weight too
    for h in (SyntheticHodge(0, (0,), 0), SyntheticHodge(0, (1,), 1)):
        with pytest.raises(BadWeight, match="weight must be positive"):
            split_h0(h)


def test_abelian_product_hodge_values():
    h22 = abelian_product_hodge(2, 2)
    assert h22.total_rank == 6 and h22.h0m == 1 and h22.rank_image == 2
    assert h22.total_rank - h22.rank_image == 4
    assert abelian_product_hodge(3, 2).total_rank - abelian_product_hodge(3, 2).rank_image == 9
    w33 = abelian_product_hodge(3, 3)
    assert w33.h0m == 1 and w33.rank_image == 2 and discrepancy(w33) == 0
    for n in range(2, 7):
        h = abelian_product_hodge(n, 2)
        assert has_jacobian(h)
        assert h.total_rank == math.comb(2 * n, 2)
        assert h.total_rank - h.rank_image == n * n
    with pytest.raises(BadWeight):
        abelian_product_hodge(3, 1)
    with pytest.raises(BadWeight):
        abelian_product_hodge(3, 4)


def test_abelian_product_hodge_refuses_a_large_weight_before_overflowing():
    # m * log10(...) raised OverflowError: int too large to convert to float
    with pytest.raises(HodgeTooLarge):
        abelian_product_hodge(10**400, 10**400)
    # the bound C(2n, m) <= (2n*e/m)^m has at least m*log10(2e) digits
    m = math.floor(MAX_HODGE_DIGITS / math.log10(2 * math.e)) + 1
    for n in (m, 10**400):
        with pytest.raises(HodgeTooLarge):
            abelian_product_hodge(n, m)


def test_abelian_product_hodge_budget_scales_down_with_a_lower_int_digit_limit(monkeypatch):
    import sys

    # C(2400, 1200) has 722 digits: within the default budget, past the 297
    # digits that a limit of 640 leaves, which is refused before building it
    assert abelian_product_hodge(1200, 1200).total_rank == math.comb(2400, 1200)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640, raising=False)
    with pytest.raises(HodgeTooLarge, match="above the 297 budget"):
        abelian_product_hodge(1200, 1200)


def test_hodge_literal_round_trip():
    text = "weight 2; h = [1, 4, 1]; rankL = 2"
    assert parse_hodge(text) == ABELIAN_SURFACE
    assert parse_hodge(str(ABELIAN_3FOLD_W2)) == ABELIAN_3FOLD_W2
    with pytest.raises(ParseError):
        parse_hodge("weight 2; h = [1,4]; rankL = 2")
    with pytest.raises(ParseError):
        parse_hodge("h = [1,4,1]")


def test_hodge_literal_refuses_empty_entries():
    # every entry is read as an integer: "1,,4,1," used to read as [1, 4, 1]
    for hs in ("1,,4,1", "1,4,1,", ",1,4,1", "", " "):
        with pytest.raises(ParseError):
            parse_hodge(f"weight 2; h = [{hs}]; rankL = 2")
