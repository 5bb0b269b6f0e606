"""Rank bookkeeping for higher-weight Jacobians of Hodge data.

A SyntheticHodge carries a weight, the Hodge numbers, and the rank of the
image of integral cohomology in the (0, m) piece; that is enough to evaluate
the Jacobian discrepancy, torsion dimensions, and the blowup / projective
bundle bookkeeping.  Data with h^{0,m} > 0 but rank below 2*h^{0,m} is
rejected at construction (such data never comes from geometry).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import Mapping

from .errors import BadWeight, HodgeTooLarge, MissingSummand, NoJacobian, ParseError, WeightMismatch
from .quadfield import MAX_TRIAL_DIVISOR, digit_budget, factorize, parse_int


@dataclass(frozen=True, slots=True)
class SyntheticHodge:
    """Weight-m Hodge data: numbers (h^{m,0}, ..., h^{0,m}) and rank of the image lattice."""

    weight: int
    numbers: tuple[int, ...]
    rank_image: int

    def __post_init__(self):
        for v in (self.weight, *self.numbers, self.rank_image):
            if type(v) is not int:  # bools are ints to isinstance
                raise ParseError(f"hodge data must be integers, got {v!r}")
        m = self.weight
        if m < 0 or len(self.numbers) != m + 1:
            raise ParseError(f"weight {m} needs {m + 1} hodge numbers")
        if any(h < 0 for h in self.numbers):
            raise ParseError("hodge numbers must be nonnegative")
        if tuple(reversed(self.numbers)) != self.numbers:
            raise ParseError("hodge numbers must satisfy h^{p,q} = h^{q,p}")
        if self.rank_image < 0 or self.rank_image > self.total_rank:
            raise ParseError("rank of the image lattice out of range")
        if self.h0m == 0:
            if self.rank_image != 0:
                raise ParseError("rank must vanish when h^{0,m} = 0")
        elif m > 0 and self.rank_image < 2 * self.h0m:
            # positive weight only: the image spans H^{0,m} over the reals
            raise ParseError("image lattice must span H^{0,m} over the reals")

    @property
    def h0m(self) -> int:
        return self.numbers[-1]

    @property
    def total_rank(self) -> int:
        return sum(self.numbers)

    def hodge_number(self, p: int, q: int) -> int:
        if p < 0 or q < 0 or p + q != self.weight:
            return 0
        return self.numbers[self.weight - p]

    def __str__(self):
        return f"weight {self.weight}; h = {list(self.numbers)}; rankL = {self.rank_image}"


def discrepancy(h: SyntheticHodge) -> int:
    """Jacobian discrepancy: rank of the image lattice minus 2*dim H^{0,m}."""
    return h.rank_image - 2 * h.h0m


def has_jacobian(h: SyntheticHodge) -> bool:
    """True iff the image lattice is discrete, i.e. the discrepancy vanishes."""
    return discrepancy(h) == 0


def direct_sum(summands: list[SyntheticHodge]) -> SyntheticHodge:
    """Componentwise sum; the discrepancy is additive."""
    if not summands:
        raise WeightMismatch("empty direct sum")
    m = summands[0].weight
    if any(s.weight != m for s in summands):
        raise WeightMismatch("direct sum of different weights")
    numbers = tuple(sum(s.numbers[i] for s in summands) for i in range(m + 1))
    rank = sum(s.rank_image for s in summands)
    return SyntheticHodge(m, numbers, rank)


def torsion_dim(h: SyntheticHodge, p: int) -> int:
    """dim of the p-torsion of the Jacobian quotient: 2*h^{0,m} + discrepancy.

    p is proven prime by trial division up to MAX_TRIAL_DIVISOR, so a p above
    its square is refused with ValueError, as a non-prime p is.
    """
    if p > MAX_TRIAL_DIVISOR**2:
        raise ValueError(f"{p} is too large for trial division up to {MAX_TRIAL_DIVISOR}")
    if p < 2 or factorize(p) != {p: 1}:
        raise ValueError(f"{p} is not prime")
    return 2 * h.h0m + discrepancy(h)


def _twist(h: SyntheticHodge, i: int, m: int) -> SyntheticHodge:
    """h(-i) regarded as weight-m data; its (0, m) piece vanishes for i > 0."""
    numbers = tuple(h.hodge_number(p - i, m - p - i) for p in range(m, -1, -1))
    return SyntheticHodge(m, numbers, 0 if i > 0 else h.rank_image)


def _twisted(
    sections: Mapping[int, SyntheticHodge], twists: range, m: int, role: str
) -> list[SyntheticHodge]:
    """The summands H^{m-2i}(-i) of sections for i in twists while m - 2i >= 0."""
    summands = []
    for i in twists:
        w = m - 2 * i
        if w < 0:
            break
        if w not in sections:
            raise MissingSummand(f"need the weight-{w} data of the {role}")
        section = sections[w]
        if section.weight != w:
            raise MissingSummand(f"entry {w} has weight {section.weight}")
        summands.append(_twist(section, i, m))
    return summands


def projective_bundle(
    sections: Mapping[int, SyntheticHodge], d: int, m: int
) -> SyntheticHodge:
    """Weight-m data of a P^d-bundle: sum of H^{m-2i}(X)(-i) for 0 <= i <= d.

    Twisted summands contribute no (0, m) part, so the discrepancy equals
    that of the weight-m section.
    """
    return direct_sum(_twisted(sections, range(d + 1), m, "base"))


def blowup(
    ambient: SyntheticHodge, center_sections: Mapping[int, SyntheticHodge], d: int
) -> SyntheticHodge:
    """Weight-m data of a blowup along a codimension-d center.

    Adds H^{m-2i}(Y)(-i) for 1 <= i <= d-1; the discrepancy is unchanged and
    the induced map of weight-m Jacobians is an isomorphism.
    """
    return direct_sum([ambient] + _twisted(center_sections, range(1, d), ambient.weight, "center"))


def split_h0(h: SyntheticHodge) -> tuple[SyntheticHodge, SyntheticHodge]:
    """Split off the (m,0)+(0,m) part when a Jacobian exists.

    Returns (H0, H') with H0 of type (r, 0, ..., 0, r), rank 2r, and H' the
    complement with vanishing (0, m) piece; their sum restores the input.
    """
    m, r = h.weight, h.h0m
    if m == 0:
        raise BadWeight("weight must be positive to split")
    if discrepancy(h) != 0:
        raise NoJacobian(f"discrepancy {discrepancy(h)} != 0")
    head = (r,) + (0,) * (m - 1) + (r,)
    rest = tuple(n - e for n, e in zip(h.numbers, head))
    return (
        SyntheticHodge(m, head, 2 * r),
        SyntheticHodge(m, rest, 0),
    )


# every Hodge number of an n-fold product is at most the total rank C(2n, m);
# past this many decimal digits building them takes seconds (n = 3000,
# m = 1500, about 1460 digits, takes 0.6 s on a 2-CPU VM with Python 3.11)
# and soon JSON cannot print them; a lower int/str limit scales it down
# (digit_budget)
MAX_HODGE_DIGITS = 2000


def abelian_product_hodge(n: int, m: int) -> SyntheticHodge:
    """Weight-m data of a 2-maximal product of n elliptic curves.

    Total rank C(2n, m), h^{p,q} = C(n,p)*C(n,q), image rank 2*C(n,m); for
    m = 2 the kernel (Neron-Severi) rank is n^2.  Raises HodgeTooLarge before
    building anything when the bound C(2n, m) <= (2n*e/m)^m exceeds
    digit_budget(MAX_HODGE_DIGITS) decimal digits.
    """
    if m < 2 or m > n:
        raise BadWeight(f"need 2 <= m <= {n}, got {m}")
    budget = digit_budget(MAX_HODGE_DIGITS)
    # C(2n, m) >= 2^m as m <= n, so an m past the float range, which would
    # overflow the float product below, is refused before it
    if m > sys.float_info.max:
        raise HodgeTooLarge(f"C({2 * n}, {m}) has more than {budget} digits")
    digits = m * (math.log10(2 * n) - math.log10(m) + math.log10(math.e))
    if digits > budget:
        raise HodgeTooLarge(
            f"C({2 * n}, {m}) has up to {digits:.0f} digits, above the {budget} budget"
        )
    numbers = tuple(math.comb(n, p) * math.comb(n, m - p) for p in range(m, -1, -1))
    return SyntheticHodge(m, numbers, 2 * math.comb(n, m))


_HODGE_RE = re.compile(
    r"^\s*weight\s+(?P<m>[0-9]+)\s*;\s*h\s*=\s*\[(?P<hs>[^\]]*)\]\s*;"
    r"\s*rankL\s*=\s*(?P<r>[0-9]+)\s*$"
)


def parse_hodge(text: str) -> SyntheticHodge:
    """Parse "weight m; h = [h^{m,0}, ..., h^{0,m}]; rankL = k".

    Every entry is read by parse_int, so an empty one, as in "h = [1,,1]", is
    a ParseError.
    """
    m = _HODGE_RE.match(text)
    if not m:
        raise ParseError(f"not a hodge data literal: {text!r}")
    numbers = tuple(map(parse_int, m["hs"].split(",")))
    return SyntheticHodge(parse_int(m["m"]), numbers, parse_int(m["r"]))

