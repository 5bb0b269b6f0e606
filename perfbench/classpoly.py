"""classpoly: Hilbert class polynomials from a precision that suffices.

One op is ``hilbert_class_polynomial(D, start_precision(D))``: the start is
64 bits above the a-priori coefficient size bound of Enge (Math. Comp. 78,
2009),
    B = log2 C(h, h//2) + sum over reduced forms of log2(exp(pi*sqrt|D|/a) + 2079),
rounded up to a multiple of 64.  Escalating from the CLI default of 128 bits
instead returns wrong polynomials for some D at this version of the
library (its 0.25 rounding test passes while the coefficients have more bits
than the j values were computed to); ``--check-128`` below lists them.
Discriminants have 1000 <= |D| <= 20000 and class number 5 <= h <= 28.
They are drawn in decks with a fixed share per cost cell of B and h, and
the seed picks the discriminants inside each cell, so every seed runs the
same mix.

The check: the polynomial is monic of degree len(enumerate_reduced(D)), its
constant term is an integer cube when 3 does not divide D, and it matches the
digest in classpoly_digests.json for every D listed there.  The digests
cover the default seed's pool and were computed by ``reference`` below,
which evaluates at the start precision and again 64 bits higher and
requires both to agree.  Regenerate them with

    python3 perfbench/classpoly.py --record-digests

List the discriminants of a seed's pool whose polynomial from 128 bits
differs from the reference (exit code 1 when there are any) with

    python3 perfbench/classpoly.py --check-128 SEED
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path

import inputs

DISC_RANGE = (1000, 20000)
# cell name -> (B range, h range, ops per deck)
# Narrow cells keep the cost of an op within about 1.5x inside a cell, so
# seeds differ little in the mix they run.
CELLS = {
    "b250-480": ((250, 480), (5, 10), 3),
    "b600-900": ((600, 900), (14, 18), 2),
    "b800-1000": ((800, 1000), (24, 28), 2),
    "b1100-1400": ((1100, 1400), (20, 26), 1),
}
DECKS = 40
REFERENCE_KERNEL = "in-process"  # see run.py
TAIL_PERCENTILE = 85
DIGESTS = Path(__file__).with_name("classpoly_digests.json")
EXPECTED_CALLS = (
    "analytic.hcp",
    "analytic.j_of_lattice",
    "analytic.fundamental_domain_exact",
    "binforms.enumerate_reduced",
    "cmlattice.from_generators",
    "quadfield.QuadElem.embed",
)


def coefficient_bound(D: int) -> tuple[int, float]:
    """(h, B): class number and the a-priori bit size of the largest coefficient."""
    forms = inputs.reduced_forms(D)
    h = len(forms)
    root = math.pi * math.sqrt(-D)
    bits = math.log2(math.comb(h, h // 2))
    bits += sum(math.log2(math.exp(root / a) + 2079) for a, _, _ in forms)
    return h, bits


def start_precision(D: int) -> int:
    """Enge's bound plus 64 bits, rounded up to a multiple of 64."""
    _, bits = coefficient_bound(D)
    return 64 * math.ceil((bits + 64) / 64)


def _cell_of(D: int) -> str | None:
    h, bits = coefficient_bound(D)
    for name, ((blo, bhi), (hlo, hhi), _) in CELLS.items():
        if blo <= bits <= bhi and hlo <= h <= hhi:
            return name
    return None


def draw_pool(seed: int) -> list[int]:
    """DECKS decks of discriminants, each deck shuffled, no D repeated."""
    rng = random.Random(f"classpoly:{seed}")
    wanted = {name: per_deck * DECKS for name, (_, _, per_deck) in CELLS.items()}
    found: dict[str, list[int]] = {name: [] for name in CELLS}
    seen = set()
    while any(len(found[n]) < wanted[n] for n in CELLS):
        D = inputs.log_uniform_disc(rng, *DISC_RANGE)
        if D in seen:
            continue
        seen.add(D)
        cell = _cell_of(D)
        if cell is not None and len(found[cell]) < wanted[cell]:
            found[cell].append(D)
    pool = []
    for k in range(DECKS):
        deck = []
        for name, (_, _, per_deck) in CELLS.items():
            deck.extend(found[name][k * per_deck:(k + 1) * per_deck])
        rng.shuffle(deck)
        pool.extend(deck)
    return pool


def digest(coefficients) -> str:
    return hashlib.sha256(",".join(map(str, coefficients)).encode()).hexdigest()


def _icbrt(n: int) -> int:
    """Integer cube root, rounded toward zero (Newton's method from above)."""
    sign, n = (-1 if n < 0 else 1), abs(n)
    if n == 0:
        return 0
    r = 1 << (n.bit_length() + 2) // 3
    while True:
        s = (2 * r + n // (r * r)) // 3
        if s >= r:
            return sign * r
        r = s


class Workload:
    def __init__(self, seed: int, workdir):
        from weightjac import analytic, binforms

        self.analytic = analytic
        self.binforms = binforms
        self.ops = draw_pool(seed)
        self.prec = {D: start_precision(D) for D in self.ops}
        self.digests = json.loads(DIGESTS.read_text())

    def execute(self, D: int):
        return self.analytic.hilbert_class_polynomial(D, self.prec[D])

    def check(self, records) -> list[str | None]:
        verdicts = []
        for D, poly, _ in records:
            if isinstance(poly, Exception):
                verdicts.append(f"raised {type(poly).__name__}: {poly}")
                continue
            coeffs = list(poly.coefficients)
            h = len(self.binforms.enumerate_reduced(D))
            problem = None
            if poly.D != D or coeffs[0] != 1 or len(coeffs) != h + 1:
                problem = f"not monic of degree h={h}"
            elif D % 3 and _icbrt(coeffs[-1]) ** 3 != coeffs[-1]:
                problem = "constant term is not a cube"
            elif str(D) in self.digests and self.digests[str(D)] != digest(coeffs):
                problem = "digest differs from the recorded one"
            verdicts.append(problem)
        return verdicts


def reference(D: int, analytic) -> tuple[int, ...]:
    """H_D from the start precision, which leaves every coefficient at least
    64 bits of margin; a second evaluation 64 bits higher must agree.
    """
    prec = start_precision(D)
    coeffs = analytic.hilbert_class_polynomial(D, prec).coefficients
    if analytic.hilbert_class_polynomial(D, prec + 64).coefficients != coeffs:
        raise RuntimeError(f"H_{D} differs between {prec} and {prec + 64} bits")
    return coeffs


def _analytic():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from weightjac import analytic

    return analytic


def _record_digests() -> None:
    analytic = _analytic()
    table = {}
    for D in draw_pool(0):
        table[str(D)] = digest(reference(D, analytic))
        print(D, table[str(D)], flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def _check_128(seed: int) -> int:
    """Print each D of the seed's pool whose H_D from 128 bits is wrong."""
    analytic = _analytic()
    wrong = 0
    for D in sorted(set(draw_pool(seed)), reverse=True):
        got = analytic.hilbert_class_polynomial(D, 128).coefficients
        if got != reference(D, analytic):
            wrong += 1
            print(D, "wrong from 128 bits", flush=True)
    print(f"{wrong} wrong of {len(set(draw_pool(seed)))}")
    return 1 if wrong else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--record-digests"]:
        _record_digests()
    elif len(sys.argv) == 3 and sys.argv[1] == "--check-128":
        sys.exit(_check_128(int(sys.argv[2])))
    else:
        sys.exit("usage: python3 perfbench/classpoly.py --record-digests | --check-128 SEED")
