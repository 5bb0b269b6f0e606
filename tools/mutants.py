"""A standing mutation sweep: which defects does tier-1 catch?

Each mutant is one text replacement in one module of src/weightjac, listed
below with the outcome it must have.  The sweep copies the checkout to a
temporary directory, checks that tier-1 passes there unmutated, then applies
each mutant in turn and runs tier-1 with -x against it.  A mutant that fails
a test is killed; one that passes every test survived.  A mutant listed as
equivalent changes nothing the package promises, for the reason given, and
must survive.  A mutant whose old text no longer occurs exactly once in its
module is stale, and the list needs mending.  The exit status is 0 when every
mutant ends as listed.

    python tools/mutants.py

A sweep of the 24 mutants took about 11 minutes on a 2-CPU VM with
Python 3.11, where tier-1 alone takes about 47 s; no mutant took longer
than tier-1.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a mutant that makes a loop run forever is killed by the timeout
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    module: str  # under src/weightjac
    old: str
    new: str
    expected: str  # "killed" or "equivalent"
    why: str  # what the mutant breaks, or why it breaks nothing


MUTANTS = [
    Mutant(
        "analytic.py", "mpf_shift(scale, 16 - prec)", "mpf_shift(scale, 40 - prec)", "killed",
        "the reality test's margin, loosened 2^24-fold",
    ),
    Mutant(
        "analytic.py", "bits = math.log2(math.comb(h, h // 2))", "bits = 0.0", "killed",
        "Enge's bound without its binomial term",
    ),
    Mutant(
        "analytic.py", "weight = sign * (2 * n + 1)", "weight = sign * (2 * n - 1)", "killed",
        "Jacobi's series with the weight of each term lowered by 2",
    ),
    Mutant(
        "analytic.py", "re, im = pre, pim = 1 << w, 0", "(re, im), (pre, pim) = (1 << w, 0), (0, 0)",
        "killed",
        "Gauss's series P(q) with its first term, the constant 1, dropped",
    ),
    Mutant(
        "analytic.py", "g = (h - 1).bit_length() + 24", "g = (h - 1).bit_length() + 8", "killed",
        "the expansion's guard lowered by 16 bits: the rounding still passes, the theorem fails",
    ),
    Mutant(
        "analytic.py", "            a += root_mag + 2\n", "", "killed",
        "a paired root read without the extra bits that p = |r|^2 needs",
    ),
    Mutant(
        "analytic.py",
        "if floors == tuple((x + bound) >> guard for x in values):",
        "if True:",
        "killed",
        "a memo of pi, log 2 or a unit keeps floors that Ziv's test has not made certain",
    ),
    Mutant(
        "analytic.py",
        "q = q256[0] >> 8, q256[1] >> 8",
        "q = (q256[0] + 128) >> 8, (q256[1] + 128) >> 8",
        "killed",
        "q rounded to nearest from 256 q, not floored: within the lemma, but other bits of j",
    ),
    Mutant(
        "cli.py", 'rec["prec"] >= analytic.start_precision(D)', 'rec["prec"] >= 64', "killed",
        "the cache serves a record computed below start_precision(D)",
    ),
    Mutant(
        "cli.py", "if not parent.is_dir():", "if not path.parent.is_dir():", "killed",
        "a symlink into a missing directory is refused only after hcp computes",
    ),
    Mutant(
        "cli.py", '("cache", "discriminant")),', '("discriminant",)),', "killed",
        "classgroup no longer takes the --cache that the cli-mix deck passes",
    ),
    Mutant(
        "binforms.py", "return b == 0 or b == a or a == c", "return b == 0 or b == a", "killed",
        "forms with a = c are not read as classes of order at most 2",
    ),
    Mutant(
        "cmlattice.py", "q1 * q2 + d * r1 * r2,", "q1 * q2 - d * r1 * r2,", "killed",
        "the lattice product with the wrong sign of sqrt(d)^2",
    ),
    Mutant(
        "cmlattice.py",
        "if z.field != self.field:\n            return False",
        "if z.field != self.field:\n            return True",
        "killed",
        "CMLattice.contains accepts elements of another field",
    ),
    Mutant(
        "quadfield.py", "len(m[1]) > budget", "len(m[1]) >= budget", "killed",
        "an integer literal of exactly the digit budget is refused",
    ),
    Mutant(
        "quadfield.py",
        '            if other == 0:\n                raise DivisionByZero("division by zero")\n',
        "",
        "killed",
        "division of an element by a rational 0 raises ZeroDivisionError, not DivisionByZero",
    ),
    Mutant(
        "hodgecalc.py", "    if m == 0:\n", "    if m < 0:\n", "killed",
        "split_h0 splits a weight-0 structure",
    ),
    Mutant(
        "jacobians.py",
        "self.form.discriminant != self.order.discriminant",
        "self.form.discriminant < self.order.discriminant",
        "killed",
        "a curve class takes a form of a smaller |D| than its order's",
    ),
    Mutant(
        "jacobians.py",
        '    if e_small.field != e_big.field:\n        raise FieldMismatch("classes over different fields")\n',
        "",
        "killed",
        "field_contains over two fields raises DiscriminantMismatch, not FieldMismatch",
    ),
    Mutant(
        "jacobians.py", "chain[1] // chain[0] if x.n == 2", "chain[-1] // chain[0] if x.n == 2",
        "equivalent",
        "a chain of n = 2 conductors has two entries, so chain[-1] is chain[1]",
    ),
    Mutant(
        "errors.py", "class CacheUnusable(WeightjacError):", "class CacheUnusable(Exception):",
        "killed",
        "an unusable cache path is an internal failure (exit 1), not an input error",
    ),
    Mutant(
        "__init__.py", '"quadfield": ("FieldTag", "QuadElem"),', '"quadfield": ("FieldTag",),',
        "killed",
        "weightjac.QuadElem is no longer exported",
    ),
    Mutant(
        "__main__.py", "    run()\n", "    pass\n", "killed",
        "python -m weightjac runs no command",
    ),
    Mutant(
        "__main__.py", "    gc.disable()\n", "", "equivalent",
        "collecting while the CLI loads changes its start-up time, not its reports",
    ),
]


def _tier1(copy: Path) -> tuple[bool, str, float]:
    """Tier-1 with -x in copy: (passed, the first failure or '', seconds)."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    started = time.monotonic()
    try:
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s", time.monotonic() - started
    seconds = time.monotonic() - started
    if out.returncode == 0:
        return True, "", seconds
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out.stdout, re.M)
    return False, failed[1] if failed else out.stdout.strip()[-200:], seconds


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="weightjac-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                          "*.egg-info", "build", "dist"),
        )
        passed, first, seconds = _tier1(copy)
        print(f"unmutated: {'passed' if passed else 'FAILED ' + first} ({seconds:.0f} s)", flush=True)
        if not passed:
            return 1
        mismatches = 0
        for number, mutant in enumerate(MUTANTS, 1):
            path = copy / "src" / "weightjac" / mutant.module
            source = path.read_text(encoding="utf-8")
            if source.count(mutant.old) != 1:
                outcome, note, seconds = "stale", "old text does not occur exactly once", 0.0
            else:
                path.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
                try:
                    survived, note, seconds = _tier1(copy)
                finally:
                    path.write_text(source, encoding="utf-8")
                if not survived:
                    outcome = "killed"
                else:
                    outcome = "equivalent" if mutant.expected == "equivalent" else "survived"
                    note = mutant.why
            ok = outcome == mutant.expected
            mismatches += not ok
            mark = "" if ok else f"  [expected {mutant.expected}]"
            print(f"{number:2} {mutant.module}: {outcome} ({seconds:.0f} s) {note}{mark}", flush=True)
        print(f"{len(MUTANTS) - mismatches} of {len(MUTANTS)} mutants ended as listed")
        return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
