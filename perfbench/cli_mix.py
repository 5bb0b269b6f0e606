"""cli-mix: sequential ``python -m weightjac.cli`` calls, one client, closed loop.

Every call pays interpreter start-up and imports, which dominate here.  The
ops come in decks with a fixed share per command; the seed picks the
arguments and the order inside each deck.  classgroup and hcp always use a
fresh per-run ``--cache`` file, and two slots per deck repeat an earlier
classgroup/hcp request, so the cache is both written and read.  One slot per
deck is an invalid input that must exit 2 with an error record.

The check compares each report's ``result`` with the answer the library
gives in process (jinv numerically, to the printed precision).
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

import inputs

DECKS = 16
TAIL_PERCENTILE = 85
CHILD_TIMEOUT_S = 120
# the work happens in child processes, so the machine's speed is gauged by
# launching an interpreter (see run.py)
REFERENCE_KERNEL = "launch"
TRACER = Path(__file__).with_name("tracer.py")
COMMANDS = (
    "reduce",
    "compose",
    "classgroup",
    "latprod",
    "jacobian",
    "decompose",
    "orbit",
    "fod",
    "hodge",
    "kummer",
    "jinv",
    "hcp",
    "verify-appendix",
    "error",
)
# cache-backed slots: fresh discriminants, then repeats of earlier requests
DECK = (
    "reduce", "compose", "classgroup-small", "classgroup-large", "latprod", "jacobian",
    "decompose", "orbit", "fod", "hodge", "kummer", "jinv", "hcp", "verify-appendix",
    "repeat", "repeat", "error",
)
EXPECTED_CALLS = (
    "binforms.reduce",
    "binforms.compose",
    "binforms.class_group",
    "binforms.enumerate_reduced",
    "cmlattice.lattice_product",
    "cmlattice.from_generators",
    "cmlattice.ideal_class",
    "jacobians.phi",
    "jacobians.m_jacobian",
    "jacobians.n_decompose",
    "jacobians.jacobian_orbit",
    "quadfield.QuadElem.minimal_polynomial",
    "quadfield.QuadElem.embed",
    "analytic.j_of_lattice",
    "analytic.fundamental_domain_exact",
    "analytic.hcp",
)


@dataclass
class CliOp:
    cmd: str  # a name from COMMANDS
    argv: list[str]
    expected: Callable[[], dict] | None  # library answer; None for an invalid input
    error_type: str | None = None
    cache_key: tuple | None = None  # ("classgroup", D) or ("hcp", D, prec)


@dataclass
class CliOutput:
    returncode: int
    stdout: str
    stderr: str
    cache_expected_hit: bool | None
    cache_observed_hit: bool | None
    rss_kb: int


def _curve_arg(curves) -> str:
    return ",".join(f"({e.order.discriminant}:{e.form})" for e in curves)


def _curve_record(e) -> dict:
    return {"discriminant": e.order.discriminant, "form": list(e.form.as_tuple())}


def _order_record(order) -> dict:
    return {"d": order.field.d, "conductor": order.f, "discriminant": order.discriminant}


def _random_form(rng: random.Random) -> tuple[int, int, int]:
    """A primitive positive-definite form, usually far from reduced."""
    while True:
        a = rng.randint(1, 2000)
        b = rng.randint(-2000, 2000)
        c = b * b // (4 * a) + rng.randint(1, 2000)
        if math.gcd(math.gcd(a, abs(b)), c) == 1:
            return inputs.sl2_transform((a, b, c), rng)


class Generator:
    """Builds CliOp values from a seeded stream; holds no state of a run."""

    def __init__(self, rng: random.Random, wj, cache: str):
        self.rng = rng
        self.wj = wj
        self.cache = cache
        self.requested: list[tuple] = []  # earlier cache keys, for repeats

    def deck(self) -> list[CliOp]:
        slots = list(DECK)
        self.rng.shuffle(slots)
        if not self.requested:
            # the first repeat needs an earlier request to repeat
            slots.sort(key=lambda s: s == "repeat")
        return [getattr(self, "_" + slot.replace("-", "_"))() for slot in slots]

    # -- valid requests -----------------------------------------------------

    def _reduce(self) -> CliOp:
        form = self.wj.Form(*_random_form(self.rng))
        binforms = self.wj.binforms

        def expected():
            return {
                "reduced": list(binforms.reduce(form).as_tuple()),
                "discriminant": form.discriminant,
            }

        return CliOp("reduce", ["reduce", "--form", str(form)], expected)

    def _compose(self) -> CliOp:
        rng = self.rng
        D = inputs.log_uniform_disc(rng, 100, 20000)
        forms = inputs.reduced_forms(D)
        f, g = (self.wj.Form(*inputs.sl2_transform(rng.choice(forms), rng)) for _ in range(2))
        binforms = self.wj.binforms

        def expected():
            return {"composed": list(binforms.compose(f, g).as_tuple()), "discriminant": D}

        return CliOp("compose", ["compose", "--forms", f"{f};{g}"], expected)

    def _classgroup(self, D: int) -> CliOp:
        binforms = self.wj.binforms
        return CliOp(
            "classgroup",
            ["classgroup", "-D", str(D), "--cache", self.cache],
            lambda: binforms.class_group(D).to_record(),
            cache_key=("classgroup", D),
        )

    def _new_classgroup(self, lo: int, hi: int, hmin: int, hmax: int) -> CliOp:
        D = inputs.disc_with_class_number(self.rng, lo, hi, hmin, hmax)
        self.requested.append(("classgroup", D))
        return self._classgroup(D)

    def _classgroup_small(self) -> CliOp:
        return self._new_classgroup(10**3, 10**5, 8, 64)

    def _classgroup_large(self) -> CliOp:
        return self._new_classgroup(10**5, 10**6, 100, 160)

    def _hcp(self, D: int | None = None, prec: int | None = None) -> CliOp:
        rng = self.rng
        if D is None:
            D = inputs.disc_with_class_number(rng, 50, 5000, 2, 8)
            prec = rng.choice((128, 256))
            self.requested.append(("hcp", D, prec))
        analytic = self.wj.analytic

        def expected():
            coeffs = list(analytic.hilbert_class_polynomial(D, prec).coefficients)
            return {"D": D, "degree": len(coeffs) - 1, "coefficients": coeffs, "prec": prec}

        return CliOp(
            "hcp",
            ["hcp", "-D", str(D), "--prec", str(prec), "--cache", self.cache],
            expected,
            cache_key=("hcp", D, prec),
        )

    def _repeat(self) -> CliOp:
        key = self.rng.choice(self.requested)
        if key[0] == "classgroup":
            return self._classgroup(key[1])
        return self._hcp(key[1], key[2])

    def _lattice(self, order) -> tuple:
        """A lattice of the given order as (CLI literal, library CMLattice)."""
        rng, wj = self.rng, self.wj
        lat = inputs.random_class(rng, order, wj).lattice()
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        g1 = lat.g1 * scale
        g2 = (lat.g2 + lat.g1 * rng.randint(-3, 3)) * scale
        return f"<{g1};{g2}>@{order.field.d}", wj.canonicalize(g1, g2)

    def _latprod(self) -> CliOp:
        curves = inputs.random_curves(self.rng, 2, self.wj)
        (t1, l1), (t2, l2) = (self._lattice(e.order) for e in curves)
        cmlattice = self.wj.cmlattice

        def expected():
            prod = cmlattice.lattice_product(l1, l2)
            order, form = cmlattice.ideal_class(prod)
            return {"product": str(prod), "order": _order_record(order), "class": list(form.as_tuple())}

        return CliOp("latprod", ["latprod", "--lattices", f"{t1},{t2}"], expected)

    def _weight_result(self, x, m) -> dict:
        factors = self.wj.jacobians.m_jacobian(x, m).factors
        return {
            "weight": m,
            "factors": [
                {"indices": list(s), "discriminant": f.order.discriminant, "form": list(f.form.as_tuple())}
                for s, f in zip(combinations(range(x.n), m), factors)
            ],
        }

    def _jacobian(self) -> CliOp:
        curves = inputs.random_curves(self.rng, self.rng.randint(2, 4), self.wj)
        m = self.rng.randint(2, len(curves))
        x = self.wj.ProductAV(tuple(curves))
        argv = ["jacobian", "--curves", _curve_arg(curves), "-m", str(m)]
        return CliOp("jacobian", argv, lambda: self._weight_result(x, m))

    def _kummer(self) -> CliOp:
        curves = inputs.random_curves(self.rng, self.rng.randint(2, 3), self.wj)
        m = self.rng.randint(2, len(curves))
        x = self.wj.ProductAV(tuple(curves))

        def expected():
            labels = ["kummer-variety"] + (["singular-K3"] if x.n == 2 and m == 2 else [])
            return {"labels": labels, **self._weight_result(x, m)}

        argv = ["kummer", "--curves", _curve_arg(curves), "-m", str(m)]
        return CliOp("kummer", argv, expected)

    def _decompose(self) -> CliOp:
        curves = inputs.random_curves(self.rng, self.rng.randint(2, 4), self.wj)
        jac = self.wj.jacobians

        def expected():
            result = jac.n_decompose(self.wj.ProductAV(tuple(curves))).to_record()
            if len(curves) == 2:
                e1, e2 = curves
                report = jac.surface_decompose(e1, e2)
                result["surface"] = {
                    "big_order": _order_record(report.big_order),
                    "jacobian": _curve_record(report.jacobian),
                    "primitivity_degree": report.primitivity_degree,
                }
                if e1.order == e2.order:
                    result["surface"]["definable_over_jacobian_field"] = (
                        jac.product_definable_over_jacobian_field(e1, e2)
                    )
            return result

        return CliOp("decompose", ["decompose", "--curves", _curve_arg(curves)], expected)

    def _orbit(self) -> CliOp:
        curves = inputs.random_curves(self.rng, self.rng.randint(3, 4), self.wj)
        jac = self.wj.jacobians

        def expected():
            orbit = jac.jacobian_orbit(self.wj.ProductAV(tuple(curves)))
            return {"length": len(orbit), "orbit": [d.to_record() for d in orbit]}

        return CliOp("orbit", ["orbit", "--curves", _curve_arg(curves)], expected)

    def _fod(self) -> CliOp:
        rng, wj = self.rng, self.wj
        e1, e2 = inputs.random_curves(rng, 2, wj)
        if rng.random() < 0.5:
            e2 = inputs.random_class(rng, e1.order, wj)
        jac = wj.jacobians

        def expected():
            if e1.order == e2.order:
                return {
                    "mode": "same-order",
                    "same_field_of_definition": jac.same_field_of_definition(e1, e2),
                    "product_definable_over_jacobian_field": (
                        jac.product_definable_over_jacobian_field(e1, e2)
                    ),
                }
            f1, f2 = e1.conductor, e2.conductor
            contains = None
            if f2 % f1 == 0:
                contains = jac.field_contains(e1, e2)
            elif f1 % f2 == 0:
                contains = jac.field_contains(e2, e1)
            return {"mode": "phi-transfer", "field_of_smaller_contained_in_larger": contains}

        return CliOp("fod", ["fod", "--curves", _curve_arg([e1, e2])], expected)

    def _hodge(self) -> CliOp:
        rng, hodgecalc = self.rng, self.wj.hodgecalc
        if rng.random() < 0.5:
            n = rng.randint(2, 5)
            m = rng.randint(2, n)
            h = hodgecalc.abelian_product_hodge(n, m)
            argv, abelian = ["hodge", "--abelian", f"{n},{m}"], True
        else:
            m = rng.randint(1, 4)
            half = [rng.randint(0, 4) for _ in range(m // 2 + 1)]
            numbers = half + (half[::-1] if m % 2 else half[-2::-1])
            numbers[0] = numbers[-1] = rng.randint(1, 3)
            rank = rng.choice((2 * numbers[-1], rng.randint(2 * numbers[-1], sum(numbers))))
            h = hodgecalc.SyntheticHodge(m, tuple(numbers), rank)
            argv, abelian = ["hodge", "--data", str(h)], False

        def expected():
            delta = hodgecalc.discrepancy(h)
            result = {
                "weight": h.weight,
                "hodge_numbers": list(h.numbers),
                "rank_image": h.rank_image,
                "delta": delta,
                "has_jacobian": hodgecalc.has_jacobian(h),
                "torsion_dim_any_prime": hodgecalc.torsion_dim(h, 2),
                "kernel_rank": h.total_rank - h.rank_image,
            }
            if delta == 0 and h.weight > 0:
                head, rest = hodgecalc.split_h0(h)
                result["split"] = {"h0_part": str(head), "complement": str(rest)}
            if abelian and h.weight == 2:
                result["ns_rank"] = h.total_rank - h.rank_image
            return result

        return CliOp("hodge", argv, expected)

    def _jinv(self) -> CliOp:
        rng, wj = self.rng, self.wj
        (e,) = inputs.random_curves(rng, 1, wj)
        text, lat = self._lattice(e.order)
        prec = rng.choice((128, 256, 384, 512))
        analytic, cmlattice = wj.analytic, wj.cmlattice

        def expected():
            order, form = cmlattice.ideal_class(lat)
            return {
                "value": analytic.j_of_lattice(lat, prec),
                "prec": prec,
                "fundamental_tau": str(analytic.fundamental_domain_exact(lat.tau)),
                "order": _order_record(order),
                "class": list(form.as_tuple()),
            }

        return CliOp("jinv", ["jinv", "--lattices", text, "--prec", str(prec)], expected)

    def _verify_appendix(self) -> CliOp:
        prec = self.rng.choice((128, 256))
        analytic = self.wj.analytic

        def expected():
            fixtures = analytic.verify_appendix(prec)
            ok = all(r["matches_exact_value"] and r["reality_matches_class_order"] for r in fixtures)
            return {"prec": prec, "fixtures": fixtures, "all_ok": ok}

        return CliOp("verify-appendix", ["verify-appendix", "--prec", str(prec)], expected)

    # -- invalid requests ---------------------------------------------------

    def _error(self) -> CliOp:
        rng, wj = self.rng, self.wj
        kind = rng.randrange(7)
        if kind == 0:
            D = rng.choice((1, 4)) + 4 * rng.randint(0, 10**4)
            return CliOp("error", ["classgroup", "-D", str(D)], None, "InvalidDiscriminant")
        if kind == 1:
            a, b, c = _random_form(rng)
            k = rng.randint(2, 9)
            return CliOp("error", ["reduce", "--form", f"{k * a},{k * b},{k * c}"], None, "ParseError")
        if kind == 2:
            f = _random_form(rng)
            g = _random_form(rng)
            while g[1] ** 2 - 4 * g[0] * g[2] == f[1] ** 2 - 4 * f[0] * f[2]:
                g = _random_form(rng)
            argv = ["compose", "--forms", "%d,%d,%d;%d,%d,%d" % (*f, *g)]
            return CliOp("error", argv, None, "DiscriminantMismatch")
        if kind == 3:
            curves = inputs.random_curves(rng, 2, wj)
            argv = ["jacobian", "--curves", _curve_arg(curves), "-m", "3"]
            return CliOp("error", argv, None, "BadWeight")
        if kind == 4:
            argv = ["hcp", "-D", "-23", "--prec", str(rng.randint(1, 63))]
            return CliOp("error", argv, None, "ParseError")
        if kind == 5:
            curves = inputs.random_curves(rng, 2, wj)
            argv = ["orbit", "--curves", _curve_arg(curves)]
            return CliOp("error", argv, None, "DimensionTooSmall")
        # a required option left out: rejected by the argument parser
        return CliOp("error", ["jacobian", "-m", str(rng.randint(2, 4))], None, "UsageError")


class Workload:
    def __init__(self, seed: int, workdir: Path):
        import weightjac
        from weightjac import analytic, cli, hodgecalc  # noqa: F401  (compiles the CLI's modules)

        self.root = Path(__file__).resolve().parent.parent
        self.cache = workdir / "cache.jsonl"
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.env.pop("WJ_CACHE", None)
        self.tracer = None
        self.trace_file = workdir / "child-trace.json"
        self.stderr_file = workdir / "child-stderr.txt"
        gen = Generator(random.Random(f"cli-mix:{seed}"), weightjac, str(self.cache))
        self.ops = [op for _ in range(DECKS) for op in gen.deck()]
        self.begin_pass()

    def begin_pass(self) -> None:
        """Start from an empty cache file."""
        if self.cache.exists():
            self.cache.unlink()
        self.cached_forms: set[int] = set()
        self.cached_hcp: dict[int, int] = {}

    def execute(self, op: CliOp) -> CliOutput:
        if self.tracer is None:
            argv = [sys.executable, "-m", "weightjac.cli", *op.argv]
        else:
            argv = [sys.executable, str(TRACER), str(self.trace_file), *op.argv]
        expected_hit = None
        if op.cache_key:
            D = op.cache_key[1]
            if op.cache_key[0] == "classgroup":
                expected_hit = D in self.cached_forms
            else:
                expected_hit = self.cached_hcp.get(D, 0) >= op.cache_key[2]
        size = self.cache.stat().st_size if self.cache.exists() else 0
        returncode, stdout, stderr, rss_kb = self._run_child(argv)
        observed_hit = None
        if op.cache_key and returncode == 0:
            observed_hit = (self.cache.stat().st_size if self.cache.exists() else 0) == size
            D = op.cache_key[1]
            self.cached_forms.add(D)
            if op.cache_key[0] == "hcp":
                self.cached_hcp[D] = max(self.cached_hcp.get(D, 0), op.cache_key[2])
        if self.tracer is not None and self.trace_file.exists():
            self.tracer.merge(json.loads(self.trace_file.read_text()))
            self.trace_file.unlink()
        return CliOutput(returncode, stdout, stderr, expected_hit, observed_hit, rss_kb)

    def _run_child(self, argv: list[str]) -> tuple[int, str, str, int]:
        """Run one child; returns (exit code, stdout, stderr, its peak RSS in KiB).

        The child is reaped with os.wait4 to read its own peak RSS: the
        children's maximum that getrusage reports would include the launch
        kernels of run.py.  stderr goes to a file, so reading stdout to its
        end cannot block on a full stderr pipe.
        """
        with open(self.stderr_file, "w+") as err:
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=err, text=True
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                with proc.stdout:
                    stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            return proc.returncode, stdout, err.read(), usage.ru_maxrss

    def child_peak_rss_mb(self, records) -> float:
        """Largest peak RSS of the CLI children among the records."""
        return max((out.rss_kb for _, out, _ in records if isinstance(out, CliOutput)), default=0) / 1024

    def check(self, records) -> list[str | None]:
        answers: dict[tuple, object] = {}
        verdicts = []
        for op, out, _ in records:
            if isinstance(out, Exception):
                verdicts.append(f"raised {type(out).__name__}: {out}")
                continue
            key = tuple(op.argv)
            if op.expected is not None and key not in answers:
                answers[key] = op.expected()
            verdicts.append(self._verdict(op, out, answers.get(key)))
        return verdicts

    @staticmethod
    def _verdict(op: CliOp, out: CliOutput, answer) -> str | None:
        try:
            report = json.loads(out.stdout)
        except ValueError:
            return f"exit {out.returncode}, stdout is not JSON: {out.stderr.strip()[-200:]}"
        if op.error_type is not None:
            error = report.get("error") or {}
            if out.returncode != 2 or error.get("type") != op.error_type:
                return f"expected exit 2 with {op.error_type}, got {out.returncode} {error}"
            return None
        if out.returncode != 0 or report.get("command") != op.argv[0]:
            return f"exit {out.returncode}: {report.get('error')}"
        result = report.get("result")
        if op.cmd == "jinv":
            return _jinv_verdict(result, answer)
        if result != json.loads(json.dumps(answer)):
            return "result differs from the library answer"
        return None


def _jinv_verdict(result: dict, answer: dict) -> str | None:
    import mpmath

    prec = answer["prec"]
    exact = {k: v for k, v in answer.items() if k != "value"}
    if {k: result.get(k) for k in exact} != exact:
        return "jinv fields differ from the library answer"
    with mpmath.workprec(prec + 16):
        got = mpmath.mpc(mpmath.mpf(result["re"]), mpmath.mpf(result["im"]))
        want = mpmath.mpc(answer["value"].re, answer["value"].im)
        if abs(got - want) > mpmath.mpf(2) ** (8 - prec) * (1 + abs(want)):
            return "jinv value differs from the library answer"
    return None
