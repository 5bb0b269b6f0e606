"""Batch command-line front end emitting JSON reports.

One report object per invocation: {schema, command, input, result, timings}.
Exit codes: 0 success, 2 input error (machine-readable error record on
stdout), 1 internal failure.  The weightjac console script, python -m
weightjac.cli and python -m weightjac all call run(); main(argv) runs the same
command for tests and library callers, without exiting or touching the garbage
collector.  A command is declared once, as one _COMMANDS entry: its handler,
its help line and the names of the _OPTIONS it takes, so adding a command is
adding one entry.  fixedpoint and decompose each decompose once: fixedpoint
reads its verdict and decomposition from one jacobians._fixed_point call,
decompose a same-order surface's verdict off the Jacobian it reports.  Each
literal has one reader: a form, under --form, --forms or inside a curve class
(D:a,b,c), is read by binforms.parse_form; a lattice by
cmlattice.parse_lattices; every integer, in a literal or in -D, -m and --prec
(read as strings, so a bad one is a ParseError), by quadfield.parse_int.  hcp
uses the JSON-lines cache file named by --cache, keyed by D: _cached_hcp reads
it and holds the one rule for serving a record, and _append_hcp adds a record
per miss and never rewrites the file; every other command accepts and ignores
--cache.  Python's int/str digit limit is kept, not lifted: hcp refuses a D
whose coefficients it could not print, before any j evaluation or cache read.
Under a limit below the default, a report that cannot print is an internal
failure (exit 1), and an integer literal past the limit a ParseError.
"""

from __future__ import annotations

import gc
import time

_IMPORTS_STARTED = time.monotonic()
if __name__ == "__main__":
    # a program run collects nothing while it loads; run() turns the collector
    # back on once it has frozen what loaded
    gc.disable()

import argparse
import fcntl
import json
import os
import re
import stat
import sys
from itertools import combinations
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

# the one weightjac module every command uses; each handler imports the rest
from . import binforms
from .binforms import parse_form, validate_discriminant
from .errors import CacheUnusable, FieldMismatch, ParseError, PrecisionExhausted, WeightjacError
from .quadfield import _MIN_PREC, _str_digit_limit, parse_int

if TYPE_CHECKING:
    from .cmlattice import CMLattice, Order
    from .jacobians import CurveClass, ProductAV

# wall time of the imports above, reported as timings.import_ms
_IMPORT_MS = int((time.monotonic() - _IMPORTS_STARTED) * 1000)

SCHEMA = 1

# D and the form's text; the form reads as --form reads it (binforms.parse_form)
_CURVE_RE = re.compile(r"\(\s*(-[0-9]+)\s*:([^)]*)\)")


def _parse_curves(text: str) -> list[CurveClass]:
    from .cmlattice import Order
    from .jacobians import CurveClass

    matches = list(_CURVE_RE.finditer(text))
    rest = _CURVE_RE.sub("", text).replace(",", "").strip()
    if not matches or rest:
        raise ParseError(f"curve list must look like '(D:a,b,c),(D:a,b,c)': {text!r}")
    out = []
    for m in matches:
        D = validate_discriminant(parse_int(m[1]))
        form = parse_form(m[2])
        if form.discriminant != D:
            raise ParseError(f"form {form} has discriminant {form.discriminant}, not {D}")
        out.append(CurveClass(Order.from_discriminant(D), form))
    return out


def _product(args) -> tuple[ProductAV, dict]:
    """The product of the --curves classes, and its echo."""
    from .jacobians import ProductAV

    curves = _parse_curves(args.curves)
    return ProductAV(tuple(curves)), {"curves": [_curve_record(e) for e in curves]}


def _lattices(args, count: int) -> tuple[list[CMLattice], dict]:
    """Exactly count --lattices (one or two), and their echo."""
    from . import cmlattice

    lats = cmlattice.parse_lattices(args.lattices)
    if len(lats) != count:
        needs = ("one lattice", "two lattices")[count - 1]
        raise ParseError(f"{args.command} needs exactly {needs}")
    echo = [str(lat) for lat in lats]
    return lats, {"lattice": echo[0]} if count == 1 else {"lattices": echo}


def _order_record(order: Order) -> dict:
    return {"d": order.field.d, "conductor": order.f, "discriminant": order.discriminant}


def _class_record(order: Order, form: binforms.Form) -> dict:
    return {"order": _order_record(order), "class": list(form.as_tuple())}


def _curve_record(e: CurveClass) -> dict:
    return {"discriminant": e.order.discriminant, "form": list(e.form.as_tuple())}


def _mpf_str(x, prec: int) -> str:
    import mpmath

    return mpmath.nstr(x, max(int(prec * 0.30103) + 2, 17))


def _unusable(path: Path, why: str) -> CacheUnusable:
    return CacheUnusable(f"cannot open cache file {str(path)!r}: {why}")


def _cached_hcp(path: Path, D: int) -> list[int] | None:
    """The cached coefficients of H_D that hcp may serve, or None.

    The one serve rule: the newest record of D that is well shaped (int D and
    prec, a list of ints as hcp; JSON true and false load as bools, which are
    ints to isinstance), was computed at at least start_precision(D), from
    which H_D is proven exact, and passes is_plausible_class_polynomial.
    Other fields are ignored, and any other line, such as junk or a record torn
    by a crash, is skipped.  A missing file is an empty cache.  A path that is
    not a regular file in a directory, or cannot be opened, is CacheUnusable,
    refused before hcp computes what it could not store.
    """
    from . import analytic

    if not path.parent.is_dir():
        raise _unusable(path, f"{str(path.parent)!r} is not a directory")
    try:
        # a FIFO would block the open, and a device would be read without end
        if not stat.S_ISREG(path.stat().st_mode):
            raise _unusable(path, "not a regular file")
        with path.open("rb") as fh:
            fcntl.flock(fh, fcntl.LOCK_SH)  # no append is half written
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise _unusable(path, exc.strerror) from None
    for line in reversed(lines):
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
            continue
        if (
            isinstance(rec, dict)
            and type(rec.get("D")) is int
            and rec["D"] == D
            and type(rec.get("prec")) is int
            and rec["prec"] >= analytic.start_precision(D)
            and isinstance(rec.get("hcp"), list)
            and all(type(c) is int for c in rec["hcp"])
        ):
            hcp = rec["hcp"]
            return hcp if analytic.is_plausible_class_polynomial(D, hcp) else None
    return None


def _append_hcp(path: Path, rec: dict) -> None:
    """Append rec to the cache at path as one line, in one write under an
    exclusive flock, so that concurrent appends never interleave."""
    line = (json.dumps(rec, sort_keys=True) + "\n").encode()
    try:
        fh = path.open("a+b")
    except OSError as exc:
        raise _unusable(path, exc.strerror) from None
    with fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        # end a line torn by a crash, so this record gets a line of its own
        if fh.seek(0, os.SEEK_END):
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                line = b"\n" + line
        fh.write(line)


def _check_prec(args) -> int:
    from . import analytic

    prec = parse_int(args.prec)
    if not _MIN_PREC <= prec <= analytic._PRECISION_CAP:
        raise ParseError(
            f"--prec must be between {_MIN_PREC} and {analytic._PRECISION_CAP} bits, got {prec}"
        )
    return prec


def _cmd_classgroup(args):
    D = validate_discriminant(parse_int(args.discriminant))
    return {"D": D}, binforms.class_group(D).to_record()


def _cmd_reduce(args):
    form = parse_form(args.form)
    reduced = binforms.reduce(form)
    return (
        {"form": list(form.as_tuple())},
        {"reduced": list(reduced.as_tuple()), "discriminant": form.discriminant},
    )


def _cmd_compose(args):
    parts = [p for p in args.forms.split(";") if p.strip()]
    if len(parts) != 2:
        raise ParseError("compose needs exactly two forms separated by ';'")
    f, g = (parse_form(p) for p in parts)
    composed = binforms.compose(f, g)
    return (
        {"forms": [list(f.as_tuple()), list(g.as_tuple())]},
        {"composed": list(composed.as_tuple()), "discriminant": f.discriminant},
    )


def _cmd_latprod(args):
    from . import cmlattice

    lats, echo = _lattices(args, 2)
    prod = cmlattice.lattice_product(lats[0], lats[1])
    return echo, {"product": str(prod), **_class_record(*cmlattice.ideal_class(prod))}


def _cmd_homothety(args):
    from . import cmlattice

    lats, echo = _lattices(args, 2)
    if lats[0].field != lats[1].field:  # as cmlattice.is_homothetic refuses them
        raise FieldMismatch(f"{lats[0].field} vs {lats[1].field}")
    # each class once: the verdict is their equality
    classes = [cmlattice.ideal_class(lat) for lat in lats]
    return (
        echo,
        {
            "homothetic": classes[0] == classes[1],
            "classes": [
                {"order": _order_record(o), "form": list(f.as_tuple())} for o, f in classes
            ],
        },
    )


def _cmd_endring(args):
    from . import cmlattice

    (lat,), echo = _lattices(args, 1)
    return echo, _class_record(*cmlattice.ideal_class(lat))


def _cmd_jacobian(args):
    from . import jacobians

    x, echo = _product(args)
    m = parse_int(args.weight)
    jac = jacobians.m_jacobian(x, m)
    factors = [
        {"indices": list(subset), **_curve_record(factor)}
        for subset, factor in zip(combinations(range(x.n), m), jac.factors)
    ]
    return {**echo, "m": m}, {"weight": m, "factors": factors}


def _cmd_kummer(args):
    echo, result = _cmd_jacobian(args)
    labels = ["kummer-variety"]
    if len(echo["curves"]) == 2 and echo["m"] == 2:
        labels.append("singular-K3")
    return echo, {"labels": labels, **result}


def _cmd_decompose(args):
    from . import jacobians

    x, echo = _product(args)
    dec = jacobians.n_decompose(x)
    result = dec.to_record()
    if x.n == 2:
        e1, e2 = x.factors
        report = jacobians._surface_report(dec)
        result["surface"] = {
            "big_order": _order_record(report.big_order),
            "jacobian": _curve_record(report.jacobian),
            "primitivity_degree": report.primitivity_degree,
        }
        if e1.order == e2.order:
            result["surface"]["definable_over_jacobian_field"] = (
                jacobians._definable_over_jacobian_field(report.jacobian)
            )
    return echo, result


def _cmd_orbit(args):
    from . import jacobians

    x, echo = _product(args)
    orbit = jacobians.jacobian_orbit(x)
    return echo, {"length": len(orbit), "orbit": [dec.to_record() for dec in orbit]}


def _cmd_fixedpoint(args):
    from . import jacobians

    x, echo = _product(args)
    fixed, dec = jacobians._fixed_point(x)
    return echo, {"fixed_point": fixed, "decomposition": dec.to_record()}


def _cmd_fod(args):
    from . import jacobians

    x, echo = _product(args)
    if x.n != 2:
        raise ParseError("fod needs exactly two curve classes")
    e1, e2 = x.factors
    if e1.order == e2.order:
        result = {
            "mode": "same-order",
            "same_field_of_definition": jacobians.same_field_of_definition(e1, e2),
            "product_definable_over_jacobian_field": (
                jacobians.product_definable_over_jacobian_field(e1, e2)
            ),
        }
    else:
        f1, f2 = e1.conductor, e2.conductor
        contains = None
        if f2 % f1 == 0:
            contains = jacobians.field_contains(e1, e2)
        elif f1 % f2 == 0:
            contains = jacobians.field_contains(e2, e1)
        result = {
            "mode": "phi-transfer",
            "field_of_smaller_contained_in_larger": contains,
        }
    return echo, result


def _cmd_jinv(args):
    from . import analytic, cmlattice

    prec = _check_prec(args)
    (lat,), echo = _lattices(args, 1)
    value = analytic.j_of_lattice(lat, prec)
    tau = analytic.fundamental_domain_exact(lat.tau)
    return (
        {**echo, "prec": prec},
        {
            "re": _mpf_str(value.re, prec),
            "im": _mpf_str(value.im, prec),
            "prec": prec,
            "fundamental_tau": str(tau),
            **_class_record(*cmlattice.ideal_class(lat)),
        },
    )


def _cmd_hcp(args):
    from . import analytic

    prec = _check_prec(args)
    D = validate_discriminant(parse_int(args.discriminant))
    # coefficients below 2^(Enge's bound) print under a digit limit 2^bits <= 10^limit
    bits = analytic.start_precision(D) - analytic._GUARD_BITS
    limit = _str_digit_limit()
    if limit and 1 << bits > 10**limit:
        raise PrecisionExhausted(f"coefficients of H_{D} may have {bits} bits, over {limit} digits")
    cache = Path(args.cache) if args.cache else None
    coeffs = _cached_hcp(cache, D) if cache else None
    if coeffs is None:
        poly = analytic.hilbert_class_polynomial(D, prec)
        coeffs = list(poly.coefficients)
        if cache:
            _append_hcp(cache, {"D": D, "hcp": coeffs, "prec": poly.prec})
    return (
        {"D": D, "prec": prec},
        {"D": D, "degree": len(coeffs) - 1, "coefficients": coeffs, "prec": prec},
    )


def _cmd_hodge(args):
    from . import hodgecalc

    if (args.data is None) == (args.abelian is None):
        raise ParseError("hodge needs exactly one of --data or --abelian")
    if args.data is not None:
        h = hodgecalc.parse_hodge(args.data)
        echo = {"data": str(h)}
    else:
        n, _, m = args.abelian.partition(",")
        n, m = parse_int(n), parse_int(m)
        h = hodgecalc.abelian_product_hodge(n, m)
        echo = {"abelian": [n, m]}
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
    if args.abelian is not None and h.weight == 2:
        result["ns_rank"] = h.total_rank - h.rank_image
    return (echo, result)


def _cmd_verify_appendix(args):
    from . import analytic

    prec = _check_prec(args)
    fixtures = analytic.verify_appendix(prec)
    all_ok = all(r["matches_exact_value"] and r["reality_matches_class_order"] for r in fixtures)
    return (
        {"prec": prec},
        {"prec": prec, "fixtures": fixtures, "all_ok": all_ok},
    )


# each command, in the order -h lists them: its handler, its help line and the
# _OPTIONS it takes after --cache and --json
_COMMANDS = {
    "classgroup": (_cmd_classgroup, "reduced forms and group structure", ("discriminant",)),
    "reduce": (_cmd_reduce, "reduce a binary quadratic form", ("form",)),
    "compose": (_cmd_compose, "Gauss composition of two forms", ("forms",)),
    "latprod": (_cmd_latprod, "lattice product", ("lattices",)),
    "homothety": (_cmd_homothety, "homothety test", ("lattices",)),
    "endring": (_cmd_endring, "endomorphism order of a lattice", ("lattices",)),
    "jacobian": (_cmd_jacobian, "weight-m Jacobian of a product", ("curves", "weight")),
    "kummer": (_cmd_kummer, "Jacobian of the Kummer variety", ("curves", "weight")),
    "decompose": (_cmd_decompose, "canonical decomposition", ("curves",)),
    "orbit": (_cmd_orbit, "orbit under the (n-1)-Jacobian", ("curves",)),
    "fixedpoint": (_cmd_fixedpoint, "is X isomorphic to its (n-1)-Jacobian", ("curves",)),
    "fod": (_cmd_fod, "field-of-definition predicates", ("curves",)),
    "jinv": (_cmd_jinv, "j-invariant of a lattice", ("lattices", "prec")),
    "hcp": (_cmd_hcp, "Hilbert class polynomial", ("discriminant", "prec")),
    "hodge": (_cmd_hodge, "synthetic Hodge calculus", ("data", "abelian")),
    "verify-appendix": (_cmd_verify_appendix, "check all golden j-values", ("prec",)),
}

# each option's argparse flags and keywords; every value is read as a string
_OPTIONS = {
    "cache": (("--cache",), {"help": "hcp cache file path"}),
    "json": (("--json",), {"action": "store_true", "help": "JSON output (the default)"}),
    "discriminant": (("-D", "--discriminant"), {"required": True}),
    "form": (("--form",), {"required": True, "help": "'a,b,c'"}),
    "forms": (("--forms",), {"required": True, "help": "'a,b,c;a,b,c'"}),
    "curves": (("--curves",), {"required": True, "help": "'(D:a,b,c),(D:a,b,c),...'"}),
    "lattices": (("--lattices",), {"required": True, "help": "'⟨g1, g2⟩,...' or '<g1;g2>@d,...'"}),
    "weight": (("-m", "--weight"), {"default": "2"}),
    "prec": (("--prec",), {"default": "128", "help": "precision in bits"}),
    "data": (("--data",), {"help": "'weight m; h = [...]; rankL = k'"}),
    "abelian": (("--abelian",), {"help": "'n,m' for the 2-maximal product structure"}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weightjac",
        description="Class groups, CM lattice products, higher-weight Jacobians, "
        "and exact j-invariant verification; JSON report on stdout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for option in ("cache", "json", *options):
            flags, kwargs = _OPTIONS[option]
            p.add_argument(*flags, **kwargs)
    return parser


def _error(command: str | None, kind: str, message: str) -> int:
    """Print the error record of an input error; its exit status, 2."""
    record = {"schema": SCHEMA, "command": command, "error": {"type": kind, "message": message}}
    print(json.dumps(record, indent=2))
    return 2


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse reads "--option=--" as an empty list, not a string
        if [] in vars(args).values():
            parser.error("an option value cannot be '--'")
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        return _error(argv[0] if argv else None, "UsageError", "invalid arguments")
    started = time.monotonic()
    try:
        echo, result = _COMMANDS[args.command][0](args)
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "input": echo,
            "result": result,
            "timings": {
                "total_ms": int((time.monotonic() - started) * 1000),
                "import_ms": _IMPORT_MS,
            },
        }
        # inside the try: an int past sys.get_int_max_str_digits() cannot print
        text = json.dumps(report, indent=2)
    except WeightjacError as exc:
        return _error(args.command, type(exc).__name__, str(exc))
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


def run() -> NoReturn:
    """The program: main() on the command line, then exit with its status.

    Every object loaded before the command, and every object alive after it,
    lives until the process exits, so it is frozen out of the cyclic garbage
    collector: no collection during the command, nor at exit, scans it again.
    main() leaves the collector as it finds it, for library callers and tests.
    """
    gc.freeze()
    gc.enable()
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
