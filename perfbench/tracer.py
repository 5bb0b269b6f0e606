"""Span tracer that wraps weightjac's public functions from outside.

Each wrapped function records a span with its parent span.  Spans are
aggregated in memory per function (calls, total time, self time) and per
parent -> child edge, so self time is the span minus the wrapped spans it
contains.  A function imported by name into another module is wrapped in
every ``weightjac`` module that binds it, so nested calls are seen no matter
which module makes them.

Run as a script, it executes one CLI call under the tracer and writes the
aggregate to a file; the cli-mix workload uses this for its traced pass:

    python perfbench/tracer.py OUT.json classgroup -D -144
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); attribute "Class.method" wraps a method
TARGETS = (
    ("weightjac.binforms", "reduce", "binforms.reduce"),
    ("weightjac.binforms", "compose", "binforms.compose"),
    ("weightjac.binforms", "class_group", "binforms.class_group"),
    # the cached enumeration itself: class_group calls it directly, so the
    # public enumerate_reduced wrapper alone would miss that work
    ("weightjac.binforms", "_enumerate_reduced", "binforms.enumerate_reduced"),
    ("weightjac.cmlattice", "lattice_product", "cmlattice.lattice_product"),
    ("weightjac.cmlattice", "from_generators", "cmlattice.from_generators"),
    ("weightjac.cmlattice", "ideal_class", "cmlattice.ideal_class"),
    ("weightjac.jacobians", "phi", "jacobians.phi"),
    ("weightjac.jacobians", "m_jacobian", "jacobians.m_jacobian"),
    ("weightjac.jacobians", "n_decompose", "jacobians.n_decompose"),
    ("weightjac.jacobians", "jacobian_orbit", "jacobians.jacobian_orbit"),
    ("weightjac.quadfield", "QuadElem.minimal_polynomial", "quadfield.QuadElem.minimal_polynomial"),
    ("weightjac.quadfield", "QuadElem.embed", "quadfield.QuadElem.embed"),
    ("weightjac.analytic", "j_of_lattice", "analytic.j_of_lattice"),
    ("weightjac.analytic", "fundamental_domain_exact", "analytic.fundamental_domain_exact"),
    ("weightjac.analytic", "hilbert_class_polynomial", "analytic.hcp"),
)

HCP = "analytic.hcp"
J = "analytic.j_of_lattice"
PHI = "jacobians.phi"


def _j_prec(args, kwargs) -> int:
    return args[1] if len(args) > 1 else kwargs.get("prec", 128)


def _phi_is_identity(args, kwargs) -> bool:
    cls = args[0]
    c = args[1] if len(args) > 1 else kwargs["c"]
    return c == cls.conductor


class Tracer:
    """Aggregates spans of the wrapped functions while installed."""

    def __init__(self):
        # name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (parent, child) -> [calls, total_s]
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # frames: [name, child_s, j_precs or None]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import importlib

        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self._wrap(original, name))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("weightjac"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, name: str):
        stack, stats, edges, counters = self._stack, self.stats, self.edges, self.counters

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, [] if name == HCP else None]
            if name == J:
                # report the precision of this evaluation to the enclosing hcp
                for outer in reversed(stack):
                    if outer[2] is not None:
                        outer[2].append(_j_prec(args, kwargs))
                        break
            elif name == PHI and _phi_is_identity(args, kwargs):
                counters["jacobians.phi.identity"] += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                st = stats[name]
                st[0] += 1
                st[1] += elapsed
                st[2] += elapsed - frame[1]
                parent = stack[-1] if stack else None
                edge = edges[(parent[0] if parent else "", name)]
                edge[0] += 1
                edge[1] += elapsed
                if parent:
                    parent[1] += elapsed
            if frame[2]:
                precs = frame[2]
                counters["analytic.hcp.polys"] += 1
                counters["analytic.hcp.rounds"] += len(set(precs))
                counters["analytic.hcp.final_prec_bits"] += max(precs)
                counters["analytic.hcp.j_evals"] += len(precs)
                counters["analytic.hcp.roots"] += result.degree
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- aggregation --------------------------------------------------------

    def to_record(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "edges": [[p, c, n, t] for (p, c), (n, t) in self.edges.items()],
            "counters": dict(self.counters),
        }

    def merge(self, record: dict) -> None:
        """Add the aggregate written by another process (see main below)."""
        for name, (calls, total, self_s) in record["stats"].items():
            st = self.stats[name]
            st[0] += calls
            st[1] += total
            st[2] += self_s
        for parent, child, calls, total in record["edges"]:
            edge = self.edges[(parent, child)]
            edge[0] += calls
            edge[1] += total
        for key, value in record["counters"].items():
            self.counters[key] += value

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def self_ms(self, name: str) -> float:
        return self.stats[name][2] * 1000 if name in self.stats else 0.0


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    from weightjac import cli

    tracer = Tracer()
    with tracer:
        code = cli.main(cli_args)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_record(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
