"""jacobian-algebra: exact class-group and lattice arithmetic, in process.

One op takes a product of 2-4 CM curve classes over one field and computes
the m-Jacobian for every weight, the canonical decomposition, the Jacobian
orbit (n >= 3) and the field-of-definition predicates of every pair.  No
mpmath is involved, so this workload isolates binforms, cmlattice and
jacobians.  The check compares the class route with the independent lattice
route for every weight, once per distinct product, and requires repeated
ops on one product to return its first result.
"""

from __future__ import annotations

import random
from itertools import combinations

import inputs

# products per n in the pool; the loop cycles through the pool
DECKS = 400
# p99 would rest on the dozen largest products of a seed; p95 on some sixty
REFERENCE_KERNEL = "in-process"  # see run.py
TAIL_PERCENTILE = 95
EXPECTED_CALLS = (
    "binforms.reduce",
    "binforms.compose",
    "cmlattice.lattice_product",
    "cmlattice.from_generators",
    "cmlattice.ideal_class",
    "jacobians.phi",
    "jacobians.m_jacobian",
    "jacobians.n_decompose",
    "jacobians.jacobian_orbit",
    "quadfield.QuadElem.minimal_polynomial",
)


class Workload:
    def __init__(self, seed: int, workdir):
        import weightjac
        from weightjac import jacobians

        self.wj = weightjac
        self.jac = jacobians
        rng = random.Random(f"jacobian-algebra:{seed}")
        self.first: dict[int, tuple] = {}  # id(product) -> its first output
        self.ops = []
        for _ in range(DECKS):
            deck = [2, 3, 4]
            rng.shuffle(deck)
            for n in deck:
                self.ops.append(weightjac.ProductAV(tuple(inputs.random_curves(rng, n, weightjac))))

    def execute(self, x):
        # module attributes, not names bound at import, so a tracer sees the calls
        jac = self.jac
        weights = [jac.m_jacobian(x, m) for m in range(2, x.n + 1)]
        decomposition = jac.n_decompose(x)
        orbit = jac.jacobian_orbit(x) if x.n >= 3 else None
        fod = []
        for e1, e2 in combinations(x.factors, 2):
            if e1.order == e2.order:
                fod.append(
                    (
                        jac.same_field_of_definition(e1, e2),
                        jac.product_definable_over_jacobian_field(e1, e2),
                    )
                )
            elif e2.conductor % e1.conductor == 0:
                fod.append(jac.field_contains(e1, e2))
            elif e1.conductor % e2.conductor == 0:
                fod.append(jac.field_contains(e2, e1))
            else:
                fod.append(None)
        return (weights, decomposition, orbit, fod)

    def keep(self, x, output):
        """What a record keeps: a product's first output, then whether a repeat matched it.

        Keeping every repeat's output would make memory grow with the number
        of ops, and so with the program's speed.
        """
        if isinstance(output, Exception):
            return output
        first = self.first.setdefault(id(x), output)
        return output if first is output else output == first

    def check(self, records) -> list[str | None]:
        """One entry per record: None when correct, else what was wrong."""
        verdicts = []
        routes: dict[int, str | None] = {}  # id(product) -> lattice-route verdict
        for x, output, _ in records:
            if isinstance(output, Exception):
                verdicts.append(f"raised {type(output).__name__}: {output}")
            elif output is False:
                verdicts.append("repeat differs from the first run")
            else:
                if id(x) not in routes:
                    first = self.first[id(x)]
                    bad = [
                        m
                        for m in range(2, x.n + 1)
                        if first[0][m - 2] != self.jac.m_jacobian_lattice_route(x, m)
                    ]
                    routes[id(x)] = f"class route != lattice route at m={bad}" if bad else None
                if output is not True and output != self.first[id(x)]:
                    verdicts.append("output differs from the product's first output")
                else:
                    verdicts.append(routes[id(x)])
        return verdicts
