"""The package imports lazily, and each CLI command loads only its modules."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import weightjac

from conftest import child_env

# the public names of the package before it became lazy
PUBLIC_NAMES = [
    "CMLattice", "ClassGroup", "ClassPolynomial", "CurveClass", "Decomposition", "FieldTag",
    "Form", "LatticeTuple", "Order", "PrecComplex", "ProductAV", "QuadElem", "SurfaceReport",
    "SyntheticHodge", "abelian_product_hodge", "blowup", "brauer_jacobian_pair",
    "canonicalize", "class_group", "compose", "conjugate_lattice", "direct_sum",
    "discrepancy", "element_order", "enumerate_reduced",
    "field_contains", "form_to_lattice", "has_jacobian", "hilbert_class_polynomial",
    "ideal_class", "image_lattice_L", "is_fixed_point", "is_homothetic", "is_isomorphic",
    "is_two_maximal", "j_is_real", "j_of_lattice", "jacobian_orbit", "kummer_jacobian",
    "lattice_product", "m_jacobian", "m_jacobian_lattice_route", "n_decompose", "phi",
    "power", "principal_form", "product_definable_over_jacobian_field", "projective_bundle",
    "reduce", "same_field_of_definition", "split_h0", "surface_decompose", "torsion_dim",
    "verify_appendix",
]

BASE = {"weightjac", "weightjac.cli", "weightjac.errors", "weightjac.quadfield", "weightjac.binforms"}
LATTICE = BASE | {"weightjac.cmlattice"}
JACOBIAN = LATTICE | {"weightjac.jacobians"}
ANALYTIC = LATTICE | {"weightjac.analytic"}
CURVES = "(-144:5,4,8),(-144:5,4,8),(-144:1,0,36)"
LATTICES = "<1;1/3+2/3*sqrt(-1)>@-1,<3;1+2*sqrt(-1)>@-1"

# command line -> the weightjac modules it leaves in sys.modules
IMPORT_SETS = [
    (["reduce", "--form", "5,14,13"], BASE),
    (["compose", "--forms", "2,2,5;2,2,5"], BASE),
    (["classgroup", "-D", "-23"], BASE),
    (["hodge", "--abelian", "3,2"], BASE | {"weightjac.hodgecalc"}),
    (["latprod", "--lattices", LATTICES], LATTICE),
    (["homothety", "--lattices", LATTICES], LATTICE),
    (["endring", "--lattices", "<3;1+2*sqrt(-1)>@-1"], LATTICE),
    (["jacobian", "--curves", CURVES, "-m", "2"], JACOBIAN),
    (["kummer", "--curves", CURVES, "-m", "2"], JACOBIAN),
    (["decompose", "--curves", CURVES], JACOBIAN),
    (["orbit", "--curves", CURVES], JACOBIAN),
    (["fixedpoint", "--curves", CURVES], JACOBIAN),
    (["fod", "--curves", "(-36:2,2,5),(-144:5,4,8)"], JACOBIAN),
    (["jinv", "--lattices", "<1;3*sqrt(-1)>@-1"], ANALYTIC),
    (["hcp", "-D", "-23"], ANALYTIC),
    (["verify-appendix", "--prec", "64"], ANALYTIC),
]

_RUN_COMMAND = """
import contextlib, io, json, sys
from weightjac.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "weightjac")]))
"""


def run_fresh(code: str, *argv: str) -> str:
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=child_env(), capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout


@pytest.mark.parametrize("argv, modules", IMPORT_SETS, ids=[argv[0] for argv, _ in IMPORT_SETS])
def test_command_loads_only_its_modules(argv, modules):
    code, loaded = json.loads(run_fresh(_RUN_COMMAND, *argv))
    assert code == 0
    assert set(loaded) == modules


def test_package_names_resolve_lazily():
    assert sorted(weightjac.__all__) == PUBLIC_NAMES
    for module, names in weightjac._EXPORTS.items():
        mod = getattr(weightjac, module)
        assert mod is sys.modules[f"weightjac.{module}"]
        for name in names:
            assert getattr(weightjac, name) is getattr(mod, name)
    assert set(weightjac.__all__) <= set(dir(weightjac))
    star: dict = {}
    exec("from weightjac import *", star)
    assert sorted(k for k in star if k != "__builtins__") == PUBLIC_NAMES
    with pytest.raises(AttributeError):
        weightjac.no_such_name
    # a bare import loads no submodule, and a submodule name imports it
    check = (
        "import sys, weightjac\n"
        "before = sorted(m for m in sys.modules if m.startswith('weightjac'))\n"
        "weightjac.jacobians.m_jacobian\n"
        "print(before, 'weightjac.jacobians' in sys.modules)\n"
    )
    assert run_fresh(check).split() == ["['weightjac']", "True"]


def _relative_imports(path: Path) -> set[str]:
    """The weightjac modules that one source file imports, at module level or
    inside a function: "from .x import y" names x, "from . import x" names x."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_import_graph_has_no_cycle():
    package = Path(weightjac.__file__).parent
    graph = {path.stem: _relative_imports(path) for path in package.glob("*.py")}
    assert "binforms" in graph and "cmlattice" in graph["jacobians"]
    for start in graph:
        # every module reachable from start through one or more imports
        reached, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo.extend(graph.get(name, ()))
        assert start not in reached, f"weightjac.{start} imports itself through {sorted(reached)}"


def test_benchmark_tracer_targets_resolve(perfbench):
    # perfbench's tracer wraps these functions by name, and a traced run
    # crashes on one that no longer exists
    tracer = perfbench("tracer")
    assert tracer.TARGETS
    for module_name, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        assert callable(vars(owner).get(name)), f"{module_name}: {attr}"


# a few ops of each in-process workload reach every function it pins; the
# cli-mix pins are checked by test_identity_gates::test_cli_mix_verdict_in_process
PINNED_WORKLOADS = [("algebra", 12), ("classpoly", 2)]


@pytest.mark.parametrize("workload, ops", PINNED_WORKLOADS)
def test_benchmark_pinned_calls_are_reached(workload, ops, tmp_path, perfbench):
    # a traced benchmark run fails when a function named in EXPECTED_CALLS is
    # never called; this catches a route left idle without that run
    module = perfbench(workload)
    wl = module.Workload(0, tmp_path)
    with perfbench("tracer").Tracer() as tracer:
        for op in wl.ops[:ops]:
            wl.execute(op)
    assert [name for name in module.EXPECTED_CALLS if tracer.calls(name) == 0] == []
