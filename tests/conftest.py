"""What the test modules share: a child process's environment, and the one
loader of perfbench's modules."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

import weightjac

SRC = str(Path(weightjac.__file__).resolve().parents[1])
BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def child_env(*paths, **extra):
    """os.environ for a child that imports this checkout's weightjac.

    paths go first on PYTHONPATH, then the checkout's src.
    """
    path = os.pathsep.join(filter(None, (*paths, SRC, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **extra}


@pytest.fixture
def perfbench(monkeypatch):
    """load(name) runs perfbench/<name>.py as a module and returns it.

    perfbench's modules import each other by plain name, and dataclasses
    look their module up in sys.modules, so both are set for the test's
    duration.
    """
    monkeypatch.syspath_prepend(str(BENCH))

    def load(name):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    return load
