"""What the test modules share: a child process's environment, the one
loader of perfbench's modules, and README's code blocks."""

import importlib.util
import os
import re
import sys
from pathlib import Path

import pytest

import weightjac

SRC = str(Path(weightjac.__file__).resolve().parents[1])
BENCH = Path(__file__).resolve().parents[1] / "perfbench"
README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(language):
    """The text of README.md's one code block fenced as ```language."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 1, f"README.md has {len(blocks)} ```{language} blocks, not one"
    return blocks[0]


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
