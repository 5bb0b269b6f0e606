"""README.md as a checked user's guide: its quick start runs and prints what
its comments say, and its module table names each module once, in one short
row.  Its CLI examples are the readme deck of
test_identity_gates.py::test_frozen_cli_deck."""

import contextlib
import io
import re

import weightjac

from conftest import README, readme_block


def test_quick_start_prints_what_its_comments_say():
    code, namespace, out = readme_block("python"), {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, namespace)
    printed = out.getvalue().splitlines()
    assert printed == [
        "(4,) 1,0,36 4,0,9 5,-4,8 5,4,8",
        "⟨1/3+0*sqrt(-1), 0+2/9*sqrt(-1)⟩",
        "(-144:4,0,9) (-144:4,0,9) (-144:4,0,9)",
        "True",
        "4 1",
    ]
    for line in printed:
        assert f"# {line}" in code
    group, jac = namespace["group"], namespace["jac"]
    assert group.structure == (4,)
    assert [f.as_tuple() for f in group.elements] == [(1, 0, 36), (4, 0, 9), (5, -4, 8), (5, 4, 8)]
    assert [str(e) for e in jac.factors] == ["(-144:4,0,9)"] * 3
    assert jac == weightjac.m_jacobian_lattice_route(namespace["x"], 2)
    assert namespace["j"].prec == 256


def test_module_table_has_one_short_row_per_module():
    rows = [line for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `weightjac.")]
    names = [re.match(r"\| `weightjac\.(\w+)`\s*\|", row)[1] for row in rows]
    assert sorted(names) == sorted(set(weightjac._EXPORTS) - {"errors"} | {"cli"})
    assert [row for row in rows if len(row) > 200] == []
