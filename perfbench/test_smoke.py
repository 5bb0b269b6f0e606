"""Smoke tests for the benchmark harness (not part of the tier-1 suite).

    python -m pytest perfbench/test_smoke.py

Each workload runs a handful of ops, traced and untraced, and must print
every metric BENCHMARK.json names, with its unit.  A tampered output must be
counted as failed, and a directory without the program must be refused.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# enough ops that a traced pass reaches every layer the workload is expected to use
SMOKE_OPS = {"cli-mix": 17, "jacobian-algebra": 6, "classpoly": 3}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "60",
                 "--trace", str(trace), "--max-ops", str(SMOKE_OPS[workload]))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_spec_matches_the_harness():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_names()
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


def _records(workload: str, seed: int, ops: int, tmp_path: Path):
    wl, module, _ = run.setup(workload, seed, tmp_path)
    return wl, run.measure(wl, module.REFERENCE_KERNEL, 0, 60, ops).records


def _tamper_and_check(wl, records, index: int, tampered) -> None:
    """Replacing one correct output by a wrong one adds exactly one failure."""
    before = wl.check(records)
    assert before[index] is None
    op, _, dt = records[index]
    after = wl.check(records[:index] + [(op, tampered, dt)] + records[index + 1:])
    assert after[index] is not None
    assert sum(v is not None for v in after) == sum(v is not None for v in before) + 1


def test_tampered_jacobian_is_counted_as_failed(tmp_path):
    wl, records = _records("jacobian-algebra", 3, 3, tmp_path)
    _, (weights, *rest), _ = records[0]
    first = weights[0]
    wrong = [type(first)(first.factors + first.factors[:1])] + weights[1:]
    _tamper_and_check(wl, records, 0, (wrong, *rest))


def test_tampered_class_polynomial_is_counted_as_failed(tmp_path):
    wl, records = _records("classpoly", 0, 3, tmp_path)
    index = next(i for i, v in enumerate(wl.check(records)) if v is None)
    D, poly, _ = records[index]
    wrong = dataclasses.replace(poly, coefficients=poly.coefficients[:-1] + (poly.coefficients[-1] + 1,))
    _tamper_and_check(wl, records, index, wrong)


def test_tampered_cli_report_is_counted_as_failed(tmp_path):
    wl, records = _records("cli-mix", 3, 17, tmp_path)
    ok = next(i for i, (op, _, _) in enumerate(records) if op.cmd == "reduce")
    out = records[ok][1]
    report = json.loads(out.stdout)
    report["result"]["reduced"][0] += 1
    _tamper_and_check(wl, records, ok, dataclasses.replace(out, stdout=json.dumps(report)))
    bad = next(i for i, (op, _, _) in enumerate(records) if op.cmd == "error")
    _tamper_and_check(wl, records, bad, dataclasses.replace(records[bad][1], returncode=0))


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _bench("--workload", "classpoly", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
