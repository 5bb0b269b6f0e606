import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import weightjac
from weightjac.cli import _append_hcp, _cached_hcp, main

from conftest import child_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def strip_timings(report):
    report = dict(report)
    report.pop("timings", None)
    return report


def test_classgroup_report(capsys):
    code, report = run_cli(capsys, "classgroup", "-D", "-144")
    assert code == 0
    assert report["schema"] == 1
    assert report["command"] == "classgroup"
    assert report["result"] == {
        "D": -144,
        "h": 4,
        "structure": [4],
        "elements": [[1, 0, 36], [4, 0, 9], [5, -4, 8], [5, 4, 8]],
    }


def test_reduce_and_compose(capsys):
    code, report = run_cli(capsys, "reduce", "--form", "5,14,13")
    assert code == 0
    assert report["result"]["reduced"] == [4, 4, 5]
    code, report = run_cli(capsys, "compose", "--forms", "2,2,5;2,2,5")
    assert code == 0
    assert report["result"]["composed"] == [1, 0, 9]


def test_latprod_worked_example(capsys):
    code, report = run_cli(
        capsys, "latprod", "--lattices", "<1;1/3+2/3*sqrt(-1)>@-1,<1;1/3+2/3*sqrt(-1)>@-1"
    )
    assert code == 0
    assert report["result"]["product"] == "⟨1/3+0*sqrt(-1), 0+2/9*sqrt(-1)⟩"
    assert report["result"]["order"] == {"d": -1, "conductor": 6, "discriminant": -144}
    assert report["result"]["class"] == [4, 0, 9]


def test_lattices_read_as_printed(capsys):
    code, old = run_cli(
        capsys, "latprod", "--lattices", "<1;1/3+2/3*sqrt(-1)>@-1,<3;1+2*sqrt(-3)>@-3"
    )
    assert code == 2 and old["error"]["type"] == "FieldMismatch"
    code, old = run_cli(
        capsys, "latprod", "--lattices", "<1;1/3+2/3*sqrt(-1)>@-1,<1;1/3+2/3*sqrt(-1)>@-1"
    )
    assert code == 0
    printed = ", ".join(old["input"]["lattices"])
    assert printed == "⟨1+0*sqrt(-1), 1/3+2/3*sqrt(-1)⟩, ⟨1+0*sqrt(-1), 1/3+2/3*sqrt(-1)⟩"
    code, new = run_cli(capsys, "latprod", "--lattices", printed)
    assert code == 0
    assert new["input"] == old["input"] and new["result"] == old["result"]
    code, report = run_cli(capsys, "endring", "--lattices", new["result"]["product"])
    assert code == 0
    assert report["input"]["lattice"] == "⟨1/3+0*sqrt(-1), 0+2/9*sqrt(-1)⟩"
    assert report["result"] == {
        "order": {"d": -1, "conductor": 6, "discriminant": -144},
        "class": [4, 0, 9],
    }


def test_homothety_and_endring(capsys):
    code, report = run_cli(
        capsys, "homothety", "--lattices", "<1;1/3+2/3*sqrt(-1)>@-1,<3;1+2*sqrt(-1)>@-1"
    )
    assert code == 0 and report["result"]["homothetic"] is True
    code, report = run_cli(
        capsys, "homothety", "--lattices", "<1;1/3+2/3*sqrt(-1)>@-1,<3;1+2*sqrt(-3)>@-3"
    )
    assert code == 2
    assert report["error"] == {
        "type": "FieldMismatch", "message": "FieldTag(d=-1) vs FieldTag(d=-3)"
    }
    code, report = run_cli(capsys, "endring", "--lattices", "<3;1+2*sqrt(-1)>@-1")
    assert code == 0
    assert report["result"]["order"] == {"d": -1, "conductor": 6, "discriminant": -144}


def test_homothety_computes_each_class_once(capsys, monkeypatch):
    from weightjac import cmlattice

    calls = []
    ideal_class = cmlattice.ideal_class
    monkeypatch.setattr(cmlattice, "ideal_class", lambda lat: calls.append(lat) or ideal_class(lat))
    code, report = run_cli(
        capsys, "homothety", "--lattices", "<1;1/3+2/3*sqrt(-1)>@-1,<3;1+2*sqrt(-1)>@-1"
    )
    assert code == 0 and report["result"]["homothetic"] is True
    assert len(calls) == 2
    assert report["result"]["classes"] == [
        {"order": {"d": -1, "conductor": 6, "discriminant": -144}, "form": [5, -4, 8]}
    ] * 2


def test_jacobian_spec_example(capsys):
    code, report = run_cli(
        capsys, "jacobian", "--curves", "(-144:5,4,8),(-144:5,4,8)", "-m", "2"
    )
    assert code == 0
    assert report["result"]["factors"] == [
        {"indices": [0, 1], "discriminant": -144, "form": [4, 0, 9]}
    ]


def test_kummer_labels(capsys):
    code, report = run_cli(
        capsys, "kummer", "--curves", "(-144:5,4,8),(-144:5,4,8)", "-m", "2"
    )
    assert code == 0
    assert report["result"]["labels"] == ["kummer-variety", "singular-K3"]
    assert report["result"]["factors"][0]["form"] == [4, 0, 9]
    code, report = run_cli(
        capsys, "kummer", "--curves", "(-144:5,4,8),(-144:5,4,8),(-144:1,0,36)", "-m", "3"
    )
    assert code == 0
    assert report["result"]["labels"] == ["kummer-variety"]


def test_decompose_surface(capsys):
    code, report = run_cli(capsys, "decompose", "--curves", "(-144:5,4,8),(-144:5,4,8)")
    assert code == 0
    res = report["result"]
    assert res["conductors"] == [6, 6]
    assert res["terminal_form"] == [4, 0, 9]
    assert res["primitivity_degree"] == 1
    assert res["surface"]["big_order"]["discriminant"] == -144
    assert res["surface"]["definable_over_jacobian_field"] is True


def test_orbit_and_fixedpoint(capsys):
    curves = "(-144:5,4,8),(-144:5,4,8),(-144:5,4,8)"
    code, report = run_cli(capsys, "orbit", "--curves", curves)
    assert code == 0
    assert report["result"]["length"] == 3
    code, report = run_cli(capsys, "fixedpoint", "--curves", curves)
    assert code == 0 and report["result"]["fixed_point"] is False
    principal = "(-144:1,0,36),(-144:1,0,36),(-144:1,0,36)"
    code, report = run_cli(capsys, "fixedpoint", "--curves", principal)
    assert code == 0 and report["result"]["fixed_point"] is True


def test_fod_modes(capsys):
    code, report = run_cli(capsys, "fod", "--curves", "(-108:1,0,27),(-108:4,2,7)")
    assert code == 0
    assert report["result"]["mode"] == "same-order"
    assert report["result"]["same_field_of_definition"] is False
    code, report = run_cli(capsys, "fod", "--curves", "(-36:2,2,5),(-144:5,4,8)")
    assert code == 0
    assert report["result"]["mode"] == "phi-transfer"
    assert report["result"]["field_of_smaller_contained_in_larger"] is True


def test_jinv_reports_fundamental_tau(capsys):
    code, report = run_cli(capsys, "jinv", "--lattices", "<1;3*sqrt(-1)>@-1", "--prec", "192")
    assert code == 0
    res = report["result"]
    assert res["fundamental_tau"] == "0+3*sqrt(-1)"
    assert res["class"] == [1, 0, 9]
    assert res["re"].startswith("153553679.396728")
    assert float(res["im"]) == 0.0


def test_hcp_cache_cold_and_warm(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    code, cold = run_cli(capsys, "hcp", "-D", "-36", "--prec", "128", "--cache", str(cache))
    assert code == 0
    assert cache.exists()
    code, warm = run_cli(capsys, "hcp", "-D", "-36", "--prec", "128", "--cache", str(cache))
    assert code == 0
    assert strip_timings(cold) == strip_timings(warm)
    assert cold["result"]["coefficients"] == [1, -153542016, -1790957481984]
    # H_D is exact from start_precision(D) on, so a higher --prec is a hit too
    written = cache.read_bytes()
    code, high = run_cli(capsys, "hcp", "-D", "-36", "--prec", "256", "--cache", str(cache))
    assert code == 0
    assert high["result"]["coefficients"] == cold["result"]["coefficients"]
    assert cache.read_bytes() == written
    assert [json.loads(line)["prec"] for line in written.splitlines()] == [128]


def test_hcp_cache_ignores_entries_below_start_precision(capsys, tmp_path):
    # a record written before hcp started at Enge's bound: 128 bits, wrong H_D
    from weightjac.binforms import class_group

    D = -1320
    group = class_group(D)
    stale = {
        "D": D,
        "forms": [list(f.as_tuple()) for f in group.elements],
        "structure": list(group.structure),
        "hcp": [1] + [0] * group.h,
        "prec": 128,
    }
    cache = tmp_path / "cache.jsonl"
    cache.write_text(json.dumps(stale, sort_keys=True) + "\n")
    code, report = run_cli(capsys, "hcp", "-D", str(D), "--prec", "128", "--cache", str(cache))
    assert code == 0
    coeffs = report["result"]["coefficients"]
    assert report["result"]["prec"] == 128
    # digest from perfbench/classpoly_digests.json
    assert hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest() == (
        "d5827d747a51cb240c414d669bb4b1f2a3bb44f9f2781d8f2a1dc5617b9853fe"
    )
    lines = [json.loads(line) for line in cache.read_text().splitlines()]
    assert lines[0] == stale
    assert len(lines) == 2 and lines[1]["hcp"] == coeffs and lines[1]["prec"] > 128


def test_hcp_cache_refuses_a_split_record_below_start_precision(capsys, tmp_path):
    # a wrong record at 128 bits, under start_precision(D), that the split
    # check alone would serve: prod over i = 1..h of (X - i) splits into
    # distinct linear factors modulo split_prime(D) > h
    from weightjac.analytic import is_plausible_class_polynomial, start_precision

    D = -1320
    stale = [1]
    for i in range(1, 9):  # h(-1320) = 8
        stale = [a - i * b for a, b in zip(stale + [0], [0] + stale)]
    assert is_plausible_class_polynomial(D, stale) and start_precision(D) > 128
    record = {"D": D, "hcp": stale, "prec": 128}
    cache = tmp_path / "cache.jsonl"
    cache.write_text(json.dumps(record) + "\n")
    code, report = run_cli(capsys, "hcp", "-D", str(D), "--cache", str(cache))
    assert code == 0
    coeffs = report["result"]["coefficients"]
    assert coeffs != stale
    # digest from perfbench/classpoly_digests.json
    assert hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest() == (
        "d5827d747a51cb240c414d669bb4b1f2a3bb44f9f2781d8f2a1dc5617b9853fe"
    )
    lines = [json.loads(line) for line in cache.read_text().splitlines()]
    assert lines[0] == record
    assert len(lines) == 2 and lines[1]["hcp"] == coeffs
    assert lines[1]["prec"] >= start_precision(D)


def test_cache_corrupt_recovery(capsys, tmp_path):
    # junk lines, one not even UTF-8, are skipped and kept byte for byte
    cache = tmp_path / "cache.jsonl"
    junk = b"this is not json\n\xff\xfe\n"
    cache.write_bytes(junk)
    code, cold = run_cli(capsys, "hcp", "-D", "-36", "--cache", str(cache))
    assert code == 0
    assert cold["result"]["coefficients"] == [1, -153542016, -1790957481984]
    written = cache.read_bytes()
    assert written.startswith(junk)
    assert json.loads(written[len(junk):])["hcp"] == cold["result"]["coefficients"]
    # the appended record is served, and the hit writes nothing
    code, warm = run_cli(capsys, "hcp", "-D", "-36", "--cache", str(cache))
    assert code == 0 and strip_timings(warm) == strip_timings(cold)
    assert cache.read_bytes() == written


H_23 = [1, 3491750, -5151296875, 12771880859375]
CLASSGROUP_23 = {"D": -23, "h": 3, "structure": [3], "elements": [[1, 1, 6], [2, -1, 3], [2, 1, 3]]}
HCP_23 = {"D": -23, "degree": 3, "coefficients": H_23, "prec": 128}


def test_classgroup_ignores_the_cache(capsys, tmp_path):
    # a record of the old classgroup cache with the wrong group of D = -23
    cache = tmp_path / "cache.jsonl"
    cache.write_text('{"D": -23, "forms": [[1,1,6]], "structure": [1], "hcp": null, "prec": 0}\n')
    old = cache.read_bytes()
    code, report = run_cli(capsys, "classgroup", "-D", "-23", "--cache", str(cache))
    assert code == 0 and report["result"] == CLASSGROUP_23
    assert cache.read_bytes() == old
    # a path hcp would refuse is ignored too
    code, report = run_cli(capsys, "classgroup", "-D", "-23", "--cache", str(tmp_path))
    assert code == 0 and report["result"] == CLASSGROUP_23


def test_hcp_serves_records_with_old_fields(capsys, tmp_path):
    # hcp records once also carried the class group; the extra fields are ignored
    cache = tmp_path / "cache.jsonl"
    record = {"D": -23, "forms": CLASSGROUP_23["elements"], "structure": [3], "hcp": H_23,
              "prec": 100000}
    cache.write_text(json.dumps(record) + "\n")
    old = cache.read_bytes()
    code, report = run_cli(capsys, "hcp", "-D", "-23", "--cache", str(cache))
    assert code == 0 and report["result"] == HCP_23
    assert cache.read_bytes() == old


def test_cache_append_after_torn_tail(capsys, tmp_path):
    # a record cut off by a crash: the next record starts a line of its own
    cache = tmp_path / "cache.jsonl"
    torn = b'{"D": -36, "hcp": [1, -15'
    cache.write_bytes(torn)
    code, cold = run_cli(capsys, "hcp", "-D", "-23", "--cache", str(cache))
    assert code == 0 and cold["result"] == HCP_23
    written = cache.read_bytes()
    assert written.startswith(torn + b"\n")
    assert json.loads(written[len(torn) + 1:])["hcp"] == H_23
    code, warm = run_cli(capsys, "hcp", "-D", "-23", "--cache", str(cache))
    assert code == 0 and strip_timings(warm) == strip_timings(cold)
    assert cache.read_bytes() == written
    # the torn line is never served: D = -36 is a miss, appended after it
    code, report = run_cli(capsys, "hcp", "-D", "-36", "--cache", str(cache))
    assert code == 0 and report["result"]["coefficients"] == [1, -153542016, -1790957481984]
    assert len(cache.read_bytes().splitlines()) == 3


def test_cache_put_recreates_a_deleted_file(tmp_path):
    cache = tmp_path / "cache.jsonl"
    cache.write_text("junk\n")
    assert _cached_hcp(cache, -23) is None
    cache.unlink()  # by another process, between the read and the append
    _append_hcp(cache, {"D": -23, "hcp": H_23, "prec": 128})
    assert _cached_hcp(cache, -23) == H_23


@pytest.mark.parametrize(
    "record",
    [
        # wrong shapes: skipped lines
        {"D": -23, "hcp": [1, 0.5, 0, 1], "prec": 100000},
        {"D": -23, "hcp": "x", "prec": 100000},
        {"D": -23, "hcp": H_23, "prec": True},
        # the right shape but not H_-23 (X^3 + 1 does not split mod 59): a miss
        {"D": -23, "hcp": [1, 0, 0, 1], "prec": 100000},
    ],
)
def test_cache_bad_records_are_not_served(capsys, tmp_path, record):
    cache = tmp_path / "cache.jsonl"
    cache.write_text(json.dumps(record) + "\n")
    for _ in range(2):  # the appended record, then a hit on it
        code, report = run_cli(capsys, "hcp", "-D", "-23", "--cache", str(cache))
        assert code == 0
        assert report["result"] == HCP_23
        lines = [json.loads(line) for line in cache.read_text().splitlines()]
        assert len(lines) == 2 and lines[0] == record


def test_timings_report_import_ms(capsys):
    code, report = run_cli(capsys, "reduce", "--form", "5,14,13")
    assert code == 0
    assert set(report["timings"]) == {"total_ms", "import_ms"}
    assert type(report["timings"]["import_ms"]) is int
    assert report["timings"]["import_ms"] >= 0


_APPEND_WORKER = """
import sys
from pathlib import Path
from weightjac.cli import _append_hcp

cache = Path(sys.argv[1])
tag = int(sys.argv[2])
print("ready", flush=True)
sys.stdin.readline()
for i in range(50):
    _append_hcp(cache, {"D": -(1000 * tag + i), "hcp": None, "prec": 0, "pad": "x" * 20000})
"""


def test_cache_concurrent_appends_stay_whole(tmp_path):
    cache = tmp_path / "cache.jsonl"
    env = child_env()
    workers = [
        subprocess.Popen(
            [sys.executable, "-c", _APPEND_WORKER, str(cache), str(tag)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        for tag in (1, 2)
    ]
    try:
        for w in workers:
            assert w.stdout.readline() == "ready\n"
        for w in workers:  # release both at once
            w.stdin.write("go\n")
            w.stdin.flush()
        for w in workers:
            assert w.wait(timeout=60) == 0
    finally:
        for w in workers:
            w.kill()
            w.communicate()
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    expected = [-(1000 * t + i) for t in (1, 2) for i in range(50)]
    assert sorted(r["D"] for r in records) == sorted(expected)
    assert all(r["pad"] == "x" * 20000 for r in records)


def test_hcp_refuses_a_cache_that_is_not_a_regular_file(tmp_path):
    # opening a FIFO for reading blocks until a writer comes; the CLI runs in a
    # child so that a regression fails on the timeout instead of hanging
    fifo = tmp_path / "cache.fifo"
    os.mkfifo(fifo)
    out = subprocess.run(
        [sys.executable, "-m", "weightjac.cli", "hcp", "-D", "-23", "--cache", str(fifo)],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert json.loads(out.stdout)["error"]["type"] == "CacheUnusable"


def test_hcp_refuses_a_symlink_into_a_missing_directory_before_computing(
    capsys, tmp_path, monkeypatch
):
    # a dangling symlink into a directory that exists is an empty cache, and
    # the append creates its target
    target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
    link.symlink_to(target)
    code, report = run_cli(capsys, "hcp", "-D", "-23", "--cache", str(link))
    assert code == 0 and report["result"] == HCP_23
    assert json.loads(target.read_text())["hcp"] == H_23
    # one into a missing directory names a file the append could not create,
    # and a symlink to itself cannot be opened: each is refused before H_D is
    # computed, not after
    import weightjac.analytic

    calls = []
    monkeypatch.setattr(
        weightjac.analytic, "hilbert_class_polynomial", lambda *args: calls.append(args)
    )
    dangling, loop = tmp_path / "dangling.jsonl", tmp_path / "loop.jsonl"
    dangling.symlink_to(tmp_path / "missing" / "cache.jsonl")
    loop.symlink_to(loop)
    for cache in (dangling, loop):
        code, record = run_cli(capsys, "hcp", "-D", "-23", "--cache", str(cache))
        assert code == 2, cache
        assert record["error"]["type"] == "CacheUnusable", cache
    assert calls == []
    assert not (tmp_path / "missing").exists()


def test_a_lower_int_digit_limit_gives_exit_2_or_a_clean_internal_error():
    # under PYTHONINTMAXSTRDIGITS=640 the literal budget is 2000 * 640 // 4300
    # = 297 digits, the lattice cap 850 * 640 // 4300 = 126 and the --abelian
    # budget 297: a literal past them is ParseError and an --abelian whose
    # report (722 digits) could not print is HodgeTooLarge, each before any
    # work.  A report that still cannot print, here from a handler returning a
    # 701-digit int, is the one-line "internal error", exit 1, not a traceback
    env = child_env(PYTHONINTMAXSTRDIGITS="640")
    big, wide = "1" + "0" * 700, "1" + "0" * 600
    cli = ["-m", "weightjac.cli"]
    unprintable = [
        "-c",
        "import sys; from weightjac import cli; "
        "_, help, options = cli._COMMANDS['reduce']; "
        "cli._COMMANDS['reduce'] = (lambda args: ({}, {'n': 10**700}), help, options); "
        "sys.exit(cli.main(['reduce', '--form', '5,14,13']))",
    ]
    for argv, code, error in (
        (cli + ["reduce", "--form", f"{big},1,1"], 2, "ParseError"),
        (cli + ["reduce", "--form", f"{wide},1,{wide}"], 2, "ParseError"),
        (cli + ["endring", "--lattices", f"<1;1{'0' * 200}*sqrt(-1)>@-1"], 2, "ParseError"),
        (cli + ["hodge", "--abelian", "1200,1200"], 2, "HodgeTooLarge"),
        (unprintable, 1, None),
        (cli + ["reduce", "--form", "5,14,13"], 0, None),
    ):
        out = subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == code, out.stderr
        if code == 2:
            assert json.loads(out.stdout)["error"]["type"] == error
        elif code == 1:
            assert out.stdout == ""
            assert out.stderr.startswith("internal error: ValueError: Exceeds the limit")
            assert out.stderr.count("\n") == 1
        else:
            assert json.loads(out.stdout)["result"]["reduced"] == [4, 4, 5]


# the program's three entries: python -m weightjac.cli, python -m weightjac,
# and the wrapper pip writes for the weightjac console script
ENTRY_POINTS = {
    "module": ["-m", "weightjac.cli"],
    "package": ["-m", "weightjac"],
    "script": ["-c", "import sys; from weightjac.cli import run; sys.exit(run())"],
}


def _crash(form):
    raise RuntimeError("synthetic crash")


# a sitecustomize module runs in a child before its entry point: this one
# makes binforms.reduce _crash there, as monkeypatch does in process
_CRASHING_SITE = """
from weightjac import binforms


def reduce(form):
    raise RuntimeError("synthetic crash")


binforms.reduce = reduce
"""

_GC_STATE_AT_EXIT_SITE = """
import atexit, gc

atexit.register(lambda: print("gc", gc.isenabled(), gc.get_freeze_count() > 0))
"""


def run_entry(entry, argv, env):
    return subprocess.run(
        [sys.executable, *ENTRY_POINTS[entry], *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_console_script_is_the_program_entry():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'weightjac = "weightjac.cli:run"' in pyproject.read_text().splitlines()


@pytest.mark.parametrize(
    "argv, code, crash",
    [
        (["reduce", "--form", "5,14,13"], 0, False),
        (["reduce", "--form", "2,4,6"], 2, False),  # not primitive: ParseError
        (["jacobian", "-m", "2"], 2, False),  # no --curves: UsageError
        (["reduce", "--form", "5,14,13"], 1, True),
    ],
    ids=["ok", "parse-error", "usage-error", "internal-error"],
)
def test_entry_points_print_what_main_prints(capsys, monkeypatch, tmp_path, argv, code, crash):
    if crash:
        (tmp_path / "sitecustomize.py").write_text(_CRASHING_SITE)
        monkeypatch.setattr(weightjac.binforms, "reduce", _crash)
    env = child_env(str(tmp_path))
    assert main(list(argv)) == code
    expected = capsys.readouterr()
    for entry in ENTRY_POINTS:
        out = run_entry(entry, argv, env)
        assert out.returncode == code, (entry, out.stderr)
        assert out.stderr == expected.err, entry
        if code == 1:
            assert out.stdout == expected.out == ""
            assert out.stderr == "internal error: RuntimeError: synthetic crash\n"
        else:
            assert strip_timings(json.loads(out.stdout)) == strip_timings(json.loads(expected.out))


def test_entry_points_deliver_a_report_larger_than_a_pipe_buffer(capsys):
    argv = ["classgroup", "-D", "-9999991"]
    assert main(argv) == 0
    expected = strip_timings(json.loads(capsys.readouterr().out))
    assert expected["result"]["h"] == 1715
    for entry in ("module", "package"):
        out = run_entry(entry, argv, child_env())
        assert out.returncode == 0 and out.stderr == ""
        assert len(out.stdout.encode()) > 1 << 16
        assert strip_timings(json.loads(out.stdout)) == expected


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_program_run_exits_with_its_objects_frozen(tmp_path, entry):
    # run() freezes what is alive before sys.exit, and the collector that
    # python -m weightjac.cli pauses while it loads is on again
    (tmp_path / "sitecustomize.py").write_text(_GC_STATE_AT_EXIT_SITE)
    out = run_entry(entry, ["reduce", "--form", "5,14,13"], child_env(str(tmp_path)))
    assert out.returncode == 0, out.stderr
    report, _, last = out.stdout.rstrip("\n").rpartition("\n")
    assert json.loads(report)["result"]["reduced"] == [4, 4, 5]
    assert last == "gc True True"


_LIBRARY_CALLER = """
import contextlib, gc, io, json
import weightjac.cli as cli

state = [gc.isenabled(), gc.get_freeze_count()]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["reduce", "--form", "5,14,13"])
print(json.dumps([code, state, [gc.isenabled(), gc.get_freeze_count()]]))
"""


def test_library_callers_keep_their_collector_state():
    out = subprocess.run(
        [sys.executable, "-c", _LIBRARY_CALLER],
        env=child_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    assert json.loads(out.stdout) == [0, [True, 0], [True, 0]]


def test_hcp_ignores_the_cache_environment_variable(capsys, tmp_path, monkeypatch):
    # the cache is named by --cache alone: WJ_CACHE, which once named it too,
    # neither creates a file nor changes the report
    code, plain = run_cli(capsys, "hcp", "-D", "-192")
    assert code == 0
    cache = tmp_path / "hcp.jsonl"
    monkeypatch.setenv("WJ_CACHE", str(cache))
    code, report = run_cli(capsys, "hcp", "-D", "-192")
    assert code == 0 and strip_timings(report) == strip_timings(plain)
    assert report["result"]["degree"] == 4
    assert not cache.exists()


def test_verify_appendix_cli(capsys):
    code, report = run_cli(capsys, "verify-appendix", "--prec", "256")
    assert code == 0
    assert report["result"]["all_ok"] is True
    assert len(report["result"]["fixtures"]) == 13


def test_hodge_commands(capsys):
    code, report = run_cli(capsys, "hodge", "--data", "weight 2; h = [1, 4, 1]; rankL = 2")
    assert code == 0
    res = report["result"]
    assert res["delta"] == 0 and res["has_jacobian"] is True
    assert res["torsion_dim_any_prime"] == 2
    assert res["split"]["h0_part"] == "weight 2; h = [1, 0, 1]; rankL = 2"
    code, report = run_cli(capsys, "hodge", "--abelian", "3,2")
    assert code == 0
    assert report["result"]["ns_rank"] == 9
    code, report = run_cli(capsys, "hodge", "--abelian", "10000,2")
    assert code == 0
    assert report["result"]["ns_rank"] == 10000**2


def test_input_errors_exit_two(capsys, tmp_path, monkeypatch):
    code, record = run_cli(capsys, "classgroup", "-D", "-5")
    assert code == 2
    assert record["error"]["type"] == "InvalidDiscriminant"
    # enumerating the forms of D = -10^12 would take hours; the budget stops it
    for argv in (
        ("classgroup", "-D", "-1000000000000"),
        ("hcp", "-D", "-1000000000000"),
        ("hcp", "-D", "-1000000000000", "--cache", str(tmp_path / "cache.jsonl")),
    ):
        code, record = run_cli(capsys, *argv)
        assert code == 2, argv
        assert record["error"]["type"] == "DiscriminantTooLarge"
    # 10^18 + 3 has no prime factor below 10^6: trial division would run for minutes
    for argv in (
        ("decompose", "--curves", "(-4000000000000000012:1,0,1000000000000000003),"
         "(-4000000000000000012:1,0,1000000000000000003)"),
        ("endring", "--lattices", "<1;sqrt(-1000000000000000003)>@-1000000000000000003"),
    ):
        code, record = run_cli(capsys, *argv)
        assert code == 2, argv
        assert record["error"]["type"] == "DiscriminantTooLarge"
    # C(20000, 5000) has about 4900 digits: building the Hodge numbers took 15 s
    # and printing them failed; the digit budget refuses before any binomial
    for pair in ("10000,5000", "1000000,500000"):
        code, record = run_cli(capsys, "hodge", "--abelian", pair)
        assert code == 2, pair
        assert record["error"]["type"] == "HodgeTooLarge"
    code, record = run_cli(capsys, "jacobian", "--curves", "(-144:5,4,8)", "-m", "2")
    assert code == 2
    assert record["error"]["type"] == "BadWeight"
    code, record = run_cli(capsys, "compose", "--forms", "1,0,9;1,0,1")
    assert code == 2
    assert record["error"]["type"] == "DiscriminantMismatch"
    code, record = run_cli(capsys, "reduce", "--form", "nonsense")
    assert code == 2
    assert record["error"]["type"] == "ParseError"
    code, record = run_cli(capsys, "latprod", "--lattices", "<1;1/0*sqrt(-1)>@-1,<1;sqrt(-1)>@-1")
    assert code == 2
    assert record["error"]["type"] == "ParseError"
    # a cache path that cannot be opened, a file in a missing directory or a
    # directory, is refused before the polynomial is computed
    import weightjac.analytic

    calls = []
    monkeypatch.setattr(
        weightjac.analytic, "hilbert_class_polynomial", lambda *args: calls.append(args)
    )
    for cache in (tmp_path / "missing" / "cache.jsonl", tmp_path):
        code, record = run_cli(capsys, "hcp", "-D", "-10007", "--cache", str(cache))
        assert code == 2, cache
        assert record["error"]["type"] == "CacheUnusable"
    assert calls == []
    # C(40, 20) ~ 1.4e11 factors would never finish; the factor budget stops it
    curves = ",".join(["(-144:5,4,8)"] * 40)
    code, record = run_cli(capsys, "jacobian", "--curves", curves, "-m", "20")
    assert code == 2
    assert record["error"]["type"] == "JacobianTooLarge"
    # C(200, 199) = 200 factors but 39,800 curve slots: the budget counts the slots
    curves = ",".join(["(-144:5,4,8)"] * 200)
    code, record = run_cli(capsys, "jacobian", "--curves", curves, "-m", "199")
    assert code == 2
    assert record["error"]["type"] == "JacobianTooLarge"


def test_usage_checks_of_compose_fod_and_hodge(capsys):
    for argv in (
        ("compose", "--forms", "2,2,5"),
        ("compose", "--forms", "2,2,5;2,2,5;2,2,5"),
        ("fod", "--curves", "(-144:5,4,8)"),
        ("fod", "--curves", "(-144:5,4,8),(-144:5,4,8),(-144:5,4,8)"),
        ("hodge",),
        ("hodge", "--data", "weight 2; h = [1, 4, 1]; rankL = 2", "--abelian", "2,2"),
    ):
        code, record = run_cli(capsys, *argv)
        assert code == 2, argv
        assert record["error"]["type"] == "ParseError", argv


def test_low_precision_rejected_as_input_error(capsys):
    for argv in (
        ("jinv", "--lattices", "<1;3*sqrt(-1)>@-1", "--prec", "32"),
        ("jinv", "--lattices", "<1;3*sqrt(-1)>@-1", "--prec", "2000000"),
        ("hcp", "-D", "-4", "--prec", "65537"),
    ):
        code, record = run_cli(capsys, *argv)
        assert code == 2, argv
        assert record["error"]["type"] == "ParseError"


def test_usage_error_exit_two(capsys):
    code = main(["no-such-command"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["error"]["type"] == "UsageError"
    # argparse (before 3.12) reads "--option=--" as an empty list, which no
    # reader takes; a later one passes the string "--" to the reader
    for argv in (["classgroup", "--discriminant=--"], ["reduce", "--form=--"],
                 ["hcp", "-D", "-4", "--prec=--"]):
        code, record = run_cli(capsys, *argv)
        assert code == 2, argv
        assert record["error"]["type"] in ("UsageError", "ParseError")


# every command in `weightjac -h` order, with the options it adds after -h:
# their option strings, and whether each is required
CLI_SURFACE = {
    "classgroup": [(("--cache",), False), (("-D", "--discriminant"), True)],
    "reduce": [(("--form",), True)],
    "compose": [(("--forms",), True)],
    "latprod": [(("--lattices",), True)],
    "homothety": [(("--lattices",), True)],
    "endring": [(("--lattices",), True)],
    "jacobian": [(("--curves",), True), (("-m", "--weight"), False)],
    "kummer": [(("--curves",), True), (("-m", "--weight"), False)],
    "decompose": [(("--curves",), True)],
    "orbit": [(("--curves",), True)],
    "fixedpoint": [(("--curves",), True)],
    "fod": [(("--curves",), True)],
    "jinv": [(("--lattices",), True), (("--prec",), False)],
    "hcp": [(("--cache",), False), (("-D", "--discriminant"), True), (("--prec",), False)],
    "hodge": [(("--data",), False), (("--abelian",), False)],
    "verify-appendix": [(("--prec",), False)],
}
_OPTION_RE = r"(?<![\w-])-{1,2}\w[\w-]*"


def _help_text(capsys, *argv) -> str:
    assert main([*argv, "-h"]) == 0
    return capsys.readouterr().out


def _usage(text: str) -> str:
    return text.split("\n\n")[0]


def test_cli_surface_matches_its_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    top = _help_text(capsys)
    assert re.search(r"\{([\w,-]+)\}", _usage(top))[1].split(",") == list(CLI_SURFACE)
    for command, options in CLI_SURFACE.items():
        text = _help_text(capsys, command)
        expected = [(("-h", "--help"), False), *options]
        # the options section: one line per option, its strings before the help
        section = text.split("options:\n")[1]
        listed = [
            tuple(re.findall(_OPTION_RE, re.split(r"\s{2,}", line.strip())[0]))
            for line in section.splitlines()
            if re.match(r"  -", line)
        ]
        assert listed == [flags for flags, _ in expected], command
        # the usage line names each option by its first string, bracketed
        # unless it is required
        usage = _usage(text).split(command, 1)[1]
        shown = re.findall(r"(\[?)(" + _OPTION_RE + ")", usage)
        assert shown == [("" if required else "[", flags[0]) for flags, required in expected]


def test_cli_option_defaults():
    from weightjac.cli import _build_parser

    parser = _build_parser()
    for argv in (["jinv", "--lattices", "<1;i>@-1"], ["hcp", "-D", "-23"], ["verify-appendix"]):
        assert parser.parse_args(argv).prec == "128", argv
    for command in ("jacobian", "kummer"):
        assert parser.parse_args([command, "--curves", "(-4:1,0,1)"]).weight == "2"


def test_internal_failure_exit_one(capsys, monkeypatch):
    import weightjac.cli as cli_module

    def boom(args):
        raise RuntimeError("synthetic crash")

    _, help, options = cli_module._COMMANDS["classgroup"]
    monkeypatch.setitem(cli_module._COMMANDS, "classgroup", (boom, help, options))
    code = main(["classgroup", "-D", "-36"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.strip() == ""
    assert "synthetic crash" in captured.err


def test_hcp_defect_is_an_internal_error_with_no_cache_record(capsys, monkeypatch, tmp_path):
    import weightjac.analytic as analytic
    from weightjac.binforms import Form
    from weightjac.cmlattice import form_to_lattice

    # a non-real j of an ambiguous form fails the reality test at the one
    # proven precision: a defect, not an input error
    ambiguous, real_j = form_to_lattice(Form(1, 0, 36)), analytic.j_of_lattice

    def perturbed_j(lat, prec=128):
        j = real_j(lat, prec)
        return analytic.PrecComplex(j.re, j.re, prec) if lat == ambiguous else j

    monkeypatch.setattr(analytic, "j_of_lattice", perturbed_j)
    cache = tmp_path / "cache.jsonl"
    code = main(["hcp", "-D", "-144", "--cache", str(cache)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("internal error: RuntimeError: ")
    assert "reality test" in captured.err and captured.err.count("\n") == 1
    assert not cache.exists()


def test_json_flag_is_a_usage_error(capsys):
    # output is always JSON; no command takes --json, and only classgroup and
    # hcp take --cache
    for argv in (("reduce", "--form", "5,14,13", "--json"),
                 ("reduce", "--form", "5,14,13", "--cache", "cache.jsonl")):
        code, record = run_cli(capsys, *argv)
        assert code == 2, argv
        assert record["error"]["type"] == "UsageError", argv


def test_mixed_fields_rejected(capsys):
    for command in ("decompose", "fod"):
        code, record = run_cli(capsys, command, "--curves", "(-144:5,4,8),(-108:4,2,7)")
        assert code == 2, command
        assert record["error"]["type"] == "FieldMismatch", command
    # conductors 8 and 6 both live over Q(sqrt(-3)): this one is fine
    code, report = run_cli(capsys, "decompose", "--curves", "(-192:4,4,13),(-108:4,2,7)")
    assert code == 0
    assert report["result"]["conductors"] == [2, 24]


def test_reports_are_deterministic(capsys):
    code, a = run_cli(capsys, "classgroup", "-D", "-1999")
    assert code == 0
    code, b = run_cli(capsys, "classgroup", "-D", "-1999")
    assert strip_timings(a) == strip_timings(b)


# (D, form): non-primitive, leading coefficient not positive, discriminant not negative
MALFORMED_FORMS = [(-12, "2,2,2"), (-3, "-1,1,-1"), (-3, "1,3,1")]


@pytest.mark.parametrize("D, form", MALFORMED_FORMS)
def test_a_form_reads_alike_under_form_and_curves(capsys, D, form):
    code, record = run_cli(capsys, "reduce", f"--form={form}")  # "-1,..." is not an option
    assert code == 2
    as_form = record["error"]
    code, record = run_cli(capsys, "decompose", "--curves", f"({D}:{form}),({D}:{form})")
    assert code == 2
    assert record["error"] == as_form == {"type": "ParseError", "message": as_form["message"]}


def test_curve_forms_take_signs_as_form_does(capsys):
    code, plain = run_cli(capsys, "decompose", "--curves", "(-144:5,4,8),(-144:5,4,8)")
    assert code == 0
    code, signed = run_cli(capsys, "decompose", "--curves", "(-144:+5,4,8),(-144: 5, +4 ,8)")
    assert code == 0
    assert strip_timings(signed) == strip_timings(plain)
    code, record = run_cli(capsys, "decompose", "--curves", "(-144:5,4,8,1)")
    assert code == 2
    assert record["error"]["type"] == "ParseError"


def test_hcp_refuses_coefficients_it_could_not_print(capsys, tmp_path, monkeypatch):
    import weightjac.analytic

    calls = []
    monkeypatch.setattr(
        weightjac.analytic, "hilbert_class_polynomial", lambda *args: calls.append(args)
    )
    # h(-61871) = 399 and Enge's bound is 15,367 bits, over the 14,284 that
    # 4,300 digits hold: it computed for 29 s and then failed in json.dumps.
    # The refusal comes before the cache is opened, even one that cannot be.
    for argv in (
        ("hcp", "-D", "-61871"),
        ("hcp", "-D", "-188471", "--prec", "256"),
        ("hcp", "-D", "-61871", "--cache", str(tmp_path / "missing" / "cache.jsonl")),
    ):
        code, record = run_cli(capsys, *argv)
        assert code == 2, argv
        assert record["error"]["type"] == "PrecisionExhausted"
    assert calls == []
    # a limit of 0 is no limit
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    monkeypatch.setattr(
        weightjac.analytic, "hilbert_class_polynomial",
        lambda D, prec: weightjac.analytic.ClassPolynomial(D, (1, 0), prec),
    )
    code, report = run_cli(capsys, "hcp", "-D", "-61871")
    assert code == 0 and report["result"]["coefficients"] == [1, 0]


def _power_below(base: int, digits: int) -> int:
    """A power of base with at least digits - 1 - log10(base) digits, below 10^digits."""
    return base ** int((digits - 1) / math.log10(base))


def _odd_primorial_below(digits: int) -> int:
    """The product of the odd primes 3, 5, 7, ... while it stays below 10^digits."""
    product, p = 1, 3
    while True:
        if all(p % k for k in range(3, math.isqrt(p) + 1, 2)):
            if product * p >= 10**digits:
                return product
            product *= p
        p += 2


def _edge_cases():
    """(argv, expected exit code): inputs at and past every digit budget."""
    from weightjac.cmlattice import MAX_LATTICE_DIGITS
    from weightjac.hodgecalc import MAX_HODGE_DIGITS
    from weightjac.quadfield import MAX_LITERAL_DIGITS as MAX

    cases = []
    # every integer of a literal or an option: "_", a non-ASCII digit and one
    # digit over the budget are each refused, in both option spellings
    curves = "(-144:5,4,8),(-144:5,4,8)"
    lattice = "<1;13*sqrt(-1)>@-1"
    for argv, option, value in (
        (["classgroup"], "--discriminant", "-23"),
        (["hcp"], "--discriminant", "-23"),
        (["hcp", "-D", "-23"], "--prec", "128"),
        (["jinv", "--lattices", lattice], "--prec", "128"),
        (["verify-appendix"], "--prec", "128"),
        (["jinv"], "--lattices", lattice),
        (["reduce"], "--form", "5,14,13"),
        (["compose"], "--forms", "2,2,5;2,2,5"),
        (["latprod"], "--lattices", f"{lattice},{lattice}"),
        (["homothety"], "--lattices", f"{lattice},{lattice}"),
        (["endring"], "--lattices", lattice),
        (["jacobian", "--curves", curves], "--weight", "2"),
        (["kummer", "--curves", curves], "--weight", "2"),
        (["jacobian"], "--curves", curves),
        (["decompose"], "--curves", curves),
        (["orbit"], "--curves", f"{curves},{curves}"),
        (["fixedpoint"], "--curves", f"{curves},{curves}"),
        (["fod"], "--curves", curves),
        (["hodge"], "--data", "weight 2; h = [1, 14, 1]; rankL = 2"),
        (["hodge"], "--abelian", "10,2"),
    ):
        digit = re.search("[0-9]", value)
        for bad in (f"0_{digit[0]}", chr(0x660 + int(digit[0])), "9" * (MAX + 1)):
            bad_value = value[: digit.start()] + bad + value[digit.end():]
            cases.append((argv + [f"{option}={bad_value}"], 2))
            cases.append((argv + [option, bad_value], 2))
    # the largest forms: reports print discriminants of 2 * MAX + 1 digits
    n = 10**MAX - 1
    form = f"{n},{n - 1},{n}"
    cases += [(["reduce", "--form", form], 0), (["compose", "--forms", f"{form};{form}"], 0)]
    # 2,200-digit a and c gave an uncaught traceback from json.dumps
    wide = f"{10**2199},1,{10**2199}"
    cases += [(["reduce", "--form", wide], 2), (["compose", "--forms", f"{wide};{wide}"], 2)]
    # the largest curves: D and c of MAX digits
    c = 10 ** (MAX - 1)
    curve = f"({-4 * c}:1,0,{c})"
    for command in ("jacobian", "kummer", "decompose", "fod"):
        cases.append(([command, "--curves", f"{curve},{curve}"], 0))
    for command in ("orbit", "fixedpoint"):
        cases.append(([command, "--curves", f"{curve},{curve},{curve}"], 0))
    cases.append((["decompose", "--curves", f"({-4 * c}0:1,0,{c}0),{curve}"], 2))
    # a D of MAX digits with no factor below 10^6 is refused after trial division
    rough = f"({-4 * c - 3}:1,1,{c + 1})"
    cases.append((["decompose", "--curves", f"{rough},{rough}"], 2))
    # the largest Hodge numbers; the largest --abelian is fed back to --data below
    h = 10 ** (MAX - 1)
    cases.append((["hodge", "--data", f"weight 2; h = [{h}, {n}, {h}]; rankL = {2 * h}"], 0))
    m = math.floor(MAX_HODGE_DIGITS / math.log10(2 * math.e))
    cases.append((["hodge", "--abelian", f"{m},{m}"], 0))
    cases.append((["hodge", "--abelian", f"{m + 1},{m + 1}"], 2))
    cases.append((["hodge", "--abelian", f"{10**400},{10**400}"], 2))
    cases.append((["hodge", "--data", f"weight {'4' * 4401}; h = [1]; rankL = 0"], 2))
    # lattices: three coprime denominators multiply into the canonical den
    third = MAX_LATTICE_DIGITS // 3
    a, b, d = _power_below(2, third), _power_below(3, third), _power_below(7, third)
    fits = f"<1/{a};1/{b}+1/{d}*sqrt(-1)>@-1"
    # p, r and |d| at the cap: the order's discriminant 4*p^2*r^2*|d| is the largest
    top = _odd_primorial_below(MAX_LATTICE_DIGITS)
    cap = (
        f"<{_power_below(2, MAX_LATTICE_DIGITS)};"
        f"{_power_below(3, MAX_LATTICE_DIGITS)}*sqrt(-{top})>@-{top}"
    )
    a, b, d = _power_below(2, MAX), _power_below(3, MAX), _power_below(7, MAX)
    over = f"<1/{a};1/{b}+1/{d}*sqrt(-1)>@-1"
    for lat, code in ((fits, 0), (cap, 0), (over, 2)):
        cases += [
            (["endring", "--lattices", lat], code),
            (["jinv", "--lattices", lat], code),
            (["latprod", "--lattices", f"{lat},{lat}"], code),
            (["homothety", "--lattices", f"{lat},{lat}"], code),
        ]
    # 2,501-digit generators (the product failed in json.dumps), 4,401 digits
    # (Fraction raised ValueError)
    for digits in (2501, 4401):
        g = "1" + "0" * (digits - 1) + "*sqrt(-1)"
        cases.append((["latprod", "--lattices", f"⟨1, {g}⟩, ⟨1, {g}⟩"], 2))
    return cases


def test_every_command_at_the_budget_edges(capsys):
    """Every command, on inputs at and past its digit budget, exits 0 or 2
    within seconds, never 1, and its report prints.  The slowest cases, the
    largest --abelian and trial division of a 2,000-digit discriminant, took
    0.5 s and 0.65 s on a 2-CPU VM with Python 3.11."""
    for argv, expected in _edge_cases():
        started = time.monotonic()
        code, report = run_cli(capsys, *argv)
        label = [arg[:40] for arg in argv]
        assert time.monotonic() - started < 10, label
        assert code == expected, (label, report)
        if code == 2:
            refusals = ("ParseError", "UsageError", "HodgeTooLarge", "DiscriminantTooLarge")
            assert report["error"]["type"] in refusals, label
        elif argv[:2] == ["hodge", "--abelian"]:
            # the largest --abelian report reads back through --data
            res = report["result"]
            h, rank = res["hodge_numbers"], res["rank_image"]
            data = f"weight {res['weight']}; h = {h}; rankL = {rank}"
            code, again = run_cli(capsys, "hodge", "--data", data)
            assert code == 0
            assert again["result"]["hodge_numbers"] == h
