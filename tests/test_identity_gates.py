"""Identity gates: golden digests of what the program prints, and a literal fuzzer.

The digests were recorded from the code as it stood before a change and must
pass unchanged after it.  A change that alters an output on purpose updates
the digest it alters and says in CHANGES.md which verdict changed and why.
The work tables (CLI_WORK and the other *_WORK tables, WORK_COUNTS) are
exact counts of the work behind those outputs; a change that alters that work
on purpose records the new table from a run of the test and states each moved
entry before -> after in CHANGES.md.  The README deck of the CLI is read from
README.md's sh block, so its examples cannot drift from what is checked.
"""

import contextlib
import hashlib
import io
import json
import re
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightjac import analytic, binforms, cmlattice, jacobians
from weightjac.binforms import Form
from weightjac.cli import _COMMANDS, main
from weightjac.cmlattice import form_to_lattice, parse_lattice

from conftest import readme_block

# sha256 over "D:coefficients:prec" lines for every D with -2500 < D <= -3
CLASS_POLYNOMIAL_SHA256 = "71e6ce88511ab40ca91f82fac2dfe65c124a97d4965dfb1ff7f9e71289b68210"
# sha256 over the (sign, man, exp, bc) of .re and .im of j at each precision
J_BITS_SHA256 = "1190b0f5f418bc25d5e861d13546a1100de778a96de4637610fe2bca51d32295"


def test_class_polynomial_golden_digest():
    digest = hashlib.sha256()
    count = 0
    for D in range(-3, -2500, -1):
        if D % 4 in (0, 1):
            poly = analytic.hilbert_class_polynomial(D)
            digest.update(f"{D}:{','.join(map(str, poly.coefficients))}:{poly.prec}\n".encode())
            count += 1
    assert count == 1249
    assert digest.hexdigest() == CLASS_POLYNOMIAL_SHA256


# reduced forms with b = 0, with b = a, and with 4 Re tau = 2b/a not an integer;
# (1, 1, 500) has |j| near e^(pi sqrt 1999)
J_FORMS = [Form(1, 0, 36), Form(4, 0, 9), Form(2, 2, 5), Form(1, 1, 500), Form(5, 4, 8),
           Form(7, 6, 73), Form(13, 10, 41)]


def test_j_bit_pattern_digest():
    lattices = [parse_lattice(rec["lattice"]) for rec in analytic.appendix_fixtures()]
    lattices += [form_to_lattice(f) for f in J_FORMS]
    assert len(lattices) == 20
    digest = hashlib.sha256()
    for lat in lattices:
        for prec in (128, 1024, 4096):
            j = analytic.j_of_lattice(lat, prec)
            parts = [tuple(map(int, x._mpf_)) for x in (j.re, j.im)]
            digest.update(f"{prec}:{parts}\n".encode())
    assert digest.hexdigest() == J_BITS_SHA256


def _run(argv):
    """cli.main(argv) in process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _record(code, out, err):
    """The one JSON record on stdout, with timings dropped, for exit 0 or 2
    (argparse writes its usage to stderr too)."""
    assert code in (0, 2), err
    record = json.loads(out)
    assert out == json.dumps(record, indent=2) + "\n"
    assert record["schema"] == 1
    assert ("result" if code == 0 else "error") in record
    record.pop("timings", None)
    return record


GAUSS_LATTICE = "⟨1, 1/3+2/3*sqrt(-1)⟩"
CURVES = "(-144:5,4,8),(-144:5,4,8)"


def _readme_argvs():
    """README's CLI examples: each line of its sh block split as a shell
    splits it, without the leading weightjac, and with the --cache value
    replaced by {cache}, one fresh cache file, so hcp's repeated example is
    read cold and then warm."""
    argvs = []
    for line in readme_block("sh").splitlines():
        program, *argv = shlex.split(line, comments=True)
        assert program == "weightjac", line
        if "--cache" in argv:
            argv[argv.index("--cache") + 1] = "{cache}"
        argvs.append(argv)
    return argvs


# what README's examples leave out: more argvs for its commands, the commands
# it has no example of, and literal exit-2 inputs; each runs after README's
CLI_DECK = {
    "classgroup": [["-D", "-1999"], ["-D", "-5"], ["-D", "-1000000000000"]],
    "reduce": [["--form", "nonsense"], ["--form=-1,1,-1"]],
    "compose": [["--forms", "1,0,9;1,0,1"]],
    "latprod": [
        ["--lattices", "<1;1/3+2/3*sqrt(-1)>@-1,<3;1+2*sqrt(-3)>@-3"],
        ["--lattices", "<1;1/0*sqrt(-1)>@-1,<1;sqrt(-1)>@-1"],
    ],
    "homothety": [
        ["--lattices", f"{GAUSS_LATTICE}, <3;1+2*sqrt(-1)>@-1"],
        ["--lattices", f"{GAUSS_LATTICE}, ⟨1, 3*sqrt(-1)⟩"],
        ["--lattices", GAUSS_LATTICE],
    ],
    "endring": [["--lattices", "⟨1, 1_0*sqrt(-1)⟩"]],
    "jacobian": [["--curves", "(-144:5,4,8)", "-m", "2"]],
    "decompose": [
        ["--curves", "(-192:4,4,13),(-108:4,2,7)"],
        ["--curves", "(-144:5,4,8),(-108:4,2,7)"],
    ],
    "orbit": [["--curves", "(-144:5,4,8,1)"]],
    "fixedpoint": [["--curves", f"{CURVES},(-144:5,4,8)"], ["--curves", "(-144:5,4,9),(-144:5,4,8)"]],
    "fod": [["--curves", "(-144:5,4,8),(-108:4,2,7)"]],
    "jinv": [
        ["--lattices", "<2;1+1*sqrt(-3)>@-3"],
        ["--lattices", "<2;1+sqrt(-3)>@-3"],
        ["--lattices", "<1;3*sqrt(-1)>@-1", "--prec", "32"],
    ],
    "hcp": [["-D", "-1999"], ["-D", "-4", "--prec", "65537"], ["-D", "-61871"]],
    "hodge": [
        ["--abelian", "4,2"],
        ["--abelian", "10000,5000"],
        ["--data", "weight 2; h = [1,,0,,1,]; rankL = 0"],
    ],
    "kummer": [["--curves", CURVES, "-m", "3"]],
    "verify-appendix": [["--prec", "١٢٨"]],
}

# sha256 per command over its deck's exit codes and reports without timings
CLI_DIGESTS = {
    "classgroup": "f90651c8af0670afe46d2e55b019966074382adb09ec2c387c871a53e2adc1d7",
    "reduce": "85ced4f1a79a43322ee18e2678fea46eae9af9cf4dad73aedf0868291202693d",
    "compose": "c2d42e295d6b2404bcc6a8a6c694b787dd69b4549fa265394d5bd3dcaed2b1bc",
    "latprod": "a2ea878c42cc3ede408e224a6b30ffd5cad5f920c345fed94972f3ec4dd64341",
    "homothety": "f5a821a433524a776bb8485507744b317d141e0e653ebeba3e6de221d433e492",
    "endring": "00b25fc8a2bc3b1d42b0fae3fae6433319cb6f284b2a69dc2150f46150f0fd05",
    "jacobian": "9f0577044fe61c8c5aad71265aac0ef8a647722f4b794edaf6dacb1c2040845f",
    "decompose": "c429db32051e374d3e42796ad025dc95f42924977bc678064068de4d309c194b",
    "orbit": "09c9dd1c1fc6189d1e2c73838b781e95ca25faae8e54ae4407b751fd1ee01749",
    "fixedpoint": "84b4eb3b0640660035c9ccdd62cb0ea09c566ae3d43d801d4f9cfed5c8eff9fe",
    "fod": "86b439047a21d254a027abcd198b176964a28de8efcf6657ab76e47e6051758f",
    "jinv": "9ddde7cc50ce1e3e5e5e97cbc465f4d999a10181481010a76fc8ce73572f592d",
    "hcp": "f69d49c7bbcaea5bcbccd2f6e3ba7d54697859b81b2a02f1f95eb35d498bb880",
    "hodge": "8723cec2571822d8657de597cce80398e89ca21386d26d6950b8e71a2c506fa0",
    "kummer": "e531a76083400fb438b123374adef473805a81bb3581fe57937e02341ac52d97",
    "verify-appendix": "b386b1b473277173b95cc338ed813b5b954d7709aaa74631e88d7bcbae7c5922",
}


# inputs that lift a non-principal class into an order of class number above
# one, so phi runs lattice_product and ideal_class: none of CLI_DECK does
LIFT_CURVES = "(-144:5,4,8),(-36:2,2,5)"
CLI_LIFT_DECK = {
    "jacobian": [["--curves", LIFT_CURVES, "-m", "2"]],
    "decompose": [["--curves", LIFT_CURVES]],
    "fod": [["--curves", "(-36:2,2,5),(-144:5,4,8)"]],
    "orbit": [["--curves", f"{LIFT_CURVES},(-144:5,4,8)"]],
    "kummer": [["--curves", f"{LIFT_CURVES},(-16:1,0,4)", "-m", "2"]],
}
CLI_LIFT_DIGESTS = {
    "jacobian": "5cb3c4ea6a49db836e1f8219fd92efdfba3efaa82af3d1db90ccfc018d4b8e71",
    "decompose": "0add6bbf7e448dda5d70ac7aaec3f18674014dd2176950f9696475aa40d4aba9",
    "fod": "f61e36e80b37b34d798ba2b2f5f45cd66af404dfead7f36cf67099d77e1acce1",
    "orbit": "96c88c5afe1af764b0279e134e3da7221d7d07c9c5505136e04b018c60540d5d",
    "kummer": "130c4fdc150a3629f4c967b04247833f91bfd58c163fedb31d29950537118f17",
}

# the 272 argvs of the cli-mix benchmark at seed 0, frozen so that a change to
# the benchmark cannot move this gate; {cache} is one cache file for the deck,
# so its repeated hcp requests are read warm (only hcp reads the cache, so
# running each command's argvs in their order keeps every hit and miss)
CLI_MIX_ARGVS = json.loads((Path(__file__).parent / "cli_mix_deck.json").read_text(encoding="utf-8"))


def _by_command(argvs) -> dict[str, list]:
    """{command: the arguments of each of its argvs, in order}."""
    deck: dict[str, list] = {}
    for command, *args in argvs:
        deck.setdefault(command, []).append(args)
    return deck


CLI_MIX_DECK = _by_command(CLI_MIX_ARGVS)
CLI_MIX_DIGESTS = {
    "classgroup": "a8d99d210d6d3f8677066ff752a9747f06da11c6da455484cab625f634666f2b",
    "compose": "e530766b2e1361818fbf8d7b36363d19a11fa9a126b331f1e672e1dc9bff4237",
    "decompose": "50fd5c40ecbef94e1447462d40c99222c677cd0d73cf50a180a4529c00040272",
    "fod": "1d0b70da960f6778e2cc1747066ea72700c420724b49514fa879427857dce826",
    "hcp": "080cdfac9b2624a0768b5b8608ac2d1ded5ede318e1602f8b13644c1731f7c8c",
    "hodge": "673c62356db336db0502ea65649493e6610b0ed236080136a02b41109efa5219",
    "jacobian": "23eadc751602baa9a8a08e852a0e0dfa2b33ea0efc2c053fa11e6170473b0b9c",
    "jinv": "7536ff8620b3bdd6867708dae8f67f0f6ee5da0a3702c5518e681733639199f9",
    "kummer": "b8ab6001b07c07b781f0e98f9fc245f4cdbcbfda9818cb5ddd8ec9579fd703c3",
    "latprod": "a97fc2dcae5f7c42253e7d362b7f536cd23011efd61a574e939cf02fda40c588",
    "orbit": "02c4ea5641b916d7a46b76da81c2ed88ac2e8824d6cc4022c0ec29847ad944d0",
    "reduce": "5a19781cff1bf40c3a80669bca906d46c6a59f8dd722065cca51e29fef63ef2f",
    "verify-appendix": "bbbea8689df53c86fdfab59b8279149a4bca8ab0bd033dae3d1b3fb7f9037324",
}

# exact work per command over each deck, recorded from the code as it stood
# before a change: lattice_product calls, compositions (_compositions),
# n_decompose calls, then j_of_lattice calls and the sum of their precisions
# in bits
CLI_WORK = {
    "classgroup": (0, 141, 0, 0, 0),
    "reduce": (0, 0, 0, 0, 0),
    "compose": (0, 2, 0, 0, 0),
    "latprod": (2, 0, 0, 0, 0),
    "homothety": (0, 0, 0, 0, 0),
    "endring": (0, 0, 0, 0, 0),
    "jacobian": (0, 1, 0, 0, 0),
    "decompose": (0, 2, 2, 0, 0),
    "orbit": (0, 5, 1, 0, 0),
    "fixedpoint": (0, 2, 1, 0, 0),
    "fod": (0, 2, 0, 0, 0),
    "jinv": (0, 0, 0, 2, 384),
    "hcp": (0, 0, 0, 17, 14474),
    "hodge": (0, 0, 0, 0, 0),
    "kummer": (0, 1, 0, 0, 0),
    "verify-appendix": (0, 0, 0, 13, 3536),
}
CLI_LIFT_WORK = {
    "jacobian": (1, 1, 0, 0, 0),
    "decompose": (1, 1, 1, 0, 0),
    "fod": (1, 1, 0, 0, 0),
    "orbit": (2, 5, 1, 0, 0),
    "kummer": (1, 3, 0, 0, 0),
}
CLI_MIX_WORK = {
    "classgroup": (0, 62490, 0, 0, 0),
    "compose": (0, 18, 0, 0, 0),
    "decompose": (20, 35, 16, 0, 0),
    "fod": (0, 30, 0, 0, 0),
    "hcp": (0, 0, 0, 53, 12994),
    "hodge": (0, 0, 0, 0, 0),
    "jacobian": (22, 59, 0, 0, 0),
    "jinv": (0, 0, 0, 16, 5248),
    "kummer": (11, 28, 0, 0, 0),
    "latprod": (16, 0, 0, 0, 0),
    "orbit": (11, 93, 16, 0, 0),
    "reduce": (0, 0, 0, 0, 0),
    "verify-appendix": (0, 0, 0, 208, 41600),
}

# (deck, its digests, its work): the README deck, README's examples followed
# by CLI_DECK, runs every command and is read from README when its test runs
FROZEN_DECKS = {
    "readme": (CLI_DECK, CLI_DIGESTS, CLI_WORK),
    "lift": (CLI_LIFT_DECK, CLI_LIFT_DIGESTS, CLI_LIFT_WORK),
    "cli-mix": (CLI_MIX_DECK, CLI_MIX_DIGESTS, CLI_MIX_WORK),
}


def _counting(monkeypatch, module, name, weigh=lambda *args: 1, tally=None):
    """Replace module.name by a wrapper; returns [calls, sum of weigh(*args)],
    added into tally when one is given."""
    tally, original = tally or [0, 0], getattr(module, name)

    def wrapper(*args):
        tally[0] += 1
        tally[1] += weigh(*args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return tally


def _compositions(monkeypatch):
    """One tally of every composition: through jacobians' binding, and
    through binforms' own, which cli's compose, power, element_order and
    class_group reach."""
    tally = [0, 0]
    for module in (jacobians, binforms):
        _counting(monkeypatch, module, "compose", tally=tally)
    return tally


@pytest.mark.parametrize("name", FROZEN_DECKS)
def test_frozen_cli_deck(name, tmp_path, monkeypatch):
    """Each command's argvs, run in order through cli.main: a digest of their
    exit codes and reports without timings, and the work they did."""
    deck, digests, work = FROZEN_DECKS[name]
    if name == "readme":
        readme = _readme_argvs()
        assert not any(args in deck.get(command, []) for command, *args in readme)
        deck = _by_command([*readme, *([c, *args] for c, argvs in deck.items() for args in argvs)])
        assert sorted(deck) == sorted(_COMMANDS)
    cache = str(tmp_path / "hcp.jsonl")
    tallies = [
        _counting(monkeypatch, cmlattice, "lattice_product"),
        _compositions(monkeypatch),
        _counting(monkeypatch, jacobians, "n_decompose"),
        _counting(monkeypatch, analytic, "j_of_lattice", lambda lat, prec: prec),
    ]
    got_digests, got_work = {}, {}
    for command, argvs in deck.items():
        for tally in tallies:
            tally[:] = [0, 0]
        digest = hashlib.sha256()
        for args in argvs:
            code, out, err = _run([command, *(a.replace("{cache}", cache) for a in args)])
            digest.update(f"{code}\n{json.dumps(_record(code, out, err), indent=2)}\n".encode())
        got_digests[command] = digest.hexdigest()
        lifts, compositions, decompositions, j = tallies
        got_work[command] = (lifts[0], compositions[0], decompositions[0], *j)
    assert got_digests == digests
    assert got_work == work


# exact work over the seed-0 decks of two benchmark workloads, recorded from
# the code as it stood before a change: j evaluations and their precisions
# over the classpoly discriminants, and phi's lattice lifts, the lattices
# built from forms and the class compositions over the jacobian-algebra
# products
WORK_COUNTS = {
    "classpoly ops": 320,
    "j_of_lattice calls": 3140,
    "j_of_lattice bits": 2842752,
    "jacobian-algebra ops": 1200,
    "lattice_product calls": 5459,
    "form_to_lattice builds": 971,
    "compose calls": 21789,
}


def test_work_counts_of_the_benchmark_decks(perfbench, monkeypatch, tmp_path):
    got = {}
    wl = perfbench("classpoly").Workload(0, tmp_path)
    j = _counting(monkeypatch, analytic, "j_of_lattice", lambda lat, prec: prec)
    for D in wl.ops:
        wl.execute(D)
    got["classpoly ops"], (got["j_of_lattice calls"], got["j_of_lattice bits"]) = len(wl.ops), j
    wl = perfbench("algebra").Workload(0, tmp_path)
    # the deck's ops reach lattice_product only through phi's lifts, and
    # from_generators only through form_to_lattice; the lattice memo starts
    # empty, so the count does not depend on which tests ran before
    jacobians._lattice.cache_clear()
    lifts = _counting(monkeypatch, cmlattice, "lattice_product")
    builds = _counting(monkeypatch, cmlattice, "from_generators")
    compositions = _compositions(monkeypatch)
    for x in wl.ops:
        wl.execute(x)
    got["jacobian-algebra ops"] = len(wl.ops)
    got["lattice_product calls"], got["compose calls"] = lifts[0], compositions[0]
    got["form_to_lattice builds"] = builds[0]
    assert got == WORK_COUNTS


def test_cli_mix_verdict_in_process(perfbench, tmp_path):
    # perfbench's own check of the seed-0 cli-mix deck, with each argv run
    # through cli.main instead of a child process: the check reads library
    # answers (surface_decompose, torsion_dim, lattices built by QuadElem
    # addition), so a library change that breaks it fails here too; the runs
    # are traced, so a function that cli-mix pins and no argv reaches fails
    # here rather than in a traced benchmark run
    cli_mix = perfbench("cli_mix")
    wl = cli_mix.Workload(0, tmp_path)
    records = []
    with perfbench("tracer").Tracer() as tracer:
        for op in wl.ops:
            code, out, err = _run(op.argv)
            records.append((op, cli_mix.CliOutput(code, out, err, None, None, 0), None))
    assert [name for name in cli_mix.EXPECTED_CALLS if tracer.calls(name) == 0] == []
    assert len(records) == 272
    assert wl.check(records) == [None] * 272


# (command and options, the option a literal is mutated in, a valid literal)
LITERALS = [
    (["classgroup"], "--discriminant", "-144"),
    (["reduce"], "--form", "5,14,13"),
    (["compose"], "--forms", "2,2,5;2,2,5"),
    (["latprod"], "--lattices", f"{GAUSS_LATTICE}, <1;1/3+2/3*sqrt(-1)>@-1"),
    (["homothety"], "--lattices", "<2;1+1*sqrt(-3)>@-3, ⟨1, 1/2+1/2*sqrt(-3)⟩"),
    (["endring"], "--lattices", "⟨1/3+0*sqrt(-1), 0+2/9*sqrt(-1)⟩"),
    (["jacobian", "-m", "2"], "--curves", CURVES),
    (["jacobian", "--curves", CURVES], "--weight", "2"),
    (["kummer", "--curves", CURVES], "--weight", "2"),
    (["decompose"], "--curves", "(-192:4,4,13),(-108:4,2,7)"),
    (["orbit"], "--curves", f"{CURVES},(-144:1,0,36)"),
    (["fixedpoint"], "--curves", "(-36:1,0,9),(-36:2,2,5),(-36:1,0,9)"),
    (["fod"], "--curves", "(-108:1,0,27),(-108:4,2,7)"),
    (["jinv", "--prec", "128"], "--lattices", "⟨1, 3*sqrt(-1)⟩"),
    (["jinv", "--lattices", "<1;3*sqrt(-1)>@-1"], "--prec", "256"),
    (["hcp"], "--discriminant", "-144"),
    (["hcp", "-D", "-108"], "--prec", "256"),
    (["hodge"], "--data", "weight 2; h = [1, 4, 1]; rankL = 2"),
    (["hodge"], "--abelian", "4,2"),
    (["verify-appendix"], "--prec", "128"),
]

# tokens that broke readers before: signs, "_", non-ASCII digits, 2000- and
# 2001-digit integers, a zero denominator and an empty entry
INTEGER_MUTATIONS = [
    lambda n: "-" + n,
    lambda n: "+" + n,
    lambda n: n[0] + "_" + n[1:],
    lambda n: chr(0x660 + int(n[0])) + n[1:],
    lambda n: n[:-1] + chr(0xFF10 + int(n[-1])),
    lambda n: "1" + "0" * 1999,
    lambda n: "1" + "0" * 2000,
    lambda n: "1/0",
    lambda n: "",
]
# mixed fields, the other lattice spelling, and a dropped or an empty entry
TEXT_MUTATIONS = [
    ("sqrt(-1)", "sqrt(-3)"),
    ("@-1", "@-3"),
    ("(-144:5,4,8)", "(-108:4,2,7)"),
    ("⟨1, 3*sqrt(-1)⟩", "<1;3*sqrt(-1)>@-1"),
    ("<1;1/3+2/3*sqrt(-1)>@-1", "⟨1, 1/3+2/3*sqrt(-3)⟩"),
    (",", ""),
    (",", ",,"),
]


def mutated(literal):
    """literal with one to three mutations."""

    @st.composite
    def strategy(draw):
        text = literal
        for _ in range(draw(st.integers(1, 3))):
            spans = list(re.finditer("[0-9]+", text))
            if spans and draw(st.booleans()):
                m = spans[draw(st.integers(0, len(spans) - 1))]
                token = draw(st.sampled_from(INTEGER_MUTATIONS))(m[0])
                text = text[: m.start()] + token + text[m.end():]
            else:
                old, new = draw(st.sampled_from(TEXT_MUTATIONS))
                text = text.replace(old, new, 1)
        return text

    return strategy()


@pytest.mark.parametrize(
    "argv, option, literal", LITERALS, ids=[" ".join([*argv, option]) for argv, option, _ in LITERALS]
)
def test_mutated_literals_exit_0_or_2_with_one_record(argv, option, literal):
    """Every mutated literal gives exit 0 or 2, each run within 5 s, one
    schema-1 record on stdout, and the same record again apart from timings."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=10)
    @given(mutated(literal))
    def check(text):
        records = []
        for _ in range(2):
            started = time.monotonic()
            code, out, err = _run([*argv, f"{option}={text}"])
            assert time.monotonic() - started < 5, text
            records.append(_record(code, out, err))
        assert records[0] == records[1]

    check()
