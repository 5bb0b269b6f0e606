"""weightjac benchmark: one seeded workload, checked outputs, metrics as JSON.

    python3 perfbench/run.py --workload cli-mix --seed 0 --seconds 25 --trace 0

Workloads: cli-mix, jacobian-algebra, classpoly (see README.md beside this
file).  With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation.  With ``--trace 1`` it spends half the time untraced and
half with every layer wrapped by tracer.Tracer, then prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a summary and
the one before that the environment block.

The program measured is the tree this file sits in: ``src/weightjac`` of the
checkout, never an installed copy.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from cli_mix import COMMANDS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = {"cli-mix": "cli_mix", "jacobian-algebra": "algebra", "classpoly": "classpoly"}
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5
J_PROBE_BITS = (128, 256, 512, 1024, 2048, 4096)
J_PROBE_LATTICES = 4
PER_OP = (
    # (metric, tracer span, "calls" or "self_ms"); both are per op of the traced pass
    ("binforms.compose.calls", "binforms.compose", "calls"),
    ("binforms.compose.self_ms", "binforms.compose", "self_ms"),
    ("binforms.reduce.calls", "binforms.reduce", "calls"),
    ("binforms.reduce.self_ms", "binforms.reduce", "self_ms"),
    ("binforms.class_group.self_ms", "binforms.class_group", "self_ms"),
    ("binforms.enumerate_reduced.self_ms", "binforms.enumerate_reduced", "self_ms"),
    ("cmlattice.lattice_product.calls", "cmlattice.lattice_product", "calls"),
    ("cmlattice.from_generators.calls", "cmlattice.from_generators", "calls"),
    ("cmlattice.from_generators.self_ms", "cmlattice.from_generators", "self_ms"),
    ("cmlattice.ideal_class.self_ms", "cmlattice.ideal_class", "self_ms"),
    ("jacobians.phi.calls", "jacobians.phi", "calls"),
    ("jacobians.phi.self_ms", "jacobians.phi", "self_ms"),
    ("jacobians.m_jacobian.self_ms", "jacobians.m_jacobian", "self_ms"),
    ("jacobians.n_decompose.self_ms", "jacobians.n_decompose", "self_ms"),
    ("jacobians.jacobian_orbit.self_ms", "jacobians.jacobian_orbit", "self_ms"),
    ("quadfield.QuadElem.minimal_polynomial.calls", "quadfield.QuadElem.minimal_polynomial", "calls"),
    ("quadfield.QuadElem.embed.self_ms", "quadfield.QuadElem.embed", "self_ms"),
    ("analytic.j_of_lattice.calls", "analytic.j_of_lattice", "calls"),
    ("analytic.j_of_lattice.self_ms", "analytic.j_of_lattice", "self_ms"),
    ("analytic.fundamental_domain_exact.self_ms", "analytic.fundamental_domain_exact", "self_ms"),
    ("analytic.hcp.self_ms", "analytic.hcp", "self_ms"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every metric a traced run prints, with its unit, in output order."""
    names = [("cli.import_ms", "ms"), ("cli.import.mpmath_ms", "ms")]
    names += [(f"cli.cmd.{c}.wall_ms", "ms") for c in COMMANDS]
    names += [
        ("cli.cache.hit_ms", "ms"),
        ("cli.cache.miss_ms", "ms"),
        ("cli.cache.hit_ratio", "ratio"),
        ("cli.cache.bytes", "bytes"),
    ]
    names += [(m, "calls/op" if kind == "calls" else "ms/op") for m, _, kind in PER_OP]
    names += [
        ("jacobians.phi.identity_ratio", "ratio"),
        ("analytic.hcp.rounds_mean", "rounds"),
        ("analytic.hcp.final_prec_bits_mean", "bits"),
        ("analytic.hcp.useful_j_ratio", "ratio"),
    ]
    names += [(f"analytic.j_of_lattice.ms_per_call.b{b}", "ms") for b in J_PROBE_BITS]
    names.append(("trace.overhead_ratio", "ratio"))
    return names


# -- environment ----------------------------------------------------------------


def tree_digest() -> str:
    """sha256 over the paths and bytes of every file under src/."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "commit": commit(),
        "src_sha256": tree_digest(),
    }


# -- machine speed -------------------------------------------------------------------
#
# Shared machines change speed by tens of percent over seconds to minutes, as
# neighbours come and go, and process creation can slow down by a factor of
# two while arithmetic does not.  A fixed reference kernel is timed at a
# steady cadence through the loop.  Each op's wall time is scaled by the
# kernel's nominal time over its median time in a window around the op,
# so times read as if the kernel ran at its nominal time throughout.  The
# kernels never touch weightjac, so a change to the program cannot move the
# scale.  In-process workloads use the in-process kernel; cli-mix, whose ops
# are interpreter launches, uses a launch of the interpreter that imports
# mpmath and the standard modules the CLI imports (reading many module files
# is where launches slow down most).

_REF_MODULUS = (1 << 2048) - 159
_LAUNCH = "import argparse, dataclasses, fractions, itertools, json, pathlib, re, mpmath"


@dataclass(frozen=True)
class _Item:
    a: int
    b: int
    c: Fraction


def inprocess_kernel() -> float:
    """Wall time of hashing frozen dataclasses, Fraction arithmetic and a 2048-bit power.

    Object churn tracks the exact-algebra layers, big integers the j kernel.
    """
    start = perf_counter()
    table = {}
    for i in range(1500):
        item = _Item(i, i * 7 % 13, Fraction(i % 17 + 1, 3))
        table[item] = (item, i)
    sum(1 for item in table if item.a % 3 == 0)
    for i in range(1, 300):
        (Fraction(i, i + 7) * Fraction(i + 1, 3) + Fraction(1, i)).numerator % 7
    pow(7, (1 << 80) + 12345, _REF_MODULUS)
    return perf_counter() - start


def launch_kernel() -> float:
    """Wall time of a fresh interpreter that imports mpmath and a few standard modules."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", _LAUNCH], cwd=ROOT, check=True, timeout=60)
    return perf_counter() - start


# name -> (kernel, seconds between samples, window around an op, nominal kernel seconds)
KERNELS = {
    "in-process": (inprocess_kernel, 0.4, 1.0, 0.010),
    "launch": (launch_kernel, 1.0, 4.0, 0.15),
}


class SpeedLog:
    """Reference-kernel timings taken through a pass: (time taken, kernel seconds)."""

    def __init__(self, kernel: str):
        self.kernel, self.every, self.window, self.nominal = KERNELS[kernel]
        self.samples: list[tuple[float, float]] = []
        self.sample()

    def sample(self) -> None:
        self.samples.append((perf_counter(), self.kernel()))

    def due(self) -> bool:
        return perf_counter() - self.samples[-1][0] >= self.every

    def scale(self, start: float, end: float) -> float:
        """Factor that maps a wall time spent in [start, end] to nominal speed."""
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, start - self.window)
        hi = bisect.bisect_right(times, end + self.window)
        near = [k for _, k in self.samples[lo:hi]]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return self.nominal / statistics.median(near)


# -- measurement --------------------------------------------------------------------


@dataclass
class Pass:
    """One closed-loop pass: records are (op, output or exception, wall seconds)."""

    records: list
    scaled: list[float]  # each op's wall seconds at nominal machine speed
    elapsed: float
    next_index: int

    @property
    def raw_rate(self) -> float:
        return len(self.records) / self.elapsed

    @property
    def rate(self) -> float:
        return len(self.scaled) / sum(self.scaled)


def setup(workload: str, seed: int, workdir: Path):
    """Import the measured tree and build the workload's inputs.

    Returns (workload object, module, set-up seconds at nominal speed).
    """
    before = min(inprocess_kernel(), inprocess_kernel())
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import weightjac

    where = Path(weightjac.__file__).resolve()
    if ROOT not in where.parents:
        raise SystemExit(f"weightjac imported from {where}, not from {SRC}")
    module = importlib.import_module(WORKLOADS[workload])
    wl = module.Workload(seed, workdir)
    elapsed = perf_counter() - start
    nominal = KERNELS["in-process"][-1]
    return wl, module, elapsed * nominal / ((before + inprocess_kernel()) / 2)


def measure(wl, kernel: str, start: int, seconds: float, max_ops: int | None) -> Pass:
    """Closed loop over wl.ops from index start, for seconds or max_ops ops.

    kernel names the reference kernel in KERNELS that gauges machine speed.
    """
    records, spans = [], []
    keep = getattr(wl, "keep", lambda op, out: out)
    speed = SpeedLog(kernel)
    index = start
    began = perf_counter()
    deadline = began + seconds
    while perf_counter() < deadline and (max_ops is None or len(records) < max_ops):
        if speed.due():
            speed.sample()
        op = wl.ops[index % len(wl.ops)]
        index += 1
        t0 = perf_counter()
        try:
            out = wl.execute(op)
        except Exception as exc:  # counted as a failed op, reported after the run
            out = exc
        t1 = perf_counter()
        records.append((op, keep(op, out), t1 - t0))
        spans.append((t0, t1))
    elapsed = perf_counter() - began
    speed.sample()
    scaled = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans]
    return Pass(records, scaled, elapsed, index)


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(wl, run: Pass) -> float:
    """Peak resident memory: of the CLI children on cli-mix, else of this process."""
    if hasattr(wl, "child_peak_rss_mb"):
        return wl.child_peak_rss_mb(run.records)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def setup_samples(workload: str, seed: int, first: float) -> list[float]:
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# -- probes for the traced run ---------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("WJ_CACHE", None)
    return env


def import_probe() -> dict:
    """Fresh-interpreter import cost of weightjac.cli, and mpmath's share of it."""
    env = _child_env()

    def wall(code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60)
        return perf_counter() - t0

    bare, full, mpmath_ms = [], [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(wall("pass"))
        full.append(wall("import weightjac.cli"))
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import weightjac.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        for line in out.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "mpmath":
                mpmath_ms.append(int(fields[1]) / 1000)
    return {
        "cli.import_ms": (statistics.median(full) - statistics.median(bare)) * 1000,
        "cli.import.mpmath_ms": statistics.median(mpmath_ms),
    }


def j_probe(seed: int) -> dict:
    """Median ms per j_of_lattice call at each precision, on seeded lattices."""
    import random

    import inputs
    import weightjac
    from weightjac import analytic

    rng = random.Random(f"j-probe:{seed}")
    lattices = [e.lattice() for e in inputs.random_curves(rng, J_PROBE_LATTICES, weightjac)]
    out = {}
    for bits in J_PROBE_BITS:
        times = []
        for lat in lattices:
            t0 = perf_counter()
            analytic.j_of_lattice(lat, bits)
            times.append((perf_counter() - t0) * 1000)
        out[f"analytic.j_of_lattice.ms_per_call.b{bits}"] = statistics.median(times)
    return out


# -- metrics ------------------------------------------------------------------------


def end_to_end(run: Pass, tail_q: int, rss: float, setup_s: float) -> dict:
    ms = [dt * 1000 for dt in run.scaled]
    return {
        "ops_per_s": run.rate,
        "op_ms.p50": statistics.median(ms),
        "op_ms.tail": percentile(ms, tail_q),
        "peak_rss_mb": rss,
        "setup_s": setup_s,
    }


def cli_metrics(run: Pass, wl) -> dict:
    """Per-command wall time and cache behaviour, from the untraced pass of cli-mix."""
    out = {}
    by_cmd: dict[str, list[float]] = {}
    hit_ms, miss_ms, expected, observed = [], [], 0, 0
    for (op, res, _), dt in zip(run.records, run.scaled):
        by_cmd.setdefault(op.cmd, []).append(dt * 1000)
        if isinstance(res, Exception) or res.cache_observed_hit is None:
            continue
        (hit_ms if res.cache_observed_hit else miss_ms).append(dt * 1000)
        if res.cache_expected_hit:
            expected += 1
            observed += res.cache_observed_hit
    for cmd in COMMANDS:
        out[f"cli.cmd.{cmd}.wall_ms"] = statistics.median(by_cmd[cmd]) if cmd in by_cmd else 0.0
    out["cli.cache.hit_ms"] = statistics.median(hit_ms) if hit_ms else 0.0
    out["cli.cache.miss_ms"] = statistics.median(miss_ms) if miss_ms else 0.0
    out["cli.cache.hit_ratio"] = observed / expected if expected else 0.0
    out["cli.cache.bytes"] = wl.cache.stat().st_size if wl.cache.exists() else 0
    return out


def traced_metrics(tracer, ops: int) -> dict:
    out = {}
    for metric, span, kind in PER_OP:
        total = tracer.calls(span) if kind == "calls" else tracer.self_ms(span)
        out[metric] = total / ops
    phi_calls = tracer.calls("jacobians.phi")
    out["jacobians.phi.identity_ratio"] = (
        tracer.counters["jacobians.phi.identity"] / phi_calls if phi_calls else 0.0
    )
    c = tracer.counters
    polys = c["analytic.hcp.polys"]
    out["analytic.hcp.rounds_mean"] = c["analytic.hcp.rounds"] / polys if polys else 0.0
    out["analytic.hcp.final_prec_bits_mean"] = c["analytic.hcp.final_prec_bits"] / polys if polys else 0.0
    out["analytic.hcp.useful_j_ratio"] = (
        c["analytic.hcp.roots"] / c["analytic.hcp.j_evals"] if c["analytic.hcp.j_evals"] else 0.0
    )
    return out


# -- main -------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, help="stop after this many ops (smoke runs)")
    parser.add_argument("--out", help="also write the full run record (env, metrics, spans) here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # a terminated run still removes its scratch directory and kills its child
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not (SRC / "weightjac" / "__init__.py").is_file():
        print(f"no weightjac source tree at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    work_root = ROOT / ".perfbench-work"
    workdir = work_root / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(args, workdir: Path) -> int:
    wl, module, setup_s = setup(args.workload, args.seed, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    env = environment()
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = measure(wl, module.REFERENCE_KERNEL, 0, seconds, args.max_ops)
    rss = peak_rss_mb(wl, untraced)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    record = {"env": env, "summary": summary}
    problems = [v for v in wl.check(untraced.records) if v is not None]  # one per failed op
    attempted = len(untraced.records)
    run_problems = []

    if args.trace:
        from tracer import Tracer

        layer = cli_metrics(untraced, wl) if args.workload == "cli-mix" else {}
        tracer = Tracer()
        if hasattr(wl, "begin_pass"):
            wl.begin_pass()
        wl.tracer = tracer
        with tracer:
            traced = measure(wl, module.REFERENCE_KERNEL, untraced.next_index, seconds, args.max_ops)
        wl.tracer = None
        problems += [v for v in wl.check(traced.records) if v is not None]
        attempted += len(traced.records)
        layer.update(traced_metrics(tracer, len(traced.records)))
        layer.update(import_probe())
        layer.update(j_probe(args.seed))
        layer["trace.overhead_ratio"] = untraced.rate / traced.rate
        idle = [s for s in module.EXPECTED_CALLS if tracer.calls(s) == 0]
        if idle:
            run_problems.append(f"no calls recorded for {idle} on {args.workload}")
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit} for name, unit in per_layer_names()}
        record["spans"] = tracer.to_record()
        summary.update(ops=len(traced.records), untraced_ops=len(untraced.records))
    else:
        samples = setup_samples(args.workload, args.seed, setup_s)
        values = end_to_end(untraced, module.TAIL_PERCENTILE, rss, statistics.median(samples))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        summary.update(
            ops=len(untraced.records),
            elapsed_s=untraced.elapsed,
            raw_ops_per_s=untraced.raw_rate,
            raw_op_ms_p50=statistics.median(dt * 1000 for _, _, dt in untraced.records),
            speed_scale_median=statistics.median(
                s / r for s, (_, _, r) in zip(untraced.scaled, untraced.records) if r > 0
            ),
            tail_percentile=module.TAIL_PERCENTILE,
            samples_beyond_tail=sum(dt * 1000 > values["op_ms.tail"] for dt in untraced.scaled),
            setup_samples_s=samples,
        )

    failed = len(problems)
    summary.update(failed=failed, failed_ratio=failed / attempted if attempted else 0.0)
    env["loadavg_end"] = list(os.getloadavg())
    for message in run_problems + problems[:10]:
        print(f"check failed: {message}", file=sys.stderr)
    correct = not problems and not run_problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(env))
    print("summary " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
