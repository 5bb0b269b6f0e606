"""Compare two sets of saved benchmark runs (``run.py --out FILE``).

    python3 perfbench/compare.py --base base/*.json --new new/*.json

For every workload and end-to-end metric it prints each side's median and
quartiles, the change of the medians, and a verdict against the metric's
bound in BENCHMARK.json: "worse" when the new median is worse by more than
the bound, "unresolved" when the base runs spread wider than the bound (and
not every new run beats every base run), otherwise "ok".

Runs are only comparable on one mpmath backend (gmpy changes every number
of the analytic layer), so a mix of backends is refused with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _load(paths: list[str]) -> dict[str, list[dict]]:
    by_workload = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text())
        if record["summary"]["trace"]:
            continue  # traced runs carry per-layer metrics only
        by_workload[record["summary"]["workload"]].append(record)
    return by_workload


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)

    backends = {r["env"]["mpmath_backend"] for side in (base, new) for rs in side.values() for r in rs}
    if len(backends) > 1:
        print(f"refusing to compare runs on different mpmath backends: {sorted(backends)}", file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text())
    status = 0
    for workload in sorted(set(base) & set(new)):
        print(f"{workload}: {len(base[workload])} base runs, {len(new[workload])} new runs")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "higher" else -1
            b = [r["result"]["metrics"][name]["value"] for r in base[workload]]
            n = [r["result"]["metrics"][name]["value"] for r in new[workload]]
            bq, nq = _quartiles(b), _quartiles(n)
            change = (nq[1] - bq[1]) / bq[1]
            spread = (bq[2] - bq[0]) / bq[1]
            if -sign * change > bound:
                verdict = "worse"
                status = 1
            elif spread > bound and not min(sign * x for x in n) > max(sign * x for x in b):
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"  {name:<12} base {bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]"
                f"  new {nq[1]:.4g} [{nq[0]:.4g}, {nq[2]:.4g}]"
                f"  change {change:+.1%} (bound {bound:.0%})  {verdict}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
