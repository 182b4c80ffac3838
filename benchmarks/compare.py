"""Compare two sets of benchmark records.

    python3 benchmarks/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by ``run.py --out``, typically ten seeds per
workload.  For every workload and end-to-end metric it prints each side's
median and quartiles (statistics.quantiles, n=4), the ratio new/base with its
base, and a verdict against the metric's bound in BENCHMARK.json:

* ``unresolved`` -- a side's spread, (q3 - q1) / median, exceeds the bound,
  unless every new run beats every base run;
* ``worse`` -- the new median is worse than the base median by more than
  the bound;
* ``better`` or ``within bound`` otherwise.

For records made with --trace 1 it prints each per-layer metric's medians and
the ratio new/base with its base.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    """{(trace, workload): {metric: [values]}} from a JSON-lines file."""
    table: dict = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            key = (record["provenance"]["trace"], record["workload"])
            for name, value in record["metrics"].items():
                table[key][name].append(value)
    return table


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def verdict(base, new, bound, better) -> str:
    sign = 1.0 if better == "lower" else -1.0
    always_better = max(sign * v for v in new) < min(sign * v for v in base)
    if max(spread(base), spread(new)) > bound and not always_better:
        return "unresolved"
    b, n = statistics.median(base), statistics.median(new)
    change = sign * (n - b) / abs(b) if b else 0.0
    if change > bound:
        return "worse"
    return "better" if change < 0 else "within bound"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(argv[0]), load(argv[1])

    print("end-to-end: workload metric | base median [q1, q3] (n) | new median [q1, q3] (n) | new/base | verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            b = base.get((0, workload), {}).get(metric["name"])
            n = new.get((0, workload), {}).get(metric["name"])
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            print(
                f"{workload} {metric['name']} ({metric['unit']}) | "
                f"{_fmt(bq[1])} [{_fmt(bq[0])}, {_fmt(bq[2])}] ({len(b)}) | "
                f"{_fmt(nq[1])} [{_fmt(nq[0])}, {_fmt(nq[2])}] ({len(n)}) | "
                f"{nq[1] / bq[1]:.3f} of base {_fmt(bq[1])} | "
                f"{verdict(b, n, metric['bound'], metric['better'])} (bound {metric['bound']})"
            )

    print()
    print("per-layer: workload metric | base median | new median | new/base")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["per_layer"]:
            b = base.get((1, workload), {}).get(metric["name"])
            n = new.get((1, workload), {}).get(metric["name"])
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            ratio = f"{nm / bm:.3f} of base {_fmt(bm)}" if bm else f"n/a (base {_fmt(bm)})"
            print(f"{workload} {metric['name']} ({metric['unit']}) | {_fmt(bm)} | {_fmt(nm)} | {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
