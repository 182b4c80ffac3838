"""Run one workload closed-loop in this process and print its measurements.

run.py starts this file as a child process with BLAS pinned to one thread:

    python3 benchmarks/worker.py --workload W --seed N --seconds S --trace 0|1

After one warm-up pass it repeats full passes over the workload's operation
list until S seconds have passed, checking every output.  With --trace 0 the
library is left untouched and the end-to-end timings are taken.  With
--trace 1 untimed and traced passes alternate: the traced ones give the
per-layer metrics, the difference of the two gives the tracing overhead, and
the spans of the last traced pass are written under .bench_out/.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

from checkout import ROOT, import_library

SPAN_DIR = ROOT / ".bench_out"
MAX_FAILURES = 20  # distinct failure details kept in the record


def run_pass(ops):
    """Run every op once; return pass seconds, per-op seconds and outputs."""
    latencies, outputs = [], []
    clock = time.perf_counter
    begin = clock()
    for op in ops:
        start = clock()
        try:
            out = op.run()
        except Exception as exc:  # a raising op is a failed op, not a failed benchmark
            out = exc
        latencies.append(clock() - start)
        outputs.append(out)
    return clock() - begin, latencies, outputs


class Tally:
    """Attempted and failed ops, contract misses, and emitted rows and bytes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, None] = {}
        self.misses: dict[str, None] = {}
        self.misses_per_pass: list[int] = []
        self.rows_per_pass: list[int] = []
        self.bytes_per_pass: list[int] = []

    def check(self, ops, outputs) -> None:
        misses = rows = nbytes = 0
        for op, out in zip(ops, outputs):
            outcome = op.outcome(out)
            self.attempted += 1
            if not outcome.ok:
                self.failed += 1
                if len(self.failures) < MAX_FAILURES:
                    self.failures.setdefault(outcome.detail, None)
            misses += len(outcome.misses)
            rows += outcome.rows
            nbytes += outcome.bytes
            for miss in outcome.misses:
                self.misses.setdefault(f"{op.name}: {miss}", None)
        self.misses_per_pass.append(misses)
        self.rows_per_pass.append(rows)
        self.bytes_per_pass.append(nbytes)


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with at least 10 samples beyond it.

    With 10 samples or fewer no rank qualifies, and the maximum is returned.
    """
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    rank = len(ordered) - 11  # 0-based; ordered[rank + 1:] holds 10 samples
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def provenance() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def measure(ops, seconds, tally) -> dict:
    walls, latencies = [], []
    start = time.perf_counter()
    while True:
        wall, lat, outputs = run_pass(ops)
        tally.check(ops, outputs)
        walls.append(wall)
        latencies.extend(lat)
        if time.perf_counter() - start >= seconds:
            break
    tail, percentile = tail_latency(latencies)
    return {
        "metrics": {
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "op_tail": {"percentile": percentile, "samples": len(latencies)},
        "samples": {"wall_s": walls, "op_ms": [1e3 * v for v in latencies]},
    }


def measure_traced(ops, seconds, tally, workloads, spans_path) -> dict:
    from tracing import Tracer, is_time, summarize

    untimed, summaries = [], []
    start = time.perf_counter()
    while True:
        wall, _, outputs = run_pass(ops)
        tally.check(ops, outputs)
        untimed.append(wall)
        tracer = Tracer(extra_consumers=[workloads])
        with tracer:
            _, _, outputs = tracer.wrap("bench.pass", run_pass)(ops)
        tally.check(ops, outputs)
        summaries.append(summarize(tracer))
        if time.perf_counter() - start >= seconds:
            break
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    # One whole pass, the one with the median traced wall time, so that its
    # layer self times add up to its wall time exactly.
    median_wall = statistics.median_low(s["trace.wall_s"] for s in summaries)
    metrics = dict(next(s for s in summaries if s["trace.wall_s"] == median_wall))
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untimed)
    metrics["cli.rows_emitted"] = tally.rows_per_pass[0]
    metrics["cli.bytes_written"] = tally.bytes_per_pass[0]
    count_keys = [k for k in summaries[0] if not is_time(k)]
    return {
        "metrics": metrics,
        "counts_repeat": all(s[k] == summaries[0][k] for s in summaries for k in count_keys),
        "traced_passes": len(summaries),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import workloads

    ops = workloads.build(args.workload, args.seed)
    tally = Tally()
    _, _, outputs = run_pass(ops)  # warm-up
    tally.check(ops, outputs)

    if args.trace:
        spans = SPAN_DIR / f"spans_{args.workload}_seed{args.seed}.txt.gz"
        result = measure_traced(ops, args.seconds, tally, workloads, spans)
    else:
        result = measure(ops, args.seconds, tally)
    result["metrics"]["bench.contract_misses"] = tally.misses_per_pass[0]
    result["metrics"]["bench.fail_ratio"] = tally.failed / tally.attempted
    result.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failures": list(tally.failures),
            "contract_misses": list(tally.misses),
            "provenance": provenance(),
        }
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
