"""The pennycontact benchmark: one workload, one seed, one JSON result.

    python3 benchmarks/run.py --workload figures|solve_sweep|verify \\
        --seed N --seconds S --trace 0|1 [--out results.jsonl]

Run from anywhere; the library is imported from this checkout's ``src``.
With --trace 0 it prints every end-to-end metric of BENCHMARK.json, with
--trace 1 every per-layer metric.  setup_s is the median cold start of fresh
interpreters that import ``pennycontact.cli``, half started before the
workload and half after it; the rest comes from a child
process (worker.py) that runs the workload with BLAS pinned to one thread.
Lines before the last start with '#' and give the provenance, the failure
ratio, the op-tail percentile and every accuracy-contract miss.  The last
line is {"correct", "attempted", "failed", "metrics"}.  --out appends the
full record, provenance included, to a JSON-lines file for compare.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import ROOT, CheckoutError, child_env, require_source, source_digest

HERE = Path(__file__).resolve().parent
SETUP_ARGV = [sys.executable, "-c", "import pennycontact.cli"]
# Half of the cold starts run before the workload and half after it, so that
# host speed drift during the run is averaged into the median.
SETUP_SAMPLES = 12
WORKER_TIMEOUT_S = 150


def setup_samples(count: int) -> list[float]:
    """Wall times of fresh interpreters importing the CLI module."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(SETUP_ARGV, env=child_env(), check=True)
        samples.append(time.perf_counter() - start)
    return samples


def run_worker(args) -> dict:
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(argv, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], stdout=subprocess.PIPE, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)

    try:
        require_source()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if not args.trace:
        subprocess.run(SETUP_ARGV, env=child_env(), check=True)  # byte-compiles the sources once
        setup = setup_samples(SETUP_SAMPLES // 2)
    record = run_worker(args)
    if not args.trace:
        setup += setup_samples(SETUP_SAMPLES // 2)
        record["metrics"]["setup_s"] = statistics.median(setup)
        record["samples"]["setup_s"] = setup
    record["provenance"].update(
        {"commit": git_commit(), "source_sha256": source_digest(), "seed": args.seed, "trace": args.trace}
    )

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    attempted, failed = record["attempted"], record["failed"]

    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(
        f"# {args.workload} seed={args.seed}: attempted={attempted} failed={failed} "
        f"fail_ratio={failed / attempted:.4f} contract_misses_per_pass={record['metrics']['bench.contract_misses']}"
    )
    if "op_tail" in record:
        print(f"# op_tail_ms is p{record['op_tail']['percentile']:.1f} of {record['op_tail']['samples']} op samples")
    for line in record["failures"]:
        print(f"# FAILED {line}")
    for line in record["contract_misses"]:
        print(f"# contract miss {line}")
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
