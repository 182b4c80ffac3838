"""Benchmark workloads: seeded inputs, operations and their correctness checks.

Each workload is a list of operations run closed-loop by one client in one
process.  An operation returns its raw output; ``check`` turns that output
into an Outcome.  The accuracy contract is judged in two tiers:

* a value within tolerance of its reference (or contract threshold) is fine;
* a value outside tolerance but inside the truncation tail bound
  ``lam**(2N)`` (or ``lam**K`` for the recurrence) is a *contract miss*: the
  library's own truncation predicts it, so it is counted and listed, and the
  operation still succeeds;
* anything else -- an exception, a nonzero exit code, a non-finite value, a
  residual above 1e-12, or an error larger than the tail bound -- fails the
  operation.

The module imports ``pennycontact`` at import time, so ``src`` must already be
on ``sys.path`` (worker.py and the tests arrange that).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from pennycontact import cli, fields, models

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "figures_reference.json"

# Mixed tolerance for figure values: loose enough for a reordered sum
# (<= 1.1e-15 absolute) and near-zero displacement rows (1.4e-17 absolute),
# tight enough that a 1e-9 drift of any tabulated value (|v| < 100) fails.
FIGURE_ATOL = 1e-13
FIGURE_RTOL = 1e-11

# The library's accuracy contract.
CONTINUITY_TOL = 1e-9
RESIDUAL_TOL = 1e-12
AGREEMENT_TOL = 1e-9

DELTA_OVER_A = 0.05
RECURRENCE_K = 120

# The five table-producing CLI calls that together emit the tables of
# `pennycontact figures` at the reference parameters.
FIGURE_CALLS = (
    ("stress", ["stress", "--lambda", "0.5", "--delta-over-a", "0.05"]),
    ("sif", ["sif", "--lambda", "0.5", "--delta-over-a", "0.05"]),
    ("displacement_lam030", ["displacement", "--lambda", "0.3", "--delta-over-a", "0.05"]),
    ("displacement_lam050", ["displacement", "--lambda", "0.5", "--delta-over-a", "0.05"]),
    ("displacement_lam070", ["displacement", "--lambda", "0.7", "--delta-over-a", "0.05"]),
)

SOLVE_SWEEP_CASES = 40  # a quarter of them at N = 240, the rest at N = 60
VERIFY_CASES = 12


@dataclass
class Outcome:
    """Result of checking one operation's output."""

    ok: bool
    misses: list = field(default_factory=list)
    detail: str = ""
    rows: int = 0
    bytes: int = 0


@dataclass
class Op:
    """One closed-loop operation: a callable and the check of its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]

    def outcome(self, out) -> Outcome:
        """Check an output; an exception caught from run() fails the op."""
        if isinstance(out, Exception):
            return Outcome(False, detail=f"{self.name}: raised {type(out).__name__}: {out}")
        return self.check(out)


class CliOutput:
    """Exit code and captured standard output of one `cli.main` call."""

    def __init__(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.code = cli.main(list(argv))
        self.text = buf.getvalue()


def judge(error: float, tol: float, tail_bound: float) -> str:
    """'ok' within tol, 'miss' when only the truncation tail explains it, else 'fail'."""
    if error <= tol:
        return "ok"
    if error <= tail_bound:
        return "miss"
    return "fail"


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------


def parse_tables(text: str) -> list[dict]:
    """Split CSV emission into tables of header dict, columns and float rows."""
    tables = []
    header: dict = {}
    current = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# "):
            if current is not None:
                tables.append(current)
                current = None
                header = {}
            key, _, value = line[2:].partition("=")
            header[key] = value
        elif current is None:
            current = {"header": header, "columns": line.split(","), "rows": []}
        else:
            current["rows"].append([float(v) for v in line.split(",")])
    if current is not None:
        tables.append(current)
    return tables


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def _row_lambda(table: dict, row: list) -> float:
    """Radius ratio a row was solved at: its own column for the SIF sweep."""
    if table["columns"][0] == "lambda":
        return row[0]
    return float(table["header"]["lambda"])


def check_figure_table(name: str, out: CliOutput, reference: dict) -> Outcome:
    """Compare one CLI emission with the converged reference tables."""
    if out.code != 0:
        return Outcome(False, detail=f"{name}: exit code {out.code}")
    got = parse_tables(out.text)
    want = reference["tables"][name]
    rows = sum(len(t["rows"]) for t in got)
    nbytes = len(out.text.encode())
    if len(got) != len(want):
        return Outcome(False, detail=f"{name}: {len(got)} tables, want {len(want)}", rows=rows, bytes=nbytes)
    misses = []
    for k, (g, w) in enumerate(zip(got, want)):
        if g["columns"] != w["columns"] or len(g["rows"]) != len(w["rows"]):
            return Outcome(False, detail=f"{name}[{k}]: shape differs from reference", rows=rows, bytes=nbytes)
        n_trunc = int(g["header"]["truncation_N"])
        for i, (grow, wrow) in enumerate(zip(g["rows"], w["rows"])):
            tail = _row_lambda(g, grow) ** (2 * n_trunc)
            for j, (gv, wv) in enumerate(zip(grow, wrow)):
                error = abs(gv - wv) if math.isfinite(gv) else math.inf
                verdict = judge(error, FIGURE_ATOL + FIGURE_RTOL * abs(wv), tail * max(abs(wv), FIGURE_ATOL))
                if verdict == "fail":
                    return Outcome(
                        False,
                        detail=f"{name}[{k}] row {i} {g['columns'][j]}: {gv!r} vs reference {wv!r}",
                        rows=rows,
                        bytes=nbytes,
                    )
                if verdict == "miss":
                    misses.append(
                        f"{name}[{k}] row {i} {g['columns'][j]}: rel error "
                        f"{error / abs(wv):.2e} at lambda={_row_lambda(g, grow):.4f}, N={n_trunc}"
                    )
    return Outcome(True, misses=misses, rows=rows, bytes=nbytes)


def figures_ops(seed: int) -> list[Op]:
    """The paper's figure set; the inputs are fixed, so the seed is unused."""
    reference = load_reference()
    return [
        Op(
            name,
            lambda argv=argv: CliOutput(argv),
            lambda out, name=name: check_figure_table(name, out, reference),
        )
        for name, argv in FIGURE_CALLS
    ]


# ----------------------------------------------------------------------
# solve_sweep
# ----------------------------------------------------------------------


def _stratified(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    """Uniform draws on [lo, hi), one per equal-width stratum, in random order."""
    return lo + (hi - lo) * (rng.permutation(count) + rng.random(count)) / count


def solve_sweep_inputs(seed: int) -> list[dict]:
    """Fresh geometries: lam on (0.05, 0.95), lam0/lam1 on [0, 0.95), N in {60, 240}.

    Exactly a quarter of the cases use N = 240.  Within each N group the
    ratios are stratified, so the cost mix of a pass barely depends on the
    seed while every value of the ranges stays reachable.
    """
    rng = np.random.default_rng([seed, 0x5E1])
    quarter = SOLVE_SWEEP_CASES // 4
    cases = []
    for n_trunc, size in ((240, quarter), (60, SOLVE_SWEEP_CASES - quarter)):
        lam = _stratified(rng, size, 0.05, 0.95)
        ratio = _stratified(rng, size, 0.0, 0.95)
        for k in range(size):
            u = rng.random(3)
            cases.append(
                {
                    "lam": float(lam[k]),
                    "ratio": float(ratio[k]),
                    "N": n_trunc,
                    "r_over_b": float(u[0]),
                    "r_outer": float(4.0 - 3.0 * u[1]),
                    "r_disp": float(lam[k] + (1.0 - lam[k]) * (1.0 - u[2])),
                }
            )
    return [cases[i] for i in rng.permutation(len(cases))]


def run_case(case: dict) -> dict:
    """One fresh geometry through solvers, residuals and one point of each field."""
    delta_star = 2.0 * DELTA_OVER_A / math.sqrt(math.pi)
    lam, n_trunc = case["lam"], case["N"]
    disc = models.DiscProblem(lam=lam, delta_star=delta_star)
    red = models.solve_disc_reduction(disc, n_trunc)
    _, rec = models.solve_disc_recurrence(disc, n_trunc, RECURRENCE_K)
    annulus = models.AnnulusProblem(lam0=case["ratio"] * lam, lam1=lam, delta_star=delta_star)
    ann = models.solve_annulus_reduction(annulus, n_trunc)
    return {
        "disc_residual": models.system_residual(disc, red),
        "annulus_residual": models.system_residual(annulus, ann),
        "agreement": float(np.abs(red.A_plus - rec.A_plus).max()),
        "coefficient_scale": float(np.abs(red.A_plus).max()),
        "continuity": max(fields.continuity_defects(disc, red)),
        "sif": fields.sif_exact(disc, red).normalized,
        "stress_contact": fields.stress_contact(disc, red, case["r_over_b"]),
        "stress_outer": fields.stress_outer(disc, red, case["r_outer"]),
        "displacement": fields.displacement(disc, red, case["r_disp"]),
    }


def check_case(case: dict, out: dict) -> Outcome:
    """Judge one case against the accuracy contract."""
    label = f"lam={case['lam']:.4f} ratio={case['ratio']:.4f} N={case['N']}"
    values = ("sif", "stress_contact", "stress_outer", "displacement")
    if not all(math.isfinite(out[k]) for k in values):
        return Outcome(False, detail=f"{label}: non-finite field value")
    for key in ("disc_residual", "annulus_residual"):
        if not out[key] <= RESIDUAL_TOL:
            return Outcome(False, detail=f"{label}: {key} {out[key]:.2e} > {RESIDUAL_TOL:g}")
    lam, n_trunc = case["lam"], case["N"]
    # Truncation tails: O(lam**2N) for the reduction, O(lam**K) for the
    # recurrence, scaled by the size of the quantity they perturb.
    tails = {
        "continuity": (CONTINUITY_TOL, lam ** (2 * n_trunc) * DELTA_OVER_A),
        "agreement": (
            AGREEMENT_TOL,
            max(lam ** (2 * n_trunc), lam**RECURRENCE_K) * out["coefficient_scale"],
        ),
    }
    misses = []
    for key, (tol, tail) in tails.items():
        verdict = judge(out[key], tol, tail)
        if verdict == "fail":
            return Outcome(False, detail=f"{label}: {key} {out[key]:.2e} beyond tail bound {tail:.2e}")
        if verdict == "miss":
            misses.append(f"{label}: {key} {out[key]:.2e} > {tol:g}")
    return Outcome(True, misses=misses)


def solve_sweep_ops(seed: int) -> list[Op]:
    return [
        Op(f"case{i:02d}", lambda case=case: run_case(case), lambda out, case=case: check_case(case, out))
        for i, case in enumerate(solve_sweep_inputs(seed))
    ]


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def verify_inputs(seed: int) -> list[tuple[float, float, float]]:
    """(lam, lam0, lam1) triples: lam, lam1 on (0.05, 0.95), lam0/lam1 on (0, 0.95)."""
    rng = np.random.default_rng([seed, 0x7E5])
    lam = _stratified(rng, VERIFY_CASES, 0.05, 0.95)
    lam1 = _stratified(rng, VERIFY_CASES, 0.05, 0.95)
    ratio = _stratified(rng, VERIFY_CASES, 0.0, 0.95)
    return [(float(a), float(r * b), float(b)) for a, r, b in zip(lam, ratio, lam1)]


def verify_argv(triple) -> list[str]:
    lam, lam0, lam1 = triple
    return ["verify", "--lambda", repr(lam), "--lambda0", repr(lam0), "--lambda1", repr(lam1), "--format", "json"]


def check_verify(triple, out: CliOutput) -> Outcome:
    nbytes = len(out.text.encode())
    try:
        report = json.loads(out.text)
    except json.JSONDecodeError:
        return Outcome(False, detail=f"{triple}: output is not JSON (exit {out.code})", bytes=nbytes)
    rows = len(report.get("checks", []))
    failed = [c["name"] for c in report.get("checks", []) if not c["passed"]]
    if out.code != 0 or failed or not report.get("passed"):
        return Outcome(False, detail=f"{triple}: exit {out.code}, failed checks {failed}", rows=rows, bytes=nbytes)
    return Outcome(True, rows=rows, bytes=nbytes)


def verify_ops(seed: int) -> list[Op]:
    return [
        Op(
            f"verify{i:02d}",
            lambda triple=triple: CliOutput(verify_argv(triple)),
            lambda out, triple=triple: check_verify(triple, out),
        )
        for i, triple in enumerate(verify_inputs(seed))
    ]


OP_LISTS = {
    "figures": figures_ops,
    "solve_sweep": solve_sweep_ops,
    "verify": verify_ops,
}


def build(workload: str, seed: int) -> list[Op]:
    if workload not in OP_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(OP_LISTS)}")
    return OP_LISTS[workload](seed)
