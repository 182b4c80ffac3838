"""Per-layer timings of the library, written to a BENCH_*.json file.

    python scripts/bench_layers.py --out BENCH_NEW.json [--repeats 30] [--append]

Times, one call per sample after one warm-up call, each of: the scalar f_m,
the one-point f_m seed, the f_m family on one point and on a grid, the disc
and annulus solves at N = 60 and 240 and the annulus solve at N = 1000,
the annulus solve at (lam1, t, N) = (0.864, 0.919, 240) and (0.99, 0.99,
1000) and the disc solve at (lam, N) = (0.99, 1000), where no row is cut
(each solve with both forcing caches cleared, so it builds its forcing as a
fresh problem does), the disc and annulus system residuals at N = 240 and
the annulus residual at N = 60 (each on the coefficients of a solve), the
continuity defects, one stress and one displacement point, one whole
solve_sweep case at N = 60 and at N = 240 (sweep_case), the displacement
on the figures' grid at lam = 0.5 (N = 60), the displacement and the
outer stress on the commands' 20 000-point grids at (lam, N) = (0.99,
1000), which run in chunks, whole in-process commands at
lam = 0.5 with their standard output captured (`displacement` at its
defaults, and `stress` and `displacement` at --grid-points 8, whose
recurrences run 8 and 16 points on floats), the SIF sweep at the default
grid (N = 60) and at 2000 rows (N = 240) with its series coefficients
cached, the uncached build of those coefficients for the default grid and
at (N, K) = (513, 1024) and (1025, 2048), the largest table a command
builds and one at twice its order, the uncached build of both Hankel-window
factors at N = 1000, and `verify`: one run_verification at its
defaults and its factorization checks alone at (lam, lam0, lam1, N) = (0.5,
0.2, 0.5, 60). BLAS is pinned to one thread before numpy is imported, so a
timing does not depend on how many cores the host lends the process. The
library is imported from this checkout's ``src``. Each entry holds the
median and the quartiles of its samples in microseconds, and the
tracemalloc peak of one more call in MiB, which counts numpy's buffers;
the file also
records the commit, whether the source differs from it, and the Python and
numpy versions.  With --append, a run adds its samples to those of the runs
already in the file (each entry keeps them, rounded to 0.1 us, and its
summary is over all of them), so two checkouts can be timed in alternated
rounds, a round of each in turn, rather than in one run each a minute apart:

    for round in 1 2 3; do
        python ../parent/scripts/bench_layers.py --append --out BENCH_parent.json
        python scripts/bench_layers.py --append --out BENCH_NEW.json
    done
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# BLAS reads its thread count when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from pennycontact import cli, fields, models, specfun, verify  # noqa: E402

DELTA_STAR = 2.0 * 0.05 / math.sqrt(math.pi)


def fresh(solve, problem, n: int):
    """A solve that builds its forcing, as every fresh problem does, past the forcing caches."""

    def call():
        models._disc_forcing.cache_clear()
        models._annulus_forcings.cache_clear()
        solve(problem, n)

    return call


def sweep_case(n: int):
    """One solve_sweep case at truncation n, as benchmarks/workloads.run_case runs it.

    Both solves and the recurrence, both residuals, the coefficient
    agreement, the continuity defects, the SIF and one point of each field,
    at lam = 0.5, lam0/lam1 = 0.4.  Every call nudges lam by 1e-9, so the
    problems are fresh, as the sweep's draws are: every cache keyed by a
    problem or a lambda misses, and every cache keyed by an index count
    serves.
    """
    calls = itertools.count()

    def call():
        lam = 0.5 + 1e-9 * next(calls)
        disc = models.DiscProblem(lam=lam, delta_star=DELTA_STAR)
        red = models.solve_disc_reduction(disc, n)
        _, rec = models.solve_disc_recurrence(disc, n, 120)
        annulus = models.AnnulusProblem(lam0=0.4 * lam, lam1=lam, delta_star=DELTA_STAR)
        ann = models.solve_annulus_reduction(annulus, n)
        models.system_residual(disc, red)
        models.system_residual(annulus, ann)
        float(np.abs(red.A_plus - rec.A_plus).max())
        max(fields.continuity_defects(disc, red))
        fields.sif_exact(disc, red)
        fields.stress_contact(disc, red, 0.5)
        fields.stress_outer(disc, red, 2.5)
        fields.displacement(disc, red, 0.75)

    return call


def cases() -> dict:
    """Name -> zero-argument callable, one per timing."""
    disc = {lam: models.DiscProblem(lam=lam, delta_star=DELTA_STAR) for lam in (0.5, 0.9)}
    annulus = models.AnnulusProblem(lam0=0.2, lam1=0.5, delta_star=DELTA_STAR)
    solved = {lam: models.solve_disc_reduction(p, 240) for lam, p in disc.items()}
    at_60 = models.solve_disc_reduction(disc[0.5], 60)
    grid = np.linspace(0.0, 0.99, 200)
    figure_grid = cli._displacement_grid(0.5, cli.RunConfig.grid_points)

    def command(*args):
        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([*args, "--lambda", "0.5"])

        return call

    timed = {
        "specfun.f_m m=240 x=0.25": lambda: specfun.f_m(240, 0.25),
        "specfun.f_m m=240 x=0.81": lambda: specfun.f_m(240, 0.81),
        "specfun._f_seed top=60 x=0.25 points=1": lambda: specfun._f_seed(60, np.array([0.25])),
        "specfun._f_family count=241 points=1": lambda: specfun._f_family(241, np.array([0.81])),
        "specfun._f_family count=241 points=200": lambda: specfun._f_family(241, grid),
    }
    for n in (60, 240):
        timed[f"models.solve_disc_reduction N={n}"] = fresh(models.solve_disc_reduction, disc[0.5], n)
        timed[f"models.solve_annulus_reduction N={n}"] = fresh(models.solve_annulus_reduction, annulus, n)
    timed["models.solve_annulus_reduction N=1000"] = fresh(models.solve_annulus_reduction, annulus, 1000)
    for lam1, t, n in ((0.864, 0.919, 240), (0.99, 0.99, 1000)):
        uncut = models.AnnulusProblem(lam0=t * lam1, lam1=lam1, delta_star=DELTA_STAR)
        timed[f"models.solve_annulus_reduction N={n} lam1={lam1} t={t}"] = (
            fresh(models.solve_annulus_reduction, uncut, n)
        )
    disc_uncut = models.DiscProblem(lam=0.99, delta_star=DELTA_STAR)
    timed["models.solve_disc_reduction N=1000 lam=0.99"] = fresh(models.solve_disc_reduction, disc_uncut, 1000)
    annulus_solved = {n: models.solve_annulus_reduction(annulus, n) for n in (60, 240)}
    timed["models.system_residual disc N=240"] = lambda: models.system_residual(disc[0.5], solved[0.5])
    for n in (240, 60):
        timed[f"models.system_residual annulus N={n}"] = (
            lambda n=n: models.system_residual(annulus, annulus_solved[n])
        )
    for lam in (0.5, 0.9):
        timed[f"fields.continuity_defects lam={lam} N=240"] = (
            lambda lam=lam: fields.continuity_defects(disc[lam], solved[lam])
        )
    timed["fields.stress_contact point N=60"] = lambda: fields.stress_contact(disc[0.5], at_60, 0.5)
    timed["fields.displacement point N=60"] = lambda: fields.displacement(disc[0.5], at_60, 0.75)
    for n in (60, 240):
        timed[f"solve_sweep case N={n}"] = sweep_case(n)
    timed["fields.displacement lam=0.5 figures grid N=60"] = (
        lambda: fields.displacement(disc[0.5], at_60, figure_grid)
    )
    uncut_1000 = models.solve_disc_reduction(disc_uncut, 1000)
    for name, points in (
        ("displacement", cli._displacement_grid(0.99, 20000)),
        ("stress_outer", cli._outer_grid(20000, cli.RunConfig.r_max)),
    ):
        timed[f"fields.{name} lam=0.99 grid_points=20000 N=1000"] = (
            lambda fn=getattr(fields, name), points=points: fn(disc_uncut, uncut_1000, points)
        )
    timed["cli.main displacement lam=0.5"] = command("displacement")
    timed["cli.main stress lam=0.5 grid_points=8"] = command("stress", "--grid-points", "8")
    timed["cli.main displacement lam=0.5 grid_points=8"] = command("displacement", "--grid-points", "8")
    for count, n in ((60, 60), (2000, 240)):
        sweep = cli.load_config("sif", None, {"truncation_N": n, "lambda_count": count})
        timed[f"cli.run_sif_sweep count={count} N={n}"] = lambda sweep=sweep: cli.run_sif_sweep(sweep)
    order = fields._series_order(cli.RunConfig().lambda_max)

    for n, k in ((60, order), (513, 1024), (1025, 2048)):
        timed[f"models._sif_coefficients N={n} K={k} uncached"] = (
            lambda n=n, k=k: models._sif_coefficients.__wrapped__(n, k)
        )

    def uncached_factors():
        for window in (0, 1):
            models._hankel_factor.__wrapped__(1000, window)

    timed["models._hankel_factor N=1000 windows=0,1 uncached"] = uncached_factors
    timed["verify.run_verification (defaults)"] = verify.run_verification
    timed["verify._check_factorization lam=0.5 lam0=0.2 lam1=0.5 N=60"] = (
        lambda: verify._check_factorization(verify.VerificationReport(), 0.5, 0.2, 0.5, 60)
    )
    return timed


def sample(fn, repeats: int) -> list[float]:
    """Wall times of repeats calls, in microseconds, after one warm-up call."""
    fn()
    clock = time.perf_counter
    times = []
    for _ in range(repeats):
        start = clock()
        fn()
        times.append(1e6 * (clock() - start))
    return times


def peak_mib(fn) -> float:
    """The tracemalloc peak of one call, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "samples": len(times)}


def merged(old: dict, times: list[float], peak: float) -> dict:
    """An entry over the samples of an earlier entry (none if old is empty) and these times."""
    samples = old.get("samples_us", []) + [round(t, 1) for t in times]
    return {**summary(samples), "peak_mib": max(peak, old.get("peak_mib", 0.0)), "samples_us": samples}


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def provenance() -> dict:
    status = _git("status", "--porcelain", "--", "src")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "source_differs_from_commit": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=30, help="samples per timing (default 30)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--append", action="store_true", help="add this run's samples to those in --out")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    out = Path(args.out)
    earlier = json.loads(out.read_text()) if args.append and out.exists() else {"rounds": 0, "timings": {}}
    timings = {}
    for name, fn in cases().items():
        times = sample(fn, args.repeats)
        entry = timings[name] = merged(earlier["timings"].get(name, {}), times, peak_mib(fn))
        print(
            f"{name:60s} {entry['median_us']:10.1f} us  [{entry['q1_us']:.1f}, {entry['q3_us']:.1f}]"
            f"  {entry['peak_mib']:8.2f} MiB"
        )
    record = {**provenance(), "repeats": args.repeats, "rounds": earlier["rounds"] + 1, "timings": timings}
    out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
