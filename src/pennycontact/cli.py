"""Command-line interface: solve, evaluate fields, sweep, verify, emit figures.

Configuration comes from an optional JSON file plus flag overrides; all
emission is deterministic for a fixed configuration and version (fixed
grids, floats at 17 significant digits, no timestamps).

Exit codes: 0 success, 1 configuration error, 2 numerical-verification
failure, 3 numerical failure (a singular truncated system, a series that
did not converge, or an argument on a pole).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .fields import FieldSample, displacement, sif_exact, stress_contact, stress_outer
from .models import (
    AnnulusProblem,
    CoefficientSetAnnulus,
    CoefficientSetDisc,
    DiscProblem,
    SingularSystemError,
    solve_annulus_reduction,
    solve_disc_recurrence,
    solve_disc_reduction,
)
from .specfun import SQRT_PI, ConvergenceError, PoleError
from .verify import run_verification

__all__ = [
    "ConfigError",
    "RunConfig",
    "Table",
    "main",
    "run_solve",
    "run_stress",
    "run_sif_sweep",
    "run_displacement",
    "run_verify",
    "run_figures",
    "load_coefficients",
]

_FLOAT_FMT = "%.17g"

# Reference figure parameters: lambda = 0.5, delta/a = 0.05 for the
# stress plot, three radius ratios for the displacement profiles.
_FIGURE_LAMBDAS = (0.3, 0.5, 0.7)
_FIGURE_DELTA_OVER_A = 0.05

# Field grids evaluate grid_points x truncation_N values at once.
_MAX_GRID_POINTS = 100_000
_MAX_TRUNCATION_N = 1_000


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 1."""


@dataclass
class RunConfig:
    """Geometry, loading, truncation and emission controls for one run."""

    model: str = "disc"
    lam: float = 0.5
    lam0: float = 0.2
    lam1: float = 0.5
    delta_over_a: float = 0.05
    nu: float = 0.3
    shear_modulus: float | None = None
    truncation_N: int = 60
    order_K: int = 120
    method: str = "reduction"
    output_format: str = "csv"
    grid_points: int = 400
    r_max: float = 4.0
    lambda_min: float = 0.0
    lambda_max: float = 0.95
    lambda_count: int = 60

    def validate(self) -> None:
        mistyped = []
        for f in dataclass_fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue  # shear_modulus left unset
            kind = float if f.default is None else type(f.default)
            if not _has_kind(value, kind):
                mistyped.append(
                    f"{_FIELD_KEYS[f.name]}: must be {_KIND_NAMES[kind]}, got {value!r}"
                )
        if mistyped:
            raise ConfigError("; ".join(mistyped))
        problems = []
        if self.model not in ("disc", "annulus"):
            problems.append(f"model: must be 'disc' or 'annulus', got {self.model!r}")
        if not 0.0 < self.lam < 1.0:
            problems.append(f"lambda: must lie in (0, 1), got {self.lam!r}")
        if self.model == "annulus":
            if not 0.0 <= self.lam0 < 1.0:
                problems.append(f"lambda0: must lie in [0, 1), got {self.lam0!r}")
            if not 0.0 < self.lam1 < 1.0:
                problems.append(f"lambda1: must lie in (0, 1), got {self.lam1!r}")
            if self.lam0 >= self.lam1:
                problems.append(
                    f"lambda0/lambda1: need lambda0 < lambda1, got "
                    f"{self.lam0!r} >= {self.lam1!r}"
                )
        if self.delta_over_a <= 0.0:
            problems.append(
                f"delta_over_a: must be positive, got {self.delta_over_a!r}"
            )
        if not 0.0 < self.nu < 0.5:
            problems.append(f"nu: must lie in (0, 0.5), got {self.nu!r}")
        if self.shear_modulus is not None and self.shear_modulus <= 0.0:
            problems.append(
                f"shear_modulus: must be positive, got {self.shear_modulus!r}"
            )
        if not 1 <= self.truncation_N <= _MAX_TRUNCATION_N:
            problems.append(
                f"truncation_N: must lie in 1..{_MAX_TRUNCATION_N}, got {self.truncation_N!r}"
            )
        if self.order_K < 1:
            problems.append(f"order_K: must be >= 1, got {self.order_K!r}")
        if self.method not in ("reduction", "recurrence"):
            problems.append(
                f"method: must be 'reduction' or 'recurrence', got {self.method!r}"
            )
        if self.output_format not in ("csv", "json"):
            problems.append(
                f"format: must be 'csv' or 'json', got {self.output_format!r}"
            )
        if not 2 <= self.grid_points <= _MAX_GRID_POINTS:
            problems.append(
                f"grid_points: must lie in 2..{_MAX_GRID_POINTS}, got {self.grid_points!r}"
            )
        if self.r_max <= 1.0:
            problems.append(f"r_max: must exceed 1, got {self.r_max!r}")
        if not 0.0 <= self.lambda_min < self.lambda_max < 1.0:
            problems.append(
                "lambda_min/lambda_max: need 0 <= min < max < 1, got "
                f"{self.lambda_min!r}, {self.lambda_max!r}"
            )
        if self.lambda_count < 2:
            problems.append(f"lambda_count: must be >= 2, got {self.lambda_count!r}")
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def theta1(self) -> float:
        """(1 - nu)/G when a shear modulus is given, else 1 (nondimensional)."""
        if self.shear_modulus is None:
            return 1.0
        return (1.0 - self.nu) / self.shear_modulus

    @property
    def delta_star(self) -> float:
        return 2.0 * self.delta_over_a / (self.theta1 * SQRT_PI)

    def disc_problem(self) -> DiscProblem:
        return DiscProblem(lam=self.lam, delta_star=self.delta_star, theta1=self.theta1)

    def annulus_problem(self) -> AnnulusProblem:
        return AnnulusProblem(
            lam0=self.lam0,
            lam1=self.lam1,
            delta_star=self.delta_star,
            theta1=self.theta1,
        )


_CONFIG_KEYS = {
    "model": "model",
    "lambda": "lam",
    "lambda0": "lam0",
    "lambda1": "lam1",
    "delta_over_a": "delta_over_a",
    "nu": "nu",
    "shear_modulus": "shear_modulus",
    "truncation_N": "truncation_N",
    "order_K": "order_K",
    "method": "method",
    "format": "output_format",
    "grid_points": "grid_points",
    "r_max": "r_max",
    "lambda_min": "lambda_min",
    "lambda_max": "lambda_max",
    "lambda_count": "lambda_count",
}


_FIELD_KEYS = {name: key for key, name in _CONFIG_KEYS.items()}
_KIND_NAMES = {str: "a string", int: "an integer", float: "a finite number"}


def _has_kind(value, kind: type) -> bool:
    """Whether a config value has its field's type; floats must be finite."""
    if isinstance(value, bool):
        return False
    if kind is not float:
        return isinstance(value, kind)
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus flag overrides."""
    cfg = RunConfig()
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: cannot read {path!r}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config: top-level JSON value must be an object")
        unknown = sorted(set(raw) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"config: unknown keys {unknown}")
        cfg = replace(cfg, **{_CONFIG_KEYS[k]: v for k, v in raw.items()})
    known = {f.name for f in dataclass_fields(RunConfig)}
    cfg = replace(
        cfg, **{k: v for k, v in overrides.items() if v is not None and k in known}
    )
    cfg.validate()
    return cfg


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------


@dataclass
class Table:
    """Header metadata plus numeric rows, emitted as CSV or JSON."""

    header: dict
    columns: tuple
    rows: list

    def to_csv(self) -> str:
        lines = [f"# {k}={_format_value(v)}" for k, v in self.header.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_FLOAT_FMT % v for v in row))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "header": {k: v for k, v in self.header.items()},
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
        }


def _format_value(v) -> str:
    if isinstance(v, float):
        return _FLOAT_FMT % v
    return str(v)


def _base_header(cfg: RunConfig) -> dict:
    header = {
        "code_version": __version__,
        "model": cfg.model,
        "delta_over_a": cfg.delta_over_a,
        "nu": cfg.nu,
        "truncation_N": cfg.truncation_N,
    }
    if cfg.model == "disc":
        header["lambda"] = cfg.lam
    else:
        header["lambda0"] = cfg.lam0
        header["lambda1"] = cfg.lam1
    if cfg.shear_modulus is not None:
        header["shear_modulus"] = cfg.shear_modulus
        header["theta1"] = cfg.theta1
    return header


# ----------------------------------------------------------------------
# sample grids (geometric refinement toward the singular endpoints)
# ----------------------------------------------------------------------


def _contact_grid(lam: float, n: int) -> np.ndarray:
    """r/a values in [0, lam): linear inboard, refined toward r = b-."""
    n_lin = n // 2
    lin = np.linspace(0.0, 0.9, n_lin, endpoint=False)
    geo = 1.0 - np.logspace(-1, -4, n - n_lin)
    return lam * np.concatenate([lin, geo])


def _outer_grid(lam: float, n: int, r_max: float) -> np.ndarray:
    """r/a values in (1, r_max], refined toward the crack tip r = a+."""
    return 1.0 + np.logspace(-4, math.log10(r_max - 1.0), n)


def _displacement_grid(lam: float, n: int) -> np.ndarray:
    """r/a values spanning (lam, 1) with near-endpoint rows included."""
    span = 1.0 - lam
    offsets = np.concatenate(
        [
            np.logspace(-8, -2, n // 4),
            np.linspace(0.01, 0.99, n - n // 2),
            1.0 - np.logspace(-2, -8, n // 4),
        ]
    )
    return lam + span * np.unique(offsets)


# ----------------------------------------------------------------------
# run operations
# ----------------------------------------------------------------------


def run_solve(cfg: RunConfig):
    """Solve the configured model and return (problem, coefficient set)."""
    if cfg.model == "disc":
        p = cfg.disc_problem()
        if cfg.method == "recurrence":
            _, coeffs = solve_disc_recurrence(p, cfg.truncation_N, cfg.order_K)
        else:
            coeffs = solve_disc_reduction(p, cfg.truncation_N)
        return p, coeffs
    if cfg.method == "recurrence":
        raise ConfigError("method: recurrence is only available for the disc model")
    p = cfg.annulus_problem()
    return p, solve_annulus_reduction(p, cfg.truncation_N)


# JSON names of the problem fields that differ from the attribute names.
_JSON_NAMES = {"lam": "lambda", "lam0": "lambda0", "lam1": "lambda1"}
_ARTIFACT_TYPES = {
    "disc": (DiscProblem, CoefficientSetDisc),
    "annulus": (AnnulusProblem, CoefficientSetAnnulus),
}


def coefficients_to_json(problem, coeffs) -> dict:
    """Serialize a solved coefficient set; floats round-trip bitwise."""
    doc = {"model": "disc" if isinstance(coeffs, CoefficientSetDisc) else "annulus"}
    for f in dataclass_fields(problem):
        doc[_JSON_NAMES.get(f.name, f.name)] = getattr(problem, f.name)
    doc["truncation_N"] = coeffs.truncation_N
    for f in dataclass_fields(coeffs):
        if f.name != "truncation_N":
            doc[f.name] = getattr(coeffs, f.name).tolist()
    doc["code_version"] = __version__
    return doc


def load_coefficients(path):
    """Reload a serialized coefficient artifact into problem + coefficients."""
    raw = json.loads(Path(path).read_text())
    model = raw.get("model") if isinstance(raw, dict) else None
    if model not in _ARTIFACT_TYPES:
        raise ValueError(f"{path}: model must be 'disc' or 'annulus', got {model!r}")
    problem_type, coeffs_type = _ARTIFACT_TYPES[model]
    problem = problem_type(
        **{
            f.name: raw[_JSON_NAMES.get(f.name, f.name)]
            for f in dataclass_fields(problem_type)
        }
    )
    coeffs = coeffs_type(
        **{
            f.name: raw[f.name] if f.name == "truncation_N" else np.asarray(raw[f.name])
            for f in dataclass_fields(coeffs_type)
        }
    )
    return problem, coeffs


def _samples(r_over_a: np.ndarray, values: np.ndarray) -> list[FieldSample]:
    return [FieldSample(float(r), float(v)) for r, v in zip(r_over_a, values)]


def _sample_table(header: dict, samples: list[FieldSample]) -> Table:
    return Table(
        header=header,
        columns=("r_over_a", "value"),
        rows=[(s.r_over_a, s.value) for s in samples],
    )


def run_stress(cfg: RunConfig) -> tuple[Table, Table]:
    """Contact and outer stress branches on the refined grids."""
    if cfg.model != "disc":
        raise ConfigError("model: stress curves are defined for the disc model")
    p, coeffs = run_solve(cfg)
    contact_r = _contact_grid(cfg.lam, cfg.grid_points)
    contact = _samples(contact_r, stress_contact(p, coeffs, contact_r / cfg.lam))
    outer_r = _outer_grid(cfg.lam, cfg.grid_points, cfg.r_max)
    outer = _samples(outer_r, stress_outer(p, coeffs, outer_r))
    header = _base_header(cfg)
    return (
        _sample_table(
            {**header, "branch": "contact", "quantity": "theta1_sigma_z"}, contact
        ),
        _sample_table(
            {**header, "branch": "outer", "quantity": "theta1_sigma_z"}, outer
        ),
    )


def run_sif_sweep(cfg: RunConfig, lambda_grid=None) -> Table:
    """Normalized intensity factor, exact and asymptotic, over a lambda grid."""
    if lambda_grid is None:
        lambda_grid = np.linspace(cfg.lambda_min, cfg.lambda_max, cfg.lambda_count)
    rows = []
    for lam in lambda_grid:
        lam = float(lam)
        if lam == 0.0:
            rows.append((0.0, 0.0, 0.0))
            continue
        sub = replace(cfg, lam=lam)
        p, coeffs = run_solve(replace(sub, model="disc"))
        res = sif_exact(p, coeffs)
        rows.append((lam, res.normalized, res.normalized_asymptotic))
    return Table(
        header={**_base_header(cfg), "quantity": "normalized_k1"},
        columns=("lambda", "normalized_exact", "normalized_asymptotic"),
        rows=rows,
    )


def run_displacement(cfg: RunConfig, lam: float | None = None) -> Table:
    """Crack-face displacement profile u_z/a on (lam, 1)."""
    if cfg.model != "disc":
        raise ConfigError("model: displacement curves are defined for the disc model")
    sub = cfg if lam is None else replace(cfg, lam=lam)
    p, coeffs = run_solve(sub)
    grid = _displacement_grid(sub.lam, sub.grid_points)
    samples = _samples(grid, displacement(p, coeffs, grid))
    return _sample_table({**_base_header(sub), "quantity": "u_z_over_a"}, samples)


def run_verify(cfg: RunConfig):
    """Full invariant suite at the configured truncation."""
    return run_verification(
        lam=cfg.lam,
        lam0=cfg.lam0 if cfg.lam0 > 0 else 0.2,
        lam1=cfg.lam1,
        delta_over_a=cfg.delta_over_a,
        n_trunc=cfg.truncation_N,
        order_k=cfg.order_K,
    )


def run_figures(cfg: RunConfig, out_dir: Path) -> list[Path]:
    """Emit the figure-ready tables at the reference parameters."""
    out_dir.mkdir(parents=True, exist_ok=True)
    base = replace(cfg, model="disc", delta_over_a=_FIGURE_DELTA_OVER_A)
    written = []

    fig1 = replace(base, lam=0.5)
    contact, outer = run_stress(fig1)
    written.append(_write_table(contact, out_dir / "fig1_contact.csv", "csv"))
    written.append(_write_table(outer, out_dir / "fig1_outer.csv", "csv"))

    sweep = run_sif_sweep(replace(base, lam=0.5))
    written.append(_write_table(sweep, out_dir / "fig2_sif.csv", "csv"))

    for lam in _FIGURE_LAMBDAS:
        table = run_displacement(base, lam=lam)
        name = f"fig3_displacement_lam{int(round(lam * 100)):03d}.csv"
        written.append(_write_table(table, out_dir / name, "csv"))
    return written


def _write_table(table: Table, path: Path, fmt: str) -> Path:
    if fmt == "json":
        path.write_text(json.dumps(table.to_json_obj(), indent=2) + "\n")
    else:
        path.write_text(table.to_csv())
    return path


def _emit(table: Table, fmt: str, out: str | None, stdout) -> None:
    if out is None:
        if fmt == "json":
            stdout.write(json.dumps(table.to_json_obj(), indent=2) + "\n")
        else:
            stdout.write(table.to_csv())
    else:
        _write_table(table, Path(out), fmt)


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to the config exit code."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pennycontact", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--model", choices=("disc", "annulus"))
        sp.add_argument("--lambda", dest="lam", type=float, help="radius ratio b/a")
        sp.add_argument("--lambda0", dest="lam0", type=float, help="inner ratio c/a")
        sp.add_argument("--lambda1", dest="lam1", type=float, help="outer ratio b/a")
        sp.add_argument("--delta-over-a", dest="delta_over_a", type=float)
        sp.add_argument("--nu", type=float, help="Poisson ratio")
        sp.add_argument("--shear-modulus", dest="shear_modulus", type=float)
        sp.add_argument("--n-trunc", dest="truncation_N", type=int)
        sp.add_argument("--order-k", dest="order_K", type=int)
        sp.add_argument("--method", choices=("reduction", "recurrence"))
        sp.add_argument("--format", dest="output_format", choices=("csv", "json"))
        sp.add_argument("--out", help="output path (directory for figures)")
        sp.add_argument("--grid-points", dest="grid_points", type=int)
        sp.add_argument("--r-max", dest="r_max", type=float)

    sp = sub.add_parser("solve", help="solve the coefficient system")
    add_common(sp)
    sp = sub.add_parser("stress", help="emit the two stress branches")
    add_common(sp)
    sp = sub.add_parser("sif", help="sweep the normalized intensity factor")
    add_common(sp)
    sp.add_argument("--lambda-min", dest="lambda_min", type=float)
    sp.add_argument("--lambda-max", dest="lambda_max", type=float)
    sp.add_argument("--lambda-count", dest="lambda_count", type=int)
    sp = sub.add_parser("displacement", help="emit the crack-face profile")
    add_common(sp)
    sp = sub.add_parser("verify", help="run the numerical invariant suite")
    add_common(sp)
    sp = sub.add_parser("figures", help="emit all figure tables")
    add_common(sp)
    return parser


def main(argv=None) -> int:
    stdout = sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        out = overrides.pop("out", None)
        cfg = load_config(args.config, overrides)

        if args.command == "solve":
            problem, coeffs = run_solve(cfg)
            doc = coefficients_to_json(problem, coeffs)
            text = json.dumps(doc, indent=2) + "\n"
            if out is None:
                stdout.write(text)
            else:
                Path(out).write_text(text)
            return 0

        if args.command == "stress":
            contact, outer = run_stress(cfg)
            if out is None:
                _emit(contact, cfg.output_format, None, stdout)
                _emit(outer, cfg.output_format, None, stdout)
            else:
                out_dir = Path(out)
                out_dir.mkdir(parents=True, exist_ok=True)
                ext = cfg.output_format
                _write_table(contact, out_dir / f"stress_contact.{ext}", ext)
                _write_table(outer, out_dir / f"stress_outer.{ext}", ext)
            return 0

        if args.command == "sif":
            _emit(run_sif_sweep(cfg), cfg.output_format, out, stdout)
            return 0

        if args.command == "displacement":
            _emit(run_displacement(cfg), cfg.output_format, out, stdout)
            return 0

        if args.command == "verify":
            report = run_verify(cfg)
            if cfg.output_format == "json":
                text = json.dumps(report.to_dict(), indent=2) + "\n"
            else:
                lines = [
                    f"{'PASS' if c.passed else 'FAIL'} {c.name}: "
                    f"measured={c.measured:.6e} threshold={c.threshold:.6e}"
                    for c in report.checks
                ]
                lines.append(
                    f"{'PASS' if report.passed else 'FAIL'} overall "
                    f"({sum(c.passed for c in report.checks)}/{len(report.checks)})"
                )
                text = "\n".join(lines) + "\n"
            if out is None:
                stdout.write(text)
            else:
                Path(out).write_text(text)
            return 0 if report.passed else 2

        if args.command == "figures":
            out_dir = Path(out) if out else Path("figures")
            for path in run_figures(cfg, out_dir):
                stdout.write(f"{path}\n")
            return 0

        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SingularSystemError, ConvergenceError, PoleError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
