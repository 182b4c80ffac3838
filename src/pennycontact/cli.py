"""Command-line interface: solve, evaluate fields, sweep, verify, emit figures.

Configuration comes from an optional JSON file plus flag overrides; all
emission is deterministic for a fixed configuration and version (fixed
grids, floats at 17 significant digits, no timestamps).

Exit codes: 0 success, 1 configuration error or an unwritable --out, 2
numerical-verification failure, 3 numerical failure (a singular truncated
system, a series that did not converge, or an argument on a pole).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .fields import displacement, sif_sweep, stress_contact, stress_outer
from .models import (
    DEFAULT_TRUNCATION,
    AnnulusProblem,
    CoefficientSetDisc,
    DiscProblem,
    SingularSystemError,
    solve_annulus_reduction,
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
]

_FLOAT_FMT = "%.17g"

# The displacement profiles' radius ratios; the stress plot and the
# intensity-factor sweep run at lambda = 0.5.
_FIGURE_LAMBDAS = (0.3, 0.5, 0.7)

# Field grids evaluate grid_points x truncation_N values at once; the SIF
# sweep's lambda grid is held to the same cap.
_MAX_GRID_POINTS = 100_000
_MAX_TRUNCATION_N = 1_000
# The outer stress grid starts at r/a = 1 + 1e-4 (_outer_grid) and squares r/a
# (fields.stress_outer), which overflows past about 1.34e154.
_MIN_R_MAX = 1.0001
_MAX_R_MAX = 1e150


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
    truncation_N: int = DEFAULT_TRUNCATION
    output_format: str = "csv"
    grid_points: int = 400
    r_max: float = 4.0
    lambda_min: float = 0.0
    lambda_max: float = 0.95
    lambda_count: int = 60

    def validate(self) -> None:
        mistyped = []
        for f in dataclass_fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if not _has_kind(value, kind):
                mistyped.append(
                    f"{_key(f.name)}: must be {_KIND_NAMES[kind]}, got {value!r}"
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
        if not 1 <= self.truncation_N <= _MAX_TRUNCATION_N:
            problems.append(
                f"truncation_N: must lie in 1..{_MAX_TRUNCATION_N}, got {self.truncation_N!r}"
            )
        if self.output_format not in ("csv", "json"):
            problems.append(
                f"format: must be 'csv' or 'json', got {self.output_format!r}"
            )
        if not 2 <= self.grid_points <= _MAX_GRID_POINTS:
            problems.append(
                f"grid_points: must lie in 2..{_MAX_GRID_POINTS}, got {self.grid_points!r}"
            )
        if not _MIN_R_MAX < self.r_max <= _MAX_R_MAX:
            problems.append(f"r_max: must lie in ({_MIN_R_MAX:g}, {_MAX_R_MAX:g}], got {self.r_max!r}")
        if not 0.0 <= self.lambda_min < self.lambda_max < 1.0:
            problems.append(
                "lambda_min/lambda_max: need 0 <= min < max < 1, got "
                f"{self.lambda_min!r}, {self.lambda_max!r}"
            )
        if not 2 <= self.lambda_count <= _MAX_GRID_POINTS:
            problems.append(
                f"lambda_count: must lie in 2..{_MAX_GRID_POINTS}, got {self.lambda_count!r}"
            )
        if problems:
            raise ConfigError("; ".join(problems))
        # A finite delta/a above about 8.99e307 still overflows delta_star.
        if not math.isfinite(self.delta_star):
            raise ConfigError(
                f"delta_over_a: delta_star = 2 delta_over_a/sqrt(pi) must be finite, "
                f"got {self.delta_star!r}"
            )

    @property
    def delta_star(self) -> float:
        return 2.0 * self.delta_over_a / SQRT_PI

    def disc_problem(self) -> DiscProblem:
        return DiscProblem(lam=self.lam, delta_star=self.delta_star)

    def annulus_problem(self) -> AnnulusProblem:
        return AnnulusProblem(lam0=self.lam0, lam1=self.lam1, delta_star=self.delta_star)


# External names (config keys, artifact keys, messages) that differ from
# the attribute names; every other field is known by its attribute name.
_RENAMES = {"lam": "lambda", "lam0": "lambda0", "lam1": "lambda1", "output_format": "format"}


def _key(name: str) -> str:
    return _RENAMES.get(name, name)


_FIELD_NAMES = {_key(f.name): f.name for f in dataclass_fields(RunConfig)}
_KIND_NAMES = {str: "a string", int: "an integer", float: "a finite number"}


def _has_kind(value, kind: type) -> bool:
    """Whether a config value has the given type; floats must be finite."""
    if isinstance(value, bool):
        return False
    if kind is not float:
        return isinstance(value, kind)
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def load_config(command: str, path: str | None, overrides: dict) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus flag overrides.

    The file and the overrides may set only the keys, and the fields, of
    the flags registered on the command (_READS); any other is a
    configuration error.  An override of None is ignored.
    """
    cfg = RunConfig()
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: cannot read {path!r}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config: top-level JSON value must be an object")
        refused = sorted(k for k in raw if _FIELD_NAMES.get(k) not in _READS[command])
        if refused:
            raise ConfigError(f"config: {command} does not read keys {refused}")
        cfg = replace(cfg, **{_FIELD_NAMES[k]: v for k, v in raw.items()})
    given = {k: v for k, v in overrides.items() if v is not None}
    refused = sorted(set(given) - _READS[command])
    if refused:
        raise ConfigError(f"overrides: {command} does not read fields {refused}")
    cfg = replace(cfg, **given)
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
    rows: list  # of tuples, one float per column

    def render(self, fmt: str) -> str:
        """One indented JSON document, or CSV under `# key=value` header lines."""
        if fmt == "json":
            return _json_text(
                {
                    "header": dict(self.header),
                    "columns": list(self.columns),
                    "rows": [list(row) for row in self.rows],
                }
            )
        lines = [
            f"# {k}={_FLOAT_FMT % v if isinstance(v, float) else v}"
            for k, v in self.header.items()
        ]
        lines.append(",".join(self.columns))
        row_fmt = ",".join([_FLOAT_FMT] * len(self.columns))
        body = ((row_fmt + "\n") * len(self.rows)) % tuple(itertools.chain.from_iterable(self.rows))
        return "\n".join(lines) + "\n" + body


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _deliver(text: str, out, name: str | None = None) -> None:
    """Write text to stdout, the file out, or out/name; an unwritable out is a ConfigError."""
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    try:
        if name is not None:
            path.mkdir(parents=True, exist_ok=True)
            path /= name
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"out: {exc}") from exc


def _base_header(cfg: RunConfig) -> dict:
    header = {
        "code_version": __version__,
        "model": cfg.model,
        "delta_over_a": cfg.delta_over_a,
        "truncation_N": cfg.truncation_N,
    }
    for name in ("lam",) if cfg.model == "disc" else ("lam0", "lam1"):
        header[_key(name)] = getattr(cfg, name)
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


def _outer_grid(n: int, r_max: float) -> np.ndarray:
    """r/a values from 1 + 1e-4 to r_max, refined toward the crack tip r = a+."""
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
    # sorted, equal neighbours dropped: np.unique's values, without the
    # numpy.ma import it brings into a fresh process
    offsets.sort()
    return lam + span * offsets[np.concatenate([[True], offsets[1:] != offsets[:-1]])]


# ----------------------------------------------------------------------
# run operations
# ----------------------------------------------------------------------


def run_solve(cfg: RunConfig):
    """Solve the configured model and return (problem, coefficient set)."""
    if cfg.model == "disc":
        p = cfg.disc_problem()
        return p, solve_disc_reduction(p, cfg.truncation_N)
    p = cfg.annulus_problem()
    return p, solve_annulus_reduction(p, cfg.truncation_N)


def coefficients_to_json(problem, coeffs) -> dict:
    """Serialize a solved coefficient set; floats round-trip bitwise."""
    doc = {"model": "disc" if isinstance(coeffs, CoefficientSetDisc) else "annulus"}
    for f in dataclass_fields(problem):
        doc[_key(f.name)] = getattr(problem, f.name)
    doc["truncation_N"] = coeffs.truncation_N
    for f in dataclass_fields(coeffs):
        if f.name != "truncation_N":
            doc[f.name] = getattr(coeffs, f.name).tolist()
    doc["code_version"] = __version__
    return doc


def _curve(header: dict, r_over_a: np.ndarray, values: np.ndarray) -> Table:
    return Table(header, ("r_over_a", "value"), list(zip(r_over_a.tolist(), values.tolist())))


def _require_disc(cfg: RunConfig, what: str) -> None:
    """Reject a field command on the annulus: the evaluators are disc-only."""
    if cfg.model != "disc":
        raise ConfigError(f"model: {what} are defined for the disc model")


def run_stress(cfg: RunConfig) -> tuple[Table, Table]:
    """Contact and outer stress branches on the refined grids."""
    _require_disc(cfg, "stress curves")
    p, coeffs = run_solve(cfg)
    contact_r = _contact_grid(cfg.lam, cfg.grid_points)
    outer_r = _outer_grid(cfg.grid_points, cfg.r_max)
    header = _base_header(cfg)
    return (
        _curve(
            {**header, "branch": "contact", "quantity": "theta1_sigma_z"},
            contact_r,
            stress_contact(p, coeffs, contact_r / cfg.lam),
        ),
        _curve(
            {**header, "branch": "outer", "quantity": "theta1_sigma_z"},
            outer_r,
            stress_outer(p, coeffs, outer_r),
        ),
    )


def run_sif_sweep(cfg: RunConfig) -> Table:
    """Normalized intensity factor, exact and asymptotic, over the lambda grid (fields.sif_sweep)."""
    _require_disc(cfg, "intensity-factor sweeps")
    lams = np.linspace(cfg.lambda_min, cfg.lambda_max, cfg.lambda_count)
    return Table(
        header={**_base_header(cfg), "quantity": "normalized_k1"},
        columns=("lambda", "normalized_exact", "normalized_asymptotic"),
        rows=sif_sweep(lams, cfg.truncation_N),
    )


def run_displacement(cfg: RunConfig) -> Table:
    """Crack-face displacement profile u_z/a on (lam, 1)."""
    _require_disc(cfg, "displacement curves")
    if cfg.grid_points < 8:  # fewer lose the rows at offset 1e-8 from lambda or 1
        raise ConfigError(f"grid_points: displacement needs at least 8, got {cfg.grid_points!r}")
    grid = _displacement_grid(cfg.lam, cfg.grid_points)
    # near lam = 1 the end offsets, times the span 1 - lam, round onto lam or 1
    if not (cfg.lam < grid[0] and grid[-1] < 1.0):
        raise ConfigError(
            f"lambda: too close to 1 for the displacement grid, whose end rows "
            f"round onto lambda or 1, got {cfg.lam!r}"
        )
    p, coeffs = run_solve(cfg)
    header = {**_base_header(cfg), "quantity": "u_z_over_a"}
    return _curve(header, grid, displacement(p, coeffs, grid))


def run_verify(cfg: RunConfig):
    """Full invariant suite at the configured truncation.

    The annulus checks run at (lambda0, lambda1), which must satisfy
    0 < lambda0 < lambda1 < 1 whatever the model.
    """
    if not 0.0 < cfg.lam0 < cfg.lam1 < 1.0:
        raise ConfigError(
            "lambda0/lambda1: verify needs 0 < lambda0 < lambda1 < 1, got "
            f"{cfg.lam0!r}, {cfg.lam1!r}"
        )
    return run_verification(
        lam=cfg.lam,
        lam0=cfg.lam0,
        lam1=cfg.lam1,
        delta_over_a=cfg.delta_over_a,
        n_trunc=cfg.truncation_N,
    )


def run_figures(cfg: RunConfig, out_dir: Path) -> list[Path]:
    """Emit the figure-ready tables at the reference parameters.

    The tables read only the settings of the flags registered on figures
    (_READS); the geometry, the loading and the intensity factor's lambda
    grid are RunConfig's defaults.
    """
    base = RunConfig(**{name: getattr(cfg, name) for name in _READS["figures"]})
    contact, outer = run_stress(replace(base, lam=0.5))
    tables = {
        "fig1_contact.csv": contact,
        "fig1_outer.csv": outer,
        "fig2_sif.csv": run_sif_sweep(replace(base, lam=0.5)),
    }
    for lam in _FIGURE_LAMBDAS:
        name = f"fig3_displacement_lam{int(round(lam * 100)):03d}.csv"
        tables[name] = run_displacement(replace(base, lam=lam))
    # every table is built before the first is written, so an error leaves no file
    for name, table in tables.items():
        _deliver(table.render("csv"), out_dir, name)
    return [out_dir / name for name in tables]


# ----------------------------------------------------------------------
# commands: each takes the validated config and the --out value and
# returns the exit code
# ----------------------------------------------------------------------


def _solve_command(cfg: RunConfig, out) -> int:
    _deliver(_json_text(coefficients_to_json(*run_solve(cfg))), out)
    return 0


def _stress_command(cfg: RunConfig, out) -> int:
    fmt = cfg.output_format
    contact, outer = run_stress(cfg)
    if out is None:
        _deliver(contact.render(fmt) + outer.render(fmt), None)
    else:
        _deliver(contact.render(fmt), out, f"stress_contact.{fmt}")
        _deliver(outer.render(fmt), out, f"stress_outer.{fmt}")
    return 0


def _sif_command(cfg: RunConfig, out) -> int:
    _deliver(run_sif_sweep(cfg).render(cfg.output_format), out)
    return 0


def _displacement_command(cfg: RunConfig, out) -> int:
    _deliver(run_displacement(cfg).render(cfg.output_format), out)
    return 0


def _verify_command(cfg: RunConfig, out) -> int:
    report = run_verify(cfg)
    if cfg.output_format == "json":
        text = _json_text(report.to_dict())
    else:
        text = "".join(
            f"{'PASS' if c.passed else 'FAIL'} {c.name}: "
            f"measured={c.measured:.6e} threshold={c.threshold:.6e}\n"
            for c in report.checks
        )
        text += (
            f"{'PASS' if report.passed else 'FAIL'} overall "
            f"({sum(c.passed for c in report.checks)}/{len(report.checks)})\n"
        )
    _deliver(text, out)
    return 0 if report.passed else 2


def _figures_command(cfg: RunConfig, out) -> int:
    written = run_figures(cfg, Path(out or "figures"))
    _deliver("".join(f"{path}\n" for path in written), None)
    return 0


# Subcommand name -> (help text, command); the order is the help order.
_COMMANDS = {
    "solve": ("solve the coefficient system", _solve_command),
    "stress": ("emit the two stress branches", _stress_command),
    "sif": ("sweep the normalized intensity factor", _sif_command),
    "displacement": ("emit the crack-face profile", _displacement_command),
    "verify": ("run the numerical invariant suite", _verify_command),
    "figures": ("emit all figure tables", _figures_command),
}


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to the config exit code."""

    def error(self, message):
        raise ConfigError(message)


# (flag, argparse keywords, the commands that read it), in --help order.  A
# flag is registered only on its readers, and a config-file key is read only
# by the readers of its flag, so a misplaced one is a configuration error.
# figures runs at fixed reference parameters, verify checks both models
# nondimensionally, the field commands are disc-only, and solve always
# writes JSON.
_EVERY = tuple(_COMMANDS)
_FIELDS = ("stress", "sif", "displacement")  # the disc-only field commands
_FLAGS = (
    ("--config", dict(help="JSON configuration file"), _EVERY),
    ("--model", dict(choices=("disc", "annulus")), ("solve", *_FIELDS)),
    ("--lambda", dict(dest="lam", type=float, help="radius ratio b/a"), ("solve", *_FIELDS, "verify")),
    ("--lambda0", dict(dest="lam0", type=float, help="inner ratio c/a"), ("solve", "verify")),
    ("--lambda1", dict(dest="lam1", type=float, help="outer ratio b/a"), ("solve", "verify")),
    ("--delta-over-a", dict(dest="delta_over_a", type=float), ("solve", *_FIELDS, "verify")),
    ("--format", dict(dest="output_format", choices=("csv", "json")), (*_FIELDS, "verify")),
    ("--n-trunc", dict(dest="truncation_N", type=int), _EVERY),
    ("--out", dict(help="output path (directory for figures)"), _EVERY),
    ("--grid-points", dict(dest="grid_points", type=int), ("stress", "displacement", "figures")),
    ("--r-max", dict(dest="r_max", type=float), ("stress", "figures")),
    ("--lambda-min", dict(dest="lambda_min", type=float), ("sif",)),
    ("--lambda-max", dict(dest="lambda_max", type=float), ("sif",)),
    ("--lambda-count", dict(dest="lambda_count", type=int), ("sif",)),
)
# Command -> the RunConfig fields it reads: the destinations of its flags.
_READS = {
    name: {
        keywords.get("dest", flag[2:].replace("-", "_"))
        for flag, keywords, readers in _FLAGS
        if name in readers
    } & set(_FIELD_NAMES.values())
    for name in _COMMANDS
}


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built on first use and shared by later calls."""
    parser = _Parser(prog="pennycontact", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, keywords, readers in _FLAGS:
            if name in readers:
                sp.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
        name = args.pop("command")
        config, out = args.pop("config"), args.pop("out")
        return _COMMANDS[name][1](load_config(name, config, args), out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SingularSystemError, ConvergenceError, PoleError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
