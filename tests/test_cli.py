"""CLI: configuration, emission schemas, determinism, round-trips, exit codes."""

import argparse
import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from pennycontact.cli import (
    ConfigError,
    _build_parser,
    _displacement_grid,
    RunConfig,
    coefficients_to_json,
    load_config,
    main,
    run_displacement,
    run_figures,
    run_sif_sweep,
    run_solve,
    run_stress,
)
from pennycontact.models import SingularSystemError, system_residual
from pennycontact.specfun import ConvergenceError, PoleError

from oracles import solve_artifact


_COMMAND_NAMES = ("solve", "stress", "sif", "displacement", "verify", "figures")
# Every flag and the commands that read it, in --help order; the removed
# flags have no reader.
_FLAG_READERS = {
    "--config": _COMMAND_NAMES,
    "--model": ("solve", "stress", "sif", "displacement"),
    "--lambda": ("solve", "stress", "sif", "displacement", "verify"),
    "--lambda0": ("solve", "verify"),
    "--lambda1": ("solve", "verify"),
    "--delta-over-a": ("solve", "stress", "sif", "displacement", "verify"),
    "--format": ("stress", "sif", "displacement", "verify"),
    "--n-trunc": _COMMAND_NAMES,
    "--out": _COMMAND_NAMES,
    "--grid-points": ("stress", "displacement", "figures"),
    "--r-max": ("stress", "figures"),
    "--lambda-min": ("sif",),
    "--lambda-max": ("sif",),
    "--lambda-count": ("sif",),
    "--nu": (),
    "--shear-modulus": (),
}
# The config-file key of each flag that sets one; a command reads the key
# exactly when it reads the flag.  The removed keys have no reader.
_FLAG_KEYS = {
    "--model": "model", "--lambda": "lambda", "--lambda0": "lambda0", "--lambda1": "lambda1",
    "--delta-over-a": "delta_over_a", "--format": "format", "--n-trunc": "truncation_N",
    "--grid-points": "grid_points", "--r-max": "r_max", "--lambda-min": "lambda_min",
    "--lambda-max": "lambda_max", "--lambda-count": "lambda_count",
}
_KEY_READERS = {
    **{key: _FLAG_READERS[flag] for flag, key in _FLAG_KEYS.items()},
    "order_K": (),
    "method": (),
    "nu": (),
    "shear_modulus": (),
}
# A value each flag parses; "5" for the numeric ones.
_FLAG_VALUES = {"--format": "json", "--model": "disc"}
# Small runs for the reader checks, and per flag a value that differs from
# both this config and the defaults.
_FAST_CONFIG = {"truncation_N": 8, "grid_points": 16, "lambda_count": 4}
_CHANGED_VALUES = {
    "--model": "annulus", "--lambda": "0.4", "--lambda0": "0.3", "--lambda1": "0.6",
    "--delta-over-a": "0.1", "--format": "json", "--n-trunc": "10", "--out": "elsewhere",
    "--grid-points": "20", "--r-max": "3", "--lambda-min": "0.1", "--lambda-max": "0.5",
    "--lambda-count": "5",
}
# Settings that a flag changes only under another: the disc solve has no
# inner ratio.
_COMPANIONS = {
    ("solve", "--lambda0"): ["--model", "annulus"],
    ("solve", "--lambda1"): ["--model", "annulus"],
}


def _fast_config(command):
    """_FAST_CONFIG without the keys the command does not read."""
    return {k: v for k, v in _FAST_CONFIG.items() if command in _KEY_READERS[k]}


def _key_value(text):
    """A flag's value as a config file writes it: a number, else the string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _subparser_flags(command):
    """The long options the parser registers on one command, in --help order."""
    subparsers = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    actions = subparsers.choices[command]._actions
    return [f for a in actions for f in a.option_strings if f.startswith("--") and f != "--help"]


def _observe(argv, run_dir, capsys, monkeypatch):
    """Exit code, standard output and the files written, of main(argv) run in run_dir."""
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    code = main(argv)
    out = capsys.readouterr().out
    files = {
        str(path.relative_to(run_dir)): path.read_bytes()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }
    return code, out, files


class TestConfig:
    @pytest.mark.parametrize(
        "command,flag",
        [(c, f) for f, readers in _FLAG_READERS.items() for c in _COMMAND_NAMES if c not in readers],
    )
    def test_flag_on_a_command_that_does_not_read_it_is_config_error(
        self, command, flag, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)  # figures would write into the working directory
        assert main([command, flag, _FLAG_VALUES.get(flag, "5")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1, captured.err
        assert f"unrecognized arguments: {flag}" in captured.err

    @pytest.mark.parametrize(
        "command,flag", [(c, f) for f, readers in _FLAG_READERS.items() for c in readers]
    )
    def test_flag_parses_on_the_commands_that_read_it(self, command, flag):
        argv = [command, flag, _FLAG_VALUES.get(flag, "5")]
        assert _build_parser().parse_args(argv).command == command

    @pytest.mark.parametrize("command", _COMMAND_NAMES)
    def test_parser_registers_exactly_the_readers_in_help_order(self, command):
        readers = [f for f, commands in _FLAG_READERS.items() if command in commands]
        assert _subparser_flags(command) == readers

    @pytest.mark.parametrize(
        "command,flag", [(c, f) for c in _COMMAND_NAMES for f in _subparser_flags(c)]
    )
    def test_every_accepted_flag_changes_what_its_command_does(
        self, command, flag, tmp_path, capsys, monkeypatch
    ):
        # a flag the parser accepts must change the command's standard
        # output, written files or exit code for some value
        fast, other = tmp_path / "fast.json", tmp_path / "other.json"
        fast.write_text(json.dumps(_fast_config(command)))
        other.write_text(json.dumps({**_fast_config(command), "truncation_N": 9}))
        base = [command, *_COMPANIONS.get((command, flag), []), "--config", str(fast)]
        if flag == "--config":
            changed = base[:-1] + [str(other)]
        else:
            changed = base + [flag, _CHANGED_VALUES[flag]]
        before = _observe(base, tmp_path / "base", capsys, monkeypatch)
        after = _observe(changed, tmp_path / "changed", capsys, monkeypatch)
        assert before != after

    @pytest.mark.parametrize(
        "command,key",
        [(c, k) for k, readers in _KEY_READERS.items() for c in _COMMAND_NAMES if c not in readers],
    )
    def test_config_key_on_a_command_that_does_not_read_it_is_config_error(
        self, command, key, capsys, tmp_path, monkeypatch
    ):
        from pennycontact import cli as cli_module

        def must_not_run(*args, **kwargs):
            raise AssertionError("a refused config key reached a run")

        for name in ("run_solve", "run_sif_sweep", "run_verification"):
            monkeypatch.setattr(cli_module, name, must_not_run)
        monkeypatch.chdir(tmp_path)  # figures would write into the working directory
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: 5}))
        assert main([command, "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config: {command} does not read keys [{key!r}]\n"

    @pytest.mark.parametrize(
        "command,flag",
        [(c, f) for f, key in _FLAG_KEYS.items() for c in _FLAG_READERS[f]],
    )
    def test_every_accepted_config_key_changes_what_its_command_does(
        self, command, flag, tmp_path, capsys, monkeypatch
    ):
        # the config-file twin of the flag check above: flags become keys
        companions = _COMPANIONS.get((command, flag), [])
        base = {
            **_fast_config(command),
            **{_FLAG_KEYS[f]: _key_value(v) for f, v in zip(companions[::2], companions[1::2])},
        }
        results = []
        for name, config in (
            ("base", base),
            ("changed", {**base, _FLAG_KEYS[flag]: _key_value(_CHANGED_VALUES[flag])}),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            results.append(_observe([command, "--config", str(path)], tmp_path / name, capsys, monkeypatch))
        assert results[0] != results[1]

    def test_defaults_validate(self):
        RunConfig().validate()

    def test_rejects_bad_lambda(self):
        with pytest.raises(ConfigError, match="lambda"):
            load_config("solve", None, {"lam": 1.5})

    def test_rejects_inverted_annulus(self):
        with pytest.raises(ConfigError, match="lambda0"):
            load_config("solve", None, {"model": "annulus", "lam0": 0.7, "lam1": 0.5})

    def test_rejects_nonpositive_indentation(self):
        with pytest.raises(ConfigError, match="delta_over_a"):
            load_config("solve", None, {"delta_over_a": 0.0})

    def test_every_setting_has_a_flag(self):
        # a RunConfig field that no flag sets could be changed only by
        # editing the code
        from pennycontact import cli as cli_module

        dests = {
            keywords.get("dest", flag[2:].replace("-", "_"))
            for flag, keywords, _ in cli_module._FLAGS
        }
        assert {f.name for f in dataclasses.fields(RunConfig)} <= dests

    @pytest.mark.parametrize("command", _COMMAND_NAMES)
    def test_no_output_names_an_elastic_constant(self, command, tmp_path, capsys, monkeypatch):
        # every value is reported as theta1*sigma_z or u_z/a, the same for
        # every nu and G, so no header line, artifact key or check names one
        fast = tmp_path / "fast.json"
        fast.write_text(json.dumps(_fast_config(command)))
        code, out, files = _observe(
            [command, "--config", str(fast)], tmp_path / "run", capsys, monkeypatch
        )
        assert code in (0, 2), code  # verify at a small N may fail a check
        texts = [out] + [data.decode() for data in files.values()]
        assert any(texts), command
        for text in texts:
            assert not re.search(r"\b(nu|shear_modulus|theta1|a_radius)\b", text), text

    def test_file_plus_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lambda": 0.4, "truncation_N": 12}))
        cfg = load_config("solve", str(path), {"delta_over_a": 0.1})
        assert cfg.lam == 0.4
        assert cfg.truncation_N == 12
        assert cfg.delta_over_a == 0.1

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lambda_typo": 0.4}))
        with pytest.raises(ConfigError, match=r"solve does not read keys \['lambda_typo'\]"):
            load_config("solve", str(path), {})

    def test_override_the_command_does_not_read(self):
        with pytest.raises(ConfigError, match=r"figures does not read fields \['lam', 'lambda_count'\]"):
            load_config("figures", None, {"lam": 0.9, "lambda_count": 3})
        # an override of None is a flag left unset, as the parser passes it
        assert load_config("figures", None, {"truncation_N": None}) == RunConfig()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_solve_method_is_gone(self, source, tmp_path, capsys):
        # the disc is solved by reduction only: the recurrence flag and the
        # method key are rejected, not ignored
        if source == "flag":
            argv = ["solve", "--method", "recurrence"]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"method": "reduction"}))
            argv = ["solve", "--config", str(path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1, captured.err
        if source == "config":
            assert "'method'" in captured.err

    def test_config_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("solve", str(path), {})

    def test_delta_star_from_delta_over_a(self):
        cfg = RunConfig(delta_over_a=0.1)
        assert cfg.delta_star == 2 * 0.1 / math.sqrt(math.pi)
        assert RunConfig(delta_over_a=5e-324).delta_star == 5e-324


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["solve", "--lambda", "0.5", "--n-trunc", "4"]) == 0
        assert "A_plus" in capsys.readouterr().out

    def test_config_error_is_1(self, capsys):
        assert main(["solve", "--lambda", "1.5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_is_config_error(self, capsys):
        assert main(["solve", "--lambda", "abc"]) == 1

    def test_unknown_command_is_config_error(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "command,out",
        [
            ("solve", "missing/x.json"),
            ("stress", "a_file"),
            ("sif", "a_dir"),
            ("displacement", "missing/x.csv"),
            ("verify", "a_dir"),
            ("figures", "a_file"),
        ],
    )
    def test_unwritable_out_is_one_error_line(self, command, out, capsys, tmp_path, monkeypatch):
        # a missing parent, a directory to write a file to, or a file to make a directory of
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a_file").write_text("kept")
        (tmp_path / "a_dir").mkdir()
        assert main([command, "--n-trunc", "8", "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out: ") and captured.err.count("\n") == 1, captured.err
        assert (tmp_path / "a_file").read_text() == "kept"
        assert not any((tmp_path / "a_dir").iterdir())

    def test_nonfinite_and_mistyped_inputs_are_config_errors(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"lambda": "0.5"}))
        for argv in (
            ["solve", "--delta-over-a", "nan"],
            ["stress", "--r-max", "inf"],
            ["solve", "--config", str(config)],
        ):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, err

    def test_displacement_grid_collapsing_near_lambda_one_is_config_error(self, capsys):
        # at lambda >= 0.999999995 the grid's end rows round onto lambda or 1
        for lam in ("0.999999995", "0.999999999999"):
            assert main(["displacement", "--lambda", lam]) == 1, lam
            err = capsys.readouterr().err
            assert err.startswith("error: lambda") and err.count("\n") == 1, err
            assert lam in err

    def test_displacement_grid_below_eight_points_is_config_error(self, capsys, tmp_path):
        # below 8 points a log-spaced part of the grid has at most one point,
        # and the row at offset 1e-8 from lambda or 1 is lost
        out = tmp_path / "figures"
        for argv in (
            ["displacement", "--grid-points", "7"],
            ["displacement", "--grid-points", "2"],
            ["figures", "--grid-points", "4", "--out", str(out)],
        ):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: grid_points") and err.count("\n") == 1, err
            assert argv[2] in err
        assert not out.exists()  # no table is written before the error
        cfg = load_config("displacement", None, {"grid_points": 8, "truncation_N": 8})
        r = np.array([row[0] for row in run_displacement(cfg).rows])
        np.testing.assert_allclose([r[0] - 0.5, 1.0 - r[-1]], [0.5e-8, 0.5e-8], rtol=1e-6)
        assert main(["stress", "--grid-points", "2", "--n-trunc", "8"]) == 0
        assert capsys.readouterr().err == ""

    def test_verify_passes_with_defaults(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["verify", "--n-trunc", "40", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert len(report["checks"]) > 20

    def test_verification_failure_is_2(self, capsys, monkeypatch):
        from pennycontact import cli as cli_module
        from pennycontact.verify import CheckResult, VerificationReport

        failing = VerificationReport(
            checks=[CheckResult(name="stub", measured=1.0, threshold=0.5)]
        )
        monkeypatch.setattr(cli_module, "run_verification", lambda **kw: failing)
        assert main(["verify"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_ambiguous_index_fit_is_a_failed_check(self, capsys):
        # at radius ratio 0.99 the annulus X+ entry (1,3) fits order 0.769:
        # the report keeps every check and fails the two order-fit checks
        argv = ["verify", "--lambda", "0.5", "--lambda0", "0.2", "--lambda1", "0.99"]
        assert main(argv + ["--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert len(report["checks"]) == 32
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == [
            "factorization.partial_indices_zero",
            "factorization.order_fit_distance",
        ]
        assert failed[0]["measured"] is None  # math.inf, written as strict JSON
        assert "order fit 0.769 is not within 0.2 of an integer" in failed[0]["detail"]

    def test_nan_measurement_is_null_in_strict_json(self, capsys):
        # at lambda0 = 1e-300 two annulus checks measure NaN
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        argv = ["verify", "--lambda0", "1e-300", "--lambda1", "0.5", "--format", "json"]
        # t**(-s) overflows there, and numpy warns of it
        with pytest.warns(RuntimeWarning):
            assert main(argv) == 2
        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        failed = {c["name"]: c for c in report["checks"] if not c["passed"]}
        for name in ("factorization.annulus_det_plus", "factorization.annulus_boundary_residual"):
            assert failed[name]["measured"] is None


class TestSolveArtifact:
    @pytest.mark.parametrize(
        "argv,overrides",
        [
            (["--lambda", "0.55", "--n-trunc", "24"], {"lam": 0.55, "truncation_N": 24}),
            (
                ["--model", "annulus", "--lambda0", "0.2", "--lambda1", "0.5", "--n-trunc", "16"],
                {"model": "annulus", "lam0": 0.2, "lam1": 0.5, "truncation_N": 16},
            ),
        ],
        ids=["disc", "annulus"],
    )
    def test_roundtrip_is_bitwise(self, argv, overrides, tmp_path):
        problem, coeffs = run_solve(load_config("solve", None, overrides))
        path = tmp_path / "coeffs.json"
        assert main(["solve", *argv, "--out", str(path)]) == 0
        problem2, coeffs2 = solve_artifact(path.read_text())
        assert problem2 == problem
        assert coeffs2.truncation_N == coeffs.truncation_N
        for f in dataclasses.fields(coeffs):
            assert np.array_equal(getattr(coeffs2, f.name), getattr(coeffs, f.name)), f.name

    @pytest.mark.parametrize(
        "overrides",
        [{"lam": 0.55}, {"model": "annulus", "lam0": 0.2, "lam1": 0.5}],
        ids=["disc", "annulus"],
    )
    def test_reloaded_artifact_satisfies_its_equations(self, overrides):
        problem, coeffs = run_solve(load_config("solve", None, overrides))
        reloaded = solve_artifact(json.dumps(coefficients_to_json(problem, coeffs)))
        residual = system_residual(*reloaded)
        assert residual == system_residual(problem, coeffs)
        assert residual <= 1e-12

    def test_solve_cli_writes_file(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["solve", "--n-trunc", "6", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["model"] == "disc"
        assert len(doc["A_plus"]) == 6


class TestEmission:
    def test_stress_csv_schema(self, tmp_path):
        code = main(
            [
                "stress",
                "--n-trunc",
                "20",
                "--grid-points",
                "24",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        text = (tmp_path / "stress_contact.csv").read_text()
        lines = text.strip().splitlines()
        comments = [l for l in lines if l.startswith("# ")]
        assert any(l.startswith("# lambda=") for l in comments)
        assert any(l.startswith("# code_version=") for l in comments)
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "r_over_a,value"
        rows = [tuple(map(float, l.split(","))) for l in lines[header_idx + 1 :]]
        rs = [r for r, _ in rows]
        assert rs == sorted(rs)
        assert all(v < 0 for _, v in rows)  # contact branch is compressive

    def test_outer_branch_increasing(self, tmp_path):
        main(["stress", "--n-trunc", "20", "--grid-points", "24", "--out", str(tmp_path)])
        lines = (tmp_path / "stress_outer.csv").read_text().strip().splitlines()
        rows = [l for l in lines if not l.startswith("#") and "," in l][1:]
        rs = [float(l.split(",")[0]) for l in rows]
        assert rs == sorted(rs)
        assert all(r > 1.0 for r in rs)

    def test_sif_zero_row(self):
        cfg = load_config(
            "sif", None, {"truncation_N": 12, "lambda_min": 0.0, "lambda_max": 0.3, "lambda_count": 2}
        )
        table = run_sif_sweep(cfg)
        assert table.rows[0] == (0.0, 0.0, 0.0)
        assert table.rows[1][1] > 0.0

    def test_displacement_endpoints(self, capsys):
        code = main(
            ["displacement", "--lambda", "0.5", "--n-trunc", "40", "--grid-points", "64"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [
            tuple(map(float, l.split(",")))
            for l in lines
            if not l.startswith("#") and not l.startswith("r_over_a")
        ]
        assert rows[0][1] == pytest.approx(0.05, abs=1e-4)
        assert abs(rows[-1][1]) < 1e-4

    def test_json_format(self, capsys):
        code = main(
            ["sif", "--format", "json", "--lambda-count", "3", "--n-trunc", "8",
             "--lambda-max", "0.4"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"] == ["lambda", "normalized_exact", "normalized_asymptotic"]

    def test_determinism(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(
                ["sif", "--lambda-count", "5", "--n-trunc", "12", "--lambda-max",
                 "0.5", "--out", str(out)]
            )
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    def test_float_precision_roundtrip(self, tmp_path):
        out = tmp_path / "sif.csv"
        main(["sif", "--lambda-count", "3", "--n-trunc", "16", "--lambda-max", "0.5",
              "--out", str(out)])
        cfg = load_config("sif", None, {"truncation_N": 16, "lambda_max": 0.5, "lambda_count": 3})
        table = run_sif_sweep(cfg)
        lines = [
            l for l in out.read_text().strip().splitlines()
            if not l.startswith("#") and not l.startswith("lambda")
        ]
        for line, row in zip(lines, table.rows):
            parsed = tuple(map(float, line.split(",")))
            assert parsed == row  # 17 significant digits round-trip exactly


class TestFigures:
    @pytest.mark.parametrize("n", [8, 9, 400, 1001])
    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.7])
    def test_displacement_grid_is_the_sorted_distinct_offsets(self, lam, n):
        # the grid drops repeated offsets by sorting, without np.unique
        offsets = np.concatenate(
            [
                np.logspace(-8, -2, n // 4),
                np.linspace(0.01, 0.99, n - n // 2),
                1.0 - np.logspace(-2, -8, n // 4),
            ]
        )
        want = lam + (1.0 - lam) * np.unique(offsets)
        grid = _displacement_grid(lam, n)
        assert grid.dtype == want.dtype and grid.tobytes() == want.tobytes()

    def test_figures_command(self, tmp_path, capsys):
        code = main(
            ["figures", "--n-trunc", "24", "--grid-points", "32", "--out", str(tmp_path)]
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "fig1_contact.csv",
            "fig1_outer.csv",
            "fig2_sif.csv",
            "fig3_displacement_lam030.csv",
            "fig3_displacement_lam050.csv",
            "fig3_displacement_lam070.csv",
        ]

    def test_figures_reads_only_its_own_settings(self, tmp_path):
        # figures runs at fixed reference parameters, the fig2_sif.csv grid
        # included, whatever the settings its flags do not set
        unread = RunConfig(
            model="annulus", lam=0.9, delta_over_a=0.1, output_format="json",
            lambda_max=0.5, lambda_count=3,
        )
        plain = run_figures(RunConfig(), tmp_path / "plain")
        configured = run_figures(unread, tmp_path / "configured")
        assert [p.name for p in configured] == [p.name for p in plain]
        for ours, theirs in zip(configured, plain):
            assert ours.read_bytes() == theirs.read_bytes(), ours.name
        rows = (tmp_path / "plain" / "fig2_sif.csv").read_text().splitlines()
        assert len([row for row in rows if row[:1].isdigit()]) == RunConfig.lambda_count

    def test_stress_rejects_annulus(self):
        # every field command is disc-only, the intensity-factor sweep included
        cfg = load_config("solve", None, {"model": "annulus", "lam0": 0.2, "lam1": 0.5})
        for run in (run_stress, run_sif_sweep, run_displacement):
            with pytest.raises(ConfigError, match="model:"):
                run(cfg)


class TestNumericalFailures:
    @pytest.mark.parametrize(
        "error",
        [
            SingularSystemError("truncated system is singular (cond ~ 1e+17)"),
            ConvergenceError("2F1 series did not converge"),
            PoleError("gamma pole at -3"),
        ],
    )
    def test_numerical_failure_is_3(self, error, capsys, monkeypatch, tmp_path):
        from pennycontact import cli as cli_module

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli_module, "solve_disc_reduction", fail)
        for argv in (["solve"], ["displacement"], ["figures", "--out", str(tmp_path)]):
            assert main(argv) == 3, argv
            err = capsys.readouterr().err
            assert err == f"error: {type(error).__name__}: {error}\n", err


class TestCaps:
    @pytest.mark.parametrize(
        "argv",
        [
            ["displacement", "--grid-points", "100001"],
            ["stress", "--n-trunc", "1001"],
            ["solve", "--n-trunc", "1001"],
            ["stress", "--r-max", "1e+308"],  # repr spells floats this large with "e+"
            ["stress", "--r-max", "1.0000000000000002e+150"],  # the next float past the cap
            ["figures", "--r-max", "1e+308"],
            ["stress", "--r-max", "1.00001"],  # below the outer grid's first row
            ["figures", "--r-max", "1.0001"],  # on it
        ],
    )
    def test_value_just_over_a_cap_is_config_error(self, argv, capsys, monkeypatch):
        from pennycontact import cli as cli_module

        def must_not_run(*args, **kwargs):
            raise AssertionError("a capped run reached the solver")

        monkeypatch.setattr(cli_module, "run_solve", must_not_run)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert argv[-1] in err

    def test_values_at_the_caps_validate(self):
        RunConfig(grid_points=100_000, truncation_N=1_000, r_max=1e150).validate()

    @pytest.mark.parametrize("command", ["stress", "figures"])
    def test_outer_radius_at_the_cap_runs_clean(self, command, tmp_path):
        # the outer branch squares r/a, which stays finite up to the cap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                [command, "--r-max", "1e150", "--grid-points", "8", "--n-trunc", "8",
                 "--out", str(tmp_path)]
            )
        assert code == 0
        outer = next(tmp_path.glob("*outer.csv")).read_text().splitlines()
        rows = [tuple(map(float, l.split(","))) for l in outer if l[:1].isdigit()]
        assert rows[-1][0] == pytest.approx(1e150, rel=1e-15)
        assert all(math.isfinite(v) and v >= 0 for _, v in rows)

    def test_the_removed_order_k_flag_is_config_error(self, capsys, monkeypatch):
        # verify's recurrence order is models.DEFAULT_ORDER, not a setting
        from pennycontact import cli as cli_module

        def must_not_run(*args, **kwargs):
            raise AssertionError("a removed flag reached verify")

        monkeypatch.setattr(cli_module, "run_verify", must_not_run)
        assert main(["verify", "--order-k", "60"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unrecognized arguments: --order-k 60\n"

    @pytest.mark.parametrize("count", ["1", "100001", "1000000000000"])
    def test_lambda_count_out_of_range_is_config_error(self, count, capsys, monkeypatch):
        from pennycontact import cli as cli_module

        def must_not_run(*args, **kwargs):
            raise AssertionError("an out-of-range lambda count reached the sweep")

        monkeypatch.setattr(cli_module, "run_sif_sweep", must_not_run)
        assert main(["sif", "--lambda-count", count]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lambda_count") and err.count("\n") == 1, err
        assert count in err

    def test_lambda_count_at_the_cap_validates(self):
        RunConfig(lambda_count=100_000).validate()

    @pytest.mark.parametrize(
        "flags,message",
        [(["--delta-over-a", "1e308"], "delta_over_a: delta_star")],
        ids=["delta-star-overflows"],
    )
    def test_nonfinite_or_zero_loading_is_config_error(self, flags, message, capsys, monkeypatch):
        from pennycontact import cli as cli_module

        def must_not_run(*args, **kwargs):
            raise AssertionError("a non-finite or zero loading reached the solver")

        monkeypatch.setattr(cli_module, "run_solve", must_not_run)
        for command in ("solve", "stress", "sif", "displacement"):
            assert main([command] + flags) == 1, command
            err = capsys.readouterr().err
            assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


class TestVerifyRadii:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--lambda0", "0.6", "--lambda1", "0.5"],
            ["verify", "--lambda0", "0"],
        ],
    )
    def test_needs_lambda0_between_zero_and_lambda1(self, argv, capsys, monkeypatch):
        from pennycontact import cli as cli_module

        def must_not_run(**kwargs):
            raise AssertionError("verify ran with radii outside 0 < lambda0 < lambda1")

        monkeypatch.setattr(cli_module, "run_verification", must_not_run)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lambda0/lambda1:") and err.count("\n") == 1, err
        assert "Traceback" not in err
