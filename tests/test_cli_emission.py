"""CLI emission pinned byte for byte against an independent rendering.

Each command's text is rebuilt here from the run_* results with the
documented format: CSV is `# key=value` header lines, the column line and
rows at 17 significant digits; JSON is one indented document per table
with a trailing newline.
"""

import json

import pytest

from pennycontact.cli import (
    coefficients_to_json,
    load_config,
    main,
    run_displacement,
    run_sif_sweep,
    run_solve,
    run_stress,
    run_verify,
)


def csv_text(table) -> str:
    lines = [
        f"# {k}={'%.17g' % v if isinstance(v, float) else v}"
        for k, v in table.header.items()
    ]
    lines.append(",".join(table.columns))
    lines += [",".join("%.17g" % v for v in row) for row in table.rows]
    return "\n".join(lines) + "\n"


def json_text(table) -> str:
    doc = {
        "header": dict(table.header),
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def verify_text(report) -> str:
    lines = [
        f"{'PASS' if c.passed else 'FAIL'} {c.name}: "
        f"measured={c.measured:.6e} threshold={c.threshold:.6e}"
        for c in report.checks
    ]
    passed = sum(c.passed for c in report.checks)
    overall = "PASS" if report.passed else "FAIL"
    lines.append(f"{overall} overall ({passed}/{len(report.checks)})")
    return "\n".join(lines) + "\n"


def test_stress_json_on_stdout_is_two_documents(capsys):
    argv = ["stress", "--format", "json", "--n-trunc", "12", "--grid-points", "16"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    contact, outer = run_stress(load_config("stress", None, {"truncation_N": 12, "grid_points": 16}))
    assert out == json_text(contact) + json_text(outer)
    decoder = json.JSONDecoder()
    first, end = decoder.raw_decode(out)
    second, _ = decoder.raw_decode(out[end:].lstrip())
    assert (first["header"]["branch"], second["header"]["branch"]) == ("contact", "outer")


def test_displacement_json_to_file(tmp_path, capsys):
    path = tmp_path / "disp.json"
    argv = ["displacement", "--format", "json", "--lambda", "0.7", "--n-trunc", "16",
            "--grid-points", "20", "--out", str(path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    cfg = load_config("displacement", None, {"lam": 0.7, "truncation_N": 16, "grid_points": 20})
    assert path.read_text() == json_text(run_displacement(cfg))


def test_sif_csv_to_file(tmp_path, capsys):
    path = tmp_path / "sif.csv"
    argv = ["sif", "--lambda-count", "4", "--n-trunc", "10", "--out", str(path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    cfg = load_config("sif", None, {"lambda_count": 4, "truncation_N": 10})
    assert path.read_text() == csv_text(run_sif_sweep(cfg))


def test_annulus_solve_on_stdout(capsys):
    argv = ["solve", "--model", "annulus", "--lambda0", "0.3", "--lambda1", "0.6",
            "--n-trunc", "8"]
    assert main(argv) == 0
    cfg = load_config(
        "solve", None, {"model": "annulus", "lam0": 0.3, "lam1": 0.6, "truncation_N": 8}
    )
    expected = json.dumps(coefficients_to_json(*run_solve(cfg)), indent=2) + "\n"
    assert capsys.readouterr().out == expected


def test_verify_text_to_file(tmp_path, capsys):
    path = tmp_path / "verify.txt"
    assert main(["verify", "--n-trunc", "40", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    report = run_verify(load_config("verify", None, {"truncation_N": 40}))
    assert path.read_text() == verify_text(report)


def test_parser_carries_nothing_between_calls(capsys):
    assert main(["sif", "--lambda-count", "3", "--n-trunc", "8"]) == 0
    assert capsys.readouterr().out.count("\n") == 7 + 3  # 6 header lines + columns
    assert main(["sif"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == load_config("sif", None, {}).lambda_count == 60
    assert "# truncation_N=60" in lines


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stress_to_directory(tmp_path, fmt):
    argv = ["stress", "--format", fmt, "--n-trunc", "12", "--grid-points", "16",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    contact, outer = run_stress(load_config("stress", None, {"truncation_N": 12, "grid_points": 16}))
    render = csv_text if fmt == "csv" else json_text
    assert (tmp_path / f"stress_contact.{fmt}").read_text() == render(contact)
    assert (tmp_path / f"stress_outer.{fmt}").read_text() == render(outer)


def test_parser_is_built_once_and_not_at_import(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    from pennycontact import cli

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    code = "import pennycontact.cli as c; print(c._build_parser.cache_info().currsize)"
    fresh = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert fresh.stdout == "0\n"
    out = str(tmp_path / "c.json")
    assert main(["solve", "--n-trunc", "2", "--out", out]) == 0
    misses = cli._build_parser.cache_info().misses
    assert main(["solve", "--n-trunc", "3", "--out", out]) == 0
    assert cli._build_parser.cache_info().misses == misses
