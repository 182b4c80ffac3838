"""Tests of the benchmark itself: python3 -m pytest benchmarks -q"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checkout import ROOT, import_library  # noqa: E402

import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def _small_mixed_ops():
    """A short op list reaching every layer: one figure table, two cases, one verify."""
    figure = [op for op in workloads.figures_ops(0) if op.name == "sif"]
    return figure + workloads.solve_sweep_ops(4)[:2] + workloads.verify_ops(4)[:1]


def _traced_summary(ops):
    tracer = tracing.Tracer(extra_consumers=[workloads])
    with tracer:
        tracer.wrap("bench.pass", worker.run_pass)(ops)
    return tracing.summarize(tracer)


def test_traced_counts_repeat_for_one_seed():
    first = _traced_summary(_small_mixed_ops())
    second = _traced_summary(_small_mixed_ops())
    counts = {k: v for k, v in first.items() if not tracing.is_time(k)}
    assert counts == {k: v for k, v in second.items() if not tracing.is_time(k)}
    for key in ("specfun.f_m.calls", "models.solve_annulus_reduction.calls", "fields.points",
                "factorization.matrix_evals", "verify.checks", "cli.calls"):
        assert first[key] > 0, key


def test_self_times_account_for_traced_wall():
    summary = _traced_summary(_small_mixed_ops())
    layers = [f"{layer}.self_s" for layer in tracing.LAYERS] + ["bench.self_s"]
    assert sum(summary[k] for k in layers) == pytest.approx(summary["trace.wall_s"], rel=1e-9)


def test_bindings_restored_after_traced_run():
    tracer = tracing.Tracer(extra_consumers=[workloads])
    before = tracer.bindings()
    assert any(name == "f_m" and consumer.__name__ == "pennycontact.fields" for consumer, name, _ in before)
    with tracer:
        assert all(getattr(consumer, name) is not obj for consumer, name, obj in before)
        worker.run_pass(workloads.solve_sweep_ops(1)[:1])
    assert all(getattr(consumer, name) is obj for consumer, name, obj in before)


def test_bindings_restored_when_a_traced_call_raises():
    tracer = tracing.Tracer(extra_consumers=[workloads])
    before = tracer.bindings()
    with pytest.raises(ValueError):
        with tracer:
            workloads.fields.displacement(workloads.models.DiscProblem(lam=0.5, delta_star=0.05), None, 2.0)
    assert all(getattr(consumer, name) is obj for consumer, name, obj in before)


@pytest.fixture(scope="module")
def figure_outputs():
    ops = {op.name: op for op in workloads.figures_ops(0)}
    return {name: ops[name].run() for name in ("stress", "sif", "displacement_lam070")}


def _nudged(reference, name, row, col, delta):
    ref = copy.deepcopy(reference)
    ref["tables"][name][0]["rows"][row][col] += delta
    return ref


def test_figure_calls_emit_the_figures_tables(figure_outputs, tmp_path):
    assert workloads.cli.main(["figures", "--out", str(tmp_path)]) == 0
    written = {
        "stress": ["fig1_contact.csv", "fig1_outer.csv"],
        "sif": ["fig2_sif.csv"],
        "displacement_lam070": ["fig3_displacement_lam070.csv"],
    }
    for name, files in written.items():
        assert figure_outputs[name].text == "".join((tmp_path / f).read_text() for f in files), name


def test_reference_tables_pass_unchanged(figure_outputs):
    reference = workloads.load_reference()
    for name, out in figure_outputs.items():
        assert workloads.check_figure_table(name, out, reference).ok, name


@pytest.mark.parametrize("name", ["stress", "sif", "displacement_lam070"])
def test_reference_nudged_by_1e_9_fails_the_op(figure_outputs, name):
    reference = workloads.load_reference()
    rows = reference["tables"][name][0]["rows"]
    # the largest value outside the truncation-limited SIF rows, where the
    # relative tolerance is loosest
    row, col = max(
        ((i, j) for i in range(len(rows)) if name != "sif" or rows[i][0] < 0.8 for j in range(1, len(rows[i]))),
        key=lambda ij: abs(rows[ij[0]][ij[1]]),
    )
    outcome = workloads.check_figure_table(name, figure_outputs[name], _nudged(reference, name, row, col, 1e-9))
    assert not outcome.ok


def test_reordered_sum_rounding_passes(figure_outputs):
    reference = workloads.load_reference()
    rows = reference["tables"]["displacement_lam070"][0]["rows"]
    smallest = min(range(len(rows)), key=lambda i: abs(rows[i][1]))
    nudged = _nudged(reference, "displacement_lam070", smallest, 1, 1.4e-17)
    nudged = _nudged(nudged, "displacement_lam070", len(rows) // 2, 1, 1.1e-15)
    assert workloads.check_figure_table("displacement_lam070", figure_outputs["displacement_lam070"], nudged).ok


def test_high_lambda_sif_rows_are_counted_as_contract_misses(figure_outputs):
    outcome = workloads.check_figure_table("sif", figure_outputs["sif"], workloads.load_reference())
    assert outcome.ok
    assert any("lambda=0.9500" in miss for miss in outcome.misses)


def test_case_contract_classification():
    case = {"lam": 0.95, "ratio": 0.5, "N": 60}
    good = {
        "disc_residual": 1e-17, "annulus_residual": 1e-17, "agreement": 1e-12,
        "coefficient_scale": 0.04, "continuity": 1e-12, "sif": 3.0,
        "stress_contact": -1.0, "stress_outer": 0.1, "displacement": 0.01,
    }
    assert workloads.check_case(case, good).ok and not workloads.check_case(case, good).misses
    truncated = dict(good, continuity=1.1e-6)
    outcome = workloads.check_case(case, truncated)
    assert outcome.ok and len(outcome.misses) == 1
    assert not workloads.check_case(dict(case, lam=0.5), truncated).ok
    assert not workloads.check_case(case, dict(good, annulus_residual=1e-11)).ok
    assert not workloads.check_case(case, dict(good, sif=float("nan"))).ok


def test_seeds_give_different_solve_sweep_inputs():
    first = workloads.solve_sweep_inputs(1)
    assert first == workloads.solve_sweep_inputs(1)
    assert first != workloads.solve_sweep_inputs(2)
    assert workloads.verify_inputs(1) != workloads.verify_inputs(2)
    assert sum(c["N"] == 240 for c in first) == len(first) // 4
    assert all(0.05 <= c["lam"] < 0.95 and 0.0 <= c["ratio"] < 0.95 for c in first)
    assert all(c["lam"] < c["r_disp"] < 1.0 and 1.0 < c["r_outer"] <= 4.0 for c in first)


def test_tail_latency_leaves_ten_samples_beyond():
    values = [float(i) for i in range(40)]
    value, percentile = worker.tail_latency(values)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(75.0)


def test_predictions_cover_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "predictions.json").read_text())["predictions"]
    assert set(predictions) == {m["name"] for m in spec["per_layer"]}
    metrics = {m["name"] for m in spec["end_to_end"]} | {"failed"}
    names = {w["name"] for w in spec["workloads"]}
    for entry in predictions.values():
        for pair in entry["moves"] + entry["no_change"]:
            metric, workload = pair.split("@")
            assert metric in metrics and workload in names, pair


def test_run_refuses_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "figures", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
