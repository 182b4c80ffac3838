"""The SIF sweep from one cached lambda-power series of the truncated system.

fields.sif_sweep sums -4/sqrt(pi) sum_q C_q lam**q, where C comes from the
disc's lambda-power table clipped to the truncation N
(models._sif_coefficients), and solves at lambda and unit loading the rows
past the series' tail bound; cli.run_sif_sweep emits its rows over the
configured grid.
These tests hold the series to the per-lambda reduction it replaces, and the
clipped table to a loop oracle of the truncated recurrence.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from pennycontact import fields, models
from pennycontact.cli import load_config, run_sif_sweep
from pennycontact.fields import sif_asymptotic, sif_exact
from pennycontact.models import (
    DiscProblem,
    _power_table,
    _sif_coefficients,
    solve_disc_reduction,
)

from oracles import SIF_SERIES_COEFFS, power_table_oracle


def _reduction_rows(cfg, lams):
    """Each row as the sweep built it before the series: one solve per lambda."""
    rows = []
    for lam in lams:
        p = replace(cfg, lam=lam).disc_problem()
        res = sif_exact(p, solve_disc_reduction(p, cfg.truncation_N))
        rows.append((lam, res.normalized, res.normalized_asymptotic))
    return rows


def _refuse_solves(monkeypatch):
    def must_not_solve(p, N):
        raise AssertionError(f"row at lambda = {p.lam!r} was solved, not summed")

    monkeypatch.setattr(fields, "solve_disc_reduction", must_not_solve)


@pytest.mark.parametrize("N", [1, 8, 60, 240])
def test_series_rows_match_the_reduction(N, monkeypatch):
    cfg = load_config("sif", None, {"truncation_N": N, "lambda_count": 40})
    _refuse_solves(monkeypatch)  # every row up to lambda = 0.95 is a series row
    rows = run_sif_sweep(cfg).rows
    monkeypatch.undo()
    reference = _reduction_rows(cfg, [row[0] for row in rows[1:]])
    assert rows[0] == (0.0, 0.0, 0.0)
    for row, ref in zip(rows[1:], reference):
        assert row[1] == pytest.approx(ref[1], rel=1e-13, abs=0.0), row[0]


def test_lambda_and_asymptotic_columns_are_unchanged():
    cfg = load_config("sif", None, {"truncation_N": 60})
    rows = run_sif_sweep(cfg).rows
    grid = np.linspace(0.0, 0.95, 60).tolist()
    assert [row[0] for row in rows] == grid
    reference = _reduction_rows(cfg, grid[1:])
    assert [row[2] for row in rows[1:]] == [ref[2] for ref in reference]


def test_rows_past_the_series_bound_are_solved_bitwise():
    cfg = load_config("sif", None, {"truncation_N": 240, "lambda_max": 0.999, "lambda_count": 50})
    rows = run_sif_sweep(cfg).rows
    lams = np.array([row[0] for row in rows])
    past = lams**fields._MAX_SERIES_ORDER > fields._SERIES_TOL * (1.0 - lams)
    assert 1 <= past.sum() < len(rows) - 1
    reference = dict(zip(lams[1:].tolist(), _reduction_rows(cfg, lams[1:].tolist())))
    for row, is_past in zip(rows[1:], past[1:]):
        if is_past:
            total = float(np.sum(solve_disc_reduction(DiscProblem(row[0], 1.0), 240).A_plus))
            assert row == (row[0], (-4.0 / math.sqrt(math.pi)) * total, sif_asymptotic(row[0]))
            assert row[1] == pytest.approx(reference[row[0]][1], rel=1e-14, abs=0.0)
        else:
            assert row[1] == pytest.approx(reference[row[0]][1], rel=1e-13, abs=0.0)


def test_sweep_rows_do_not_depend_on_the_loading():
    grid = {"truncation_N": 240, "lambda_max": 0.999, "lambda_count": 50}
    loaded = {"nu": 0.2, "shear_modulus": 2.0, "delta_over_a": 0.1}
    default = run_sif_sweep(load_config("sif", None, grid)).rows
    assert run_sif_sweep(load_config("sif", None, {**grid, **loaded})).rows == default
    lams = np.array([row[0] for row in default])
    assert (lams**fields._MAX_SERIES_ORDER > fields._SERIES_TOL * (1.0 - lams)).any()


@pytest.mark.parametrize("bad", [-0.1, 1.0, math.nan])
def test_sweep_rejects_a_lambda_outside_the_unit_interval(bad):
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        fields.sif_sweep(np.array([0.0, 0.5, bad]), 8)


def test_series_order_meets_the_tail_bound_at_the_top_lambda():
    assert fields._series_order(0.95) == 775
    for top in (1e-300, 0.1, 0.5, 0.95, 0.96):
        order = fields._series_order(top)
        assert top**order <= fields._SERIES_TOL * (1.0 - top)
        assert order == 1 or top ** (order - 1) > fields._SERIES_TOL * (1.0 - top)
    assert fields._series_order(0.999) == fields._MAX_SERIES_ORDER


def test_blocked_summation_does_not_depend_on_the_block_size(monkeypatch):
    coefficients = _sif_coefficients(60, 775)
    lams = np.linspace(0.01, 0.95, 23)
    whole = fields._series_values(coefficients, lams)
    monkeypatch.setattr(fields, "_SERIES_CHUNK", 5)
    assert np.array_equal(fields._series_values(coefficients, lams), whole)
    powers = lams[:, np.newaxis] ** np.arange(len(coefficients))
    np.testing.assert_allclose(whole, powers @ coefficients, rtol=1e-14, atol=0)


@pytest.mark.parametrize("rows,order_K", [(1, 50), (8, 120), (60, 300)])
def test_clipped_power_table_matches_truncated_loop_oracle(rows, order_K):
    assert rows < order_K // 2 + 1
    seed_a = -1.0 / (2.0 * math.pi * (np.arange(rows) + 0.5))
    a, b = _power_table(rows, order_K)
    a_ref, b_ref = power_table_oracle(seed_a, 0.0, rows, order_K)
    np.testing.assert_allclose(a, a_ref, rtol=1e-14, atol=0)
    np.testing.assert_allclose(b, 2.0 * b_ref, rtol=1e-14, atol=0)
    # C_q = sum_n a[n, q - 2n - 1], term by term
    expected = np.zeros(order_K + 1)
    for q in range(order_K + 1):
        for n in range(rows):
            if 0 <= q - 2 * n - 1 < order_K:
                expected[q] += a_ref[n, q - 2 * n - 1]
    np.testing.assert_allclose(_sif_coefficients(rows, order_K), expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("N", [1, 60, 240, 1000])
def test_coefficients_are_nonpositive_and_bounded_by_the_first(N):
    # the tail bound lam**K/(1 - lam) of the series rests on this
    coefficients = _sif_coefficients(N, fields._MAX_SERIES_ORDER)
    assert coefficients[0] == 0.0 and coefficients[1] == -1.0 / math.pi
    assert np.all(coefficients <= 0.0)
    assert np.abs(coefficients).max() <= 1.0 / math.pi


def test_low_orders_match_the_small_lambda_expansion():
    # an independent oracle: C_{j+1}/C_1 are the hand-derived coefficients
    coefficients = _sif_coefficients(60, 120)
    np.testing.assert_allclose(
        coefficients[1:6] / coefficients[1], SIF_SERIES_COEFFS, rtol=1e-12, atol=0
    )


def test_two_sweeps_build_the_coefficients_once(monkeypatch):
    builds = []
    power_table = models._power_table

    def counting(n_rows, order_K):
        builds.append((n_rows, order_K))
        return power_table(n_rows, order_K)

    _sif_coefficients.cache_clear()
    monkeypatch.setattr(models, "_power_table", counting)
    try:
        cfg = load_config("sif", None, {"truncation_N": 24})
        first = run_sif_sweep(cfg)
        second = run_sif_sweep(cfg)
        assert builds == [(24, 775)]
        assert first.rows == second.rows
        coefficients = _sif_coefficients(24, 775)
        assert builds == [(24, 775)]
        assert not coefficients.flags.writeable
        with pytest.raises(ValueError):
            coefficients[1] = 0.0
    finally:
        _sif_coefficients.cache_clear()
