"""The geometry-independent parts of the shared operator, built once.

The kernel blocks come from one denominator vector viewed as Hankel and
Toeplitz blocks, the disc lambda-power table is shared read-only per
argument set, and the residuals apply the operator block by block.  Each must give
what the direct construction gives.
"""

import dataclasses
import math

import numpy as np
import pytest

from pennycontact import models
from pennycontact.factorization import (
    _column_rhs,
    factor_system_residual,
    solve_factor_columns_annulus,
    solve_factor_columns_disc,
)
from pennycontact.models import (
    _MODEL_SCALE,
    AnnulusProblem,
    DiscProblem,
    _annulus_forcings,
    _couplings,
    _disc_forcing,
    _disc_table,
    _interleave,
    _power_table,
    _row_weights,
    recurrence_table,
    solve_annulus_reduction,
    solve_disc_reduction,
    system_matrix,
    system_residual,
)
from pennycontact.verify import run_verification


def _fresh_operator(lam, t, N):
    """The operator assembled entry by entry as weight / (pi (n +- m + shift))."""
    n, m = np.ogrid[:N, :N]
    shifts = [(0, 1, n + m + 0.5), (1, 0, n + m + 0.5)]
    if t is not None:
        shifts += [
            (1, 3, n - m - 0.5),
            (2, 3, n + m + 1.5),
            (2, 0, n - m + 0.5),
            (3, 2, n + m + 1.5),
        ]
    weight = _row_weights(lam, t, N)[:, :, np.newaxis]
    k = 2 if t is None else 4
    matrix = np.eye(k * N)
    for row, col, den in shifts:
        matrix[row::k, col::k] += weight[row] / (math.pi * den)
    return matrix


@pytest.mark.parametrize("N", [1, 2, 60, 240])
@pytest.mark.parametrize("lam,t", [(0.5, None), (0.9, 0.4), (0.2, 0.1)])
def test_couplings_are_bit_identical_to_fresh_denominators(lam, t, N):
    h = 1 if t is None else 2
    P, Q = _couplings(lam, t, N)
    assert P.shape == (h, N, N) and Q.shape == (h, N, h, N)
    assert np.all(system_matrix(lam, t, N) == _fresh_operator(lam, t, N))


def test_coupling_blocks_are_fresh_arrays():
    for block in _couplings(0.5, 0.5, 4):
        block[:] = math.nan
    assert all(np.all(np.isfinite(block)) for block in _couplings(0.5, 0.5, 4))


# ----------------------------------------------------------------------
# residuals applied block by block
# ----------------------------------------------------------------------


def _dense_defect(lam, t, x, b):
    """max |M x - b| per slot through the assembled operator, shape (N, slots)."""
    defect = system_matrix(lam, t, len(x)) @ x.ravel() - b.ravel()
    return defect.reshape(x.shape)


def _model_cases(lam, N):
    disc = DiscProblem(lam=lam, delta_star=0.7)
    annulus = AnnulusProblem(lam0=0.4 * lam, lam1=lam, delta_star=0.7)
    return [
        (disc, solve_disc_reduction(disc, N), None, _disc_forcing(disc, N)),
        (annulus, solve_annulus_reduction(annulus, N), 0.4, _annulus_forcings(annulus, N)),
    ]


@pytest.mark.parametrize("lam,N", [(0.3, 20), (0.8, 60), (0.95, 240)])
def test_model_residuals_match_the_assembled_operator(lam, N):
    for problem, coeffs, t, forcing in _model_cases(lam, N):
        scale = _MODEL_SCALE[: forcing.shape[1]]
        x = _interleave(coeffs, len(scale))
        defect = _dense_defect(lam, t, x * scale, forcing * scale) / scale
        assert abs(system_residual(problem, coeffs) - np.abs(defect).max()) <= 1e-15


@pytest.mark.parametrize("lam,N", [(0.3, 20), (0.8, 60)])
def test_model_residual_sees_a_perturbed_unknown(lam, N):
    for problem, coeffs, _, _ in _model_cases(lam, N):
        assert system_residual(problem, coeffs) <= 1e-15
        A_plus = coeffs.A_plus.copy()
        A_plus[N // 2] += 1e-6
        bumped = dataclasses.replace(coeffs, A_plus=A_plus)
        assert system_residual(problem, bumped) == pytest.approx(1e-6, rel=1e-3)


def _factor_cases(N):
    lam, lam0, lam1 = 0.6, 0.2, 0.5
    cases = [
        (col, lam, None, _column_rhs(lam, None, N)[:, :, col.column_index - 1])
        for col in solve_factor_columns_disc(lam, N)
    ]
    cases += [
        (col, lam1, lam0 / lam1, _column_rhs(lam1, lam0 / lam1, N)[:, :, col.column_index - 1])
        for col in solve_factor_columns_annulus(lam0, lam1, N)
    ]
    return cases


@pytest.mark.parametrize("N", [20, 60])
def test_factor_residuals_match_the_assembled_operator(N):
    for col, lam, t, rhs in _factor_cases(N):
        x = _interleave(col, rhs.shape[1])
        want = np.abs(_dense_defect(lam, t, x, rhs)).max()
        assert abs(factor_system_residual(col) - want) <= 1e-15


def test_factor_residual_sees_a_perturbed_unknown():
    for col, _, _, _ in _factor_cases(20):
        assert factor_system_residual(col) <= 1e-14
        B_minus = col.B_minus.copy()
        B_minus[3] += 1e-6
        bumped = dataclasses.replace(col, B_minus=B_minus)
        assert factor_system_residual(bumped) == pytest.approx(1e-6, rel=1e-3)


# ----------------------------------------------------------------------
# the disc lambda-power table shared per argument set
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rows,order_K", [(10, 4), (61, 120), (240, 120)])
def test_model_table_is_shared_read_only_and_fresh_valued(rows, order_K):
    first = recurrence_table(0.35, rows, order_K)
    second = recurrence_table(0.35, rows, order_K)
    assert second.a is first.a and second.b is first.b
    for array in (first.a, first.b):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    half = np.arange(rows) + 0.5
    a, b_half = _power_table(-0.35 / (2.0 * math.pi * half), 0.0, rows, order_K)
    assert np.all(first.a == a) and np.all(first.b == 2.0 * b_half)


def test_verification_builds_each_model_table_once(monkeypatch):
    builds = []
    power_table = models._power_table

    def counting(seed_a, seed_b, n_rows, order_K):
        builds.append((n_rows, order_K))
        return power_table(seed_a, seed_b, n_rows, order_K)

    _disc_table.cache_clear()
    monkeypatch.setattr(models, "_power_table", counting)
    try:
        first = run_verification()
        second = run_verification()
    finally:
        _disc_table.cache_clear()
    # the disc recurrence at four lambdas shares one table, and the
    # seed-row check builds its own small one; the second run builds none
    assert sorted(builds) == [(10, 4), (61, 120)]
    assert [c.to_dict() for c in first.checks] == [c.to_dict() for c in second.checks]
