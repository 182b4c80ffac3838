"""The shared operator solved by eliminating its B unknowns, and the power tables."""

import math

import numpy as np
import pytest

from pennycontact.factorization import _column_rhs, solve_factor_columns_disc
from pennycontact.models import (
    _MODEL_SCALE,
    _SLOTS,
    AnnulusProblem,
    DiscProblem,
    _annulus_forcings,
    _disc_forcing,
    _power_table,
    _solve_interleaved,
)

from oracles import by_total_power, power_sums, power_table_oracle, system_matrix

# (lam, t, N): t = 0.05 at lam = 0.1 has subnormal weights lam**(2n+1) and
# t**(2n+1) at N = 240; t = 0 is the lam0 = 0 degenerate annulus; the last two
# keep every row of a large N, where the factored Hankel kernels carry the solve.
CASES = [
    (0.5, 0.5, 60),
    (0.99, 0.95, 240),
    (0.1, 0.05, 240),
    (0.5, 0.0, 60),
    (0.864, 0.919, 240),
    (0.95, 0.9, 500),
]


def _dense_solve(lam, t, rhs):
    N, k = rhs.shape[:2]
    x = np.linalg.solve(system_matrix(lam, t, N), rhs.reshape(N * k, -1))
    return x.reshape(rhs.shape)


def _assert_matches_dense(lam, t, rhs):
    x = _solve_interleaved(lam, t, rhs)
    assert x.shape == rhs.shape
    assert np.abs(x - _dense_solve(lam, t, rhs)).max() <= 1e-13 * np.abs(x).max()


@pytest.mark.parametrize("lam,N", [(lam, N) for lam, _, N in CASES[:3]])
def test_disc_elimination_matches_dense_solve(lam, N):
    forcing = _disc_forcing(DiscProblem(lam=lam, delta_star=1.0), N)
    _assert_matches_dense(lam, None, forcing * _MODEL_SCALE[:2])


@pytest.mark.parametrize("lam,t,N", CASES)
def test_annulus_elimination_matches_dense_solve(lam, t, N):
    forcing = _annulus_forcings(AnnulusProblem(lam0=t * lam, lam1=lam, delta_star=1.0), N)
    _assert_matches_dense(lam, t, forcing * _MODEL_SCALE)


@pytest.mark.parametrize("lam,t,N", CASES)
def test_annulus_factor_columns_elimination_matches_dense_solve(lam, t, N):
    _assert_matches_dense(lam, t, _column_rhs(lam, t, N))


@pytest.mark.parametrize("t", [None, 0.5])
def test_every_coupling_joins_a_B_slot_to_an_A_slot(t):
    k = 2 if t is None else 4
    matrix = system_matrix(0.5, t, 4)
    rows, cols = np.nonzero(matrix - np.eye(4 * k))
    blocks = set(zip(rows % k, cols % k))
    assert len(blocks) == (2 if t is None else 6)
    for row, col in blocks:
        assert {_SLOTS[row][0], _SLOTS[col][0]} == {"A", "B"}


@pytest.mark.parametrize("rows", [61, 240])
def test_model_power_table_matches_loop_oracle(rows):
    seed_a = -1.0 / (2.0 * math.pi * (np.arange(rows) + 0.5))
    a, b = _power_table(rows, 120)
    a_ref, b_ref = power_table_oracle(seed_a, 0.0, rows, 121)
    a_ref, b_ref = by_total_power(a_ref, 2.0 * b_ref, 120)
    assert a.shape == b.shape == (60, 121)
    np.testing.assert_allclose(a, a_ref, rtol=1e-14, atol=0)
    np.testing.assert_allclose(b, b_ref, rtol=1e-14, atol=0)


@pytest.mark.parametrize("rows", [61, 240])
@pytest.mark.parametrize("column_index", [1, 2])
def test_factor_power_table_matches_loop_oracle(rows, column_index):
    # the factor columns solve the models' operator under the Kronecker
    # forcings, so the loop oracle's tables seeded by them sum to the
    # column's reduction solve at the same truncation
    d1, d2 = float(column_index == 1), float(column_index == 2)
    a, b = power_table_oracle(2.0 * d2 / math.pi, -2.0 * d1 / math.pi, rows, 120)
    column = solve_factor_columns_disc(0.5, rows)[column_index - 1]
    a_sum, b_sum = power_sums(0.5, a, b, rows)
    np.testing.assert_allclose(column.A_plus, a_sum, rtol=1e-13, atol=0)
    np.testing.assert_allclose(column.B_minus, b_sum, rtol=1e-13, atol=0)
