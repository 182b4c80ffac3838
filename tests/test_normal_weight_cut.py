"""The dense Schur solve keeps only unknowns whose row weight is at least 2**-1000.

Rows whose weight lam**p or t**p is below the cut would carry subnormal
numbers into the gemm and the LU; their A unknowns are filled by one
substitution instead.  The solutions must still match a dense solve of the
whole operator, for the model forcings and for the factor columns.
"""

import numpy as np
import pytest

from pennycontact import models
from pennycontact.cli import main
from pennycontact.factorization import _column_rhs
from pennycontact.models import (
    _MODEL_SCALE,
    AnnulusProblem,
    DiscProblem,
    _annulus_forcings,
    _disc_forcing,
    _row_weights,
    _solve_interleaved,
    system_matrix,
)

# (lam, t, N) with weights below the cut: both small, lam small, t small, t = 0.
CUT_CASES = [
    (0.212, 0.179, 240),
    (0.065, 0.427, 240),
    (0.814, 0.075, 240),
    (0.05, 0.0, 240),
]


def _dense_solve(lam, t, rhs):
    N, k = rhs.shape[:2]
    x = np.linalg.solve(system_matrix(lam, t, N), rhs.reshape(N * k, -1))
    return x.reshape(rhs.shape)


def _assert_matches_dense(lam, t, rhs):
    x = _solve_interleaved(lam, t, rhs)
    assert np.all(np.isfinite(x))
    assert np.abs(x - _dense_solve(lam, t, rhs)).max() <= 1e-13 * np.abs(x).max()


def _rhs(lam, t, N, system):
    if system == "disc":
        return _disc_forcing(DiscProblem(lam=lam, delta_star=1.0), N) * _MODEL_SCALE[:2]
    if system == "disc columns":
        return _column_rhs(lam, None, N)
    if system == "annulus":
        problem = AnnulusProblem(lam0=t * lam, lam1=lam, delta_star=1.0)
        return _annulus_forcings(problem, N) * _MODEL_SCALE
    return _column_rhs(lam, t, N)


SYSTEMS = ["disc", "disc columns", "annulus", "annulus columns"]
# The disc systems see lam alone, and lam = 0.814 keeps every weight at N = 240.
SHRINKING = [
    (lam, t, N, system)
    for lam, t, N in CUT_CASES
    for system in SYSTEMS
    if not (system.startswith("disc") and lam == 0.814)
]


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("lam,t,N", CUT_CASES)
def test_cut_solve_matches_dense_solve(lam, t, N, system):
    t = None if system.startswith("disc") else t
    _assert_matches_dense(lam, t, _rhs(lam, t, N, system))


@pytest.mark.parametrize("lam,t,N,system", SHRINKING)
def test_rows_below_the_cut_satisfy_their_equations(lam, t, N, system):
    # Rows with weights in [2**-1010, 2**-1000) are left to the substitution
    # and still normal numbers, so their own defect can be judged relative to
    # their weight (a zero fill would leave a defect of the unknown's size).
    t = None if system.startswith("disc") else t
    rhs = _rhs(lam, t, N, system)
    x = _solve_interleaved(lam, t, rhs)
    k = rhs.shape[1]
    defect = system_matrix(lam, t, N) @ x.reshape(N * k, -1) - rhs.reshape(N * k, -1)
    weight = np.abs(_row_weights(lam, t, N)).T.reshape(-1)
    rows = (2.0**-1010 <= weight) & (weight < 2.0**-1000)
    assert rows.any()
    scaled = np.abs(defect[rows]).max(axis=1) / weight[rows]
    assert scaled.max() <= 1e-13 * np.abs(x).max()


def _kept_a_rows(lam, t, N):
    """A rows (A+ weight lam**(2n+1), A- weight t**(2n+1)) at or above 2**-1000."""
    weights = [lam ** (2 * n + 1) for n in range(N)]
    if t is not None:
        weights += [t ** (2 * n + 1) for n in range(N)]
    return sum(w >= 2.0**-1000 for w in weights)


def _lu_dimensions(monkeypatch, lam, t, rhs):
    dims = []
    solve_dense = models._solve_dense

    def recording(matrix, rhs):
        dims.append(matrix.shape[0])
        return solve_dense(matrix, rhs)

    monkeypatch.setattr(models, "_solve_dense", recording)
    _solve_interleaved(lam, t, rhs)
    return dims


@pytest.mark.parametrize("lam,t,N,system", SHRINKING)
def test_cut_shrinks_the_lu(monkeypatch, lam, t, N, system):
    t = None if system.startswith("disc") else t
    h = 1 if t is None else 2
    dims = _lu_dimensions(monkeypatch, lam, t, _rhs(lam, t, N, system))
    assert dims == [_kept_a_rows(lam, t, N)]
    assert dims[0] < h * N


@pytest.mark.parametrize("system", SYSTEMS)
def test_normal_weights_keep_the_full_lu(monkeypatch, system):
    lam, t, N = 0.99, 0.95, 240
    t = None if system.startswith("disc") else t
    h = 1 if t is None else 2
    assert _lu_dimensions(monkeypatch, lam, t, _rhs(lam, t, N, system)) == [h * N]


# (lam, t, system) with one A slot below the cut at every n: the disc A+ weights
# lam**(2n+1) and, at t = 2e-306, the annulus A- weights t**(2n+1), so the
# Schur solve has a block of zero rows.
EMPTY_SLOT_CASES = [
    (1e-305, None, "disc"),
    (1e-305, None, "disc columns"),
    (0.5, 2e-306, "annulus"),
    (0.5, 2e-306, "annulus columns"),
]


@pytest.mark.parametrize("lam,t,system", EMPTY_SLOT_CASES)
def test_a_slot_cut_entirely_matches_dense_solve(monkeypatch, lam, t, system):
    N = 60
    rhs = _rhs(lam, t, N, system)
    _assert_matches_dense(lam, t, rhs)
    assert _lu_dimensions(monkeypatch, lam, t, rhs) == [0 if t is None else N]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--lambda", "1e-305"],
        ["solve", "--model", "annulus", "--lambda0", "1e-306", "--lambda1", "0.5"],
    ],
)
def test_solve_with_a_slot_cut_entirely_exits_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
