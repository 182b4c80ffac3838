"""The dense Schur solve keeps only unknowns whose row weight is at least 2**-64.

An unknown whose row weight lam**p or t**p is below this rounding-level cut
changes no entry it enters by more than the cut relative to that entry, so
the solve leaves it out of the LU and fills its A unknowns by one
substitution instead.  The solutions must still match a dense solve of the
whole operator, for the model forcings and for the factor columns.
"""

import numpy as np
import pytest

from pennycontact import models
from pennycontact.cli import main
from pennycontact.factorization import _column_rhs
from pennycontact.models import (
    _MIN_WEIGHT,
    _MODEL_SCALE,
    AnnulusProblem,
    DiscProblem,
    _annulus_forcings,
    _disc_forcing,
    _kept_counts,
    _row_weights,
    _solve_interleaved,
)

from oracles import system_matrix

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
SHRINKING = [(lam, t, N, system) for lam, t, N in CUT_CASES for system in SYSTEMS]


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("lam,t,N", CUT_CASES)
def test_cut_solve_matches_dense_solve(lam, t, N, system):
    t = None if system.startswith("disc") else t
    _assert_matches_dense(lam, t, _rhs(lam, t, N, system))


@pytest.mark.parametrize("lam,t,N,system", SHRINKING)
def test_rows_below_the_cut_satisfy_their_equations(lam, t, N, system):
    # Rows with weights in [cut 2**-10, cut) are left to the substitution, so
    # their own defect is judged relative to their weight (a zero fill would
    # leave a defect of the unknown's size).
    t = None if system.startswith("disc") else t
    rhs = _rhs(lam, t, N, system)
    x = _solve_interleaved(lam, t, rhs)
    k = rhs.shape[1]
    defect = system_matrix(lam, t, N) @ x.reshape(N * k, -1) - rhs.reshape(N * k, -1)
    weight = np.abs(_row_weights(lam, t, N)).T.reshape(-1)
    rows = (_MIN_WEIGHT * 2.0**-10 <= weight) & (weight < _MIN_WEIGHT)
    assert rows.any()
    scaled = np.abs(defect[rows]).max(axis=1) / weight[rows]
    assert scaled.max() <= 1e-13 * np.abs(x).max()


def _kept_rows(lam, t, N):
    """Rows per slot at or above 2**-64: B- lam**(2n), A+ lam**(2n+1), A- t**(2n+1), B+ t**(2n+2)."""
    powers = [(lam, 0), (lam, 1)] + ([] if t is None else [(t, 1), (t, 2)])
    return [sum(w ** (2 * n + p) >= 2.0**-64 for n in range(N)) for w, p in powers]


def _kept_a_rows(lam, t, N):
    """The Schur size: the kept A rows, A+ and (for the annulus) A-."""
    return sum(_kept_rows(lam, t, N)[1:3])


@pytest.mark.parametrize("lam,t", [(0.5, None), (0.9, None), (0.5, 0.3), (0.99, 0.95), (0.05, 0.0), (1e-305, None)])
@pytest.mark.parametrize("N", [1, 60, 240, 1000])
def test_kept_counts_follow_the_rule(lam, t, N):
    assert _kept_counts(_row_weights(lam, t, N)) == _kept_rows(lam, t, N)


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
# Schur solve keeps no row of that slot (and, for the disc, none at all).
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
    assert _kept_rows(lam, t, N)[1 if t is None else 2] == 0
    assert _lu_dimensions(monkeypatch, lam, t, rhs) == [_kept_a_rows(lam, t, N)]


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
