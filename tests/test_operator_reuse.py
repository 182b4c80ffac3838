"""The geometry-independent parts of the shared operator, built once.

The weight-free Hankel and Toeplitz kernels are shared read-only per N by
every solve and residual, the disc lambda-power table is shared read-only per
row count and order, and the residuals apply the operator block by block.
Each must give what the direct construction gives.
"""

import dataclasses
import math
import tracemalloc

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
    _apply_operator,
    _disc_forcing,
    _disc_table,
    _interleave,
    _kernels,
    _power_table,
    _row_weights,
    solve_annulus_reduction,
    solve_disc_reduction,
    system_residual,
)
from pennycontact.verify import run_verification

from oracles import _couplings, system_matrix


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


_OPERATOR_GRID = pytest.mark.parametrize("N", [1, 2, 60, 240])
_GEOMETRIES = pytest.mark.parametrize("lam,t", [(0.5, None), (0.9, 0.4), (0.2, 0.1)])


@_OPERATOR_GRID
@_GEOMETRIES
def test_couplings_are_bit_identical_to_fresh_denominators(lam, t, N):
    h = 1 if t is None else 2
    P, Q = _couplings(lam, t, N)
    assert P.shape == (h, N, N) and Q.shape == (h, N, h, N)
    assert np.all(system_matrix(lam, t, N) == _fresh_operator(lam, t, N))


@_OPERATOR_GRID
@_GEOMETRIES
def test_kernel_operator_matches_the_divided_matrix(lam, t, N):
    x = np.random.default_rng(N).standard_normal((N, 2 if t is None else 4))
    want = system_matrix(lam, t, N) @ x.ravel()
    got = _apply_operator(lam, t, x).ravel()
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("N", [1, 2, 7])
def test_kernel_entries_are_the_reciprocal_denominators(N):
    hankel, toeplitz = _kernels(N)
    assert hankel.shape == toeplitz.shape == (N, N + 1)
    for n in range(N):
        for m in range(N + 1):
            assert hankel[n, m] == 1.0 / (math.pi * (n + m + 0.5))
            assert toeplitz[n, m] == 1.0 / (math.pi * (n - m + 0.5))


def test_kernels_are_read_only():
    problem = AnnulusProblem(lam0=0.2, lam1=0.5, delta_star=0.7)
    before = solve_annulus_reduction(problem, 8)
    for kernel in _kernels(8):
        with pytest.raises(ValueError):
            kernel[0, 0] = math.nan
    after = solve_annulus_reduction(problem, 8)
    for name in ("A_plus", "A_minus", "B_plus", "B_minus"):
        assert np.array_equal(getattr(before, name), getattr(after, name))


def test_every_operator_caller_shares_one_kernel_build(monkeypatch):
    N, lam0, lam1 = 24, 0.2, 0.5
    disc = DiscProblem(lam=lam1, delta_star=0.7)
    annulus = AnnulusProblem(lam0=lam0, lam1=lam1, delta_star=0.7)
    builds, served = [], []
    build_kernels, kernels = models._build_kernels, models._kernels
    monkeypatch.setattr(models, "_kernel_table", [])
    monkeypatch.setattr(models, "_build_kernels", lambda n: builds.append(n) or build_kernels(n))
    monkeypatch.setattr(models, "_kernels", lambda n: served.append(kernels(n)) or served[-1])
    system_residual(disc, solve_disc_reduction(disc, N))
    system_residual(annulus, solve_annulus_reduction(annulus, N))
    for columns in (solve_factor_columns_disc(lam1, N), solve_factor_columns_annulus(lam0, lam1, N)):
        for column in columns:
            factor_system_residual(column)
    # two solves, their residuals, two column solves and five column residuals
    assert len(served) == 11 and builds == [N]
    hankel, toeplitz = models._kernel_table
    assert all(pair[0].base is hankel and pair[1].base is toeplitz for pair in served)
    assert not any(kernel.flags.writeable for kernel in served[0])


def _peak_bytes(fn):
    """The tracemalloc peak of one call, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_annulus_solve_and_residual_build_no_n_squared_array():
    # one weighted N x N block at N = 1000 is 7.6 MiB, and building the
    # annulus P and Q by division took six of them
    problem = AnnulusProblem(lam0=0.45, lam1=0.9, delta_star=0.7)
    coeffs = solve_annulus_reduction(problem, 1000)
    assert _peak_bytes(lambda: solve_annulus_reduction(problem, 1000)) <= 4 * 2**20
    assert _peak_bytes(lambda: system_residual(problem, coeffs)) <= 2**20


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
# the disc lambda-power table shared per row count and order
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rows,order_K", [(10, 4), (61, 120), (240, 120)])
def test_model_table_is_shared_read_only_and_fresh_valued(rows, order_K):
    first = _disc_table(rows, order_K)
    second = _disc_table(rows, order_K)
    assert second[0] is first[0] and second[1] is first[1]
    for array in first:
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    a, b = _power_table(rows, order_K)
    assert np.all(first[0] == a) and np.all(first[1] == b)


def test_verification_builds_each_model_table_once(monkeypatch):
    builds = []
    power_table = models._power_table

    def counting(n_rows, order_K):
        builds.append((n_rows, order_K))
        return power_table(n_rows, order_K)

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


def test_a_second_verification_builds_no_kernel_and_no_factor(monkeypatch):
    builds = []
    build_kernels = models._build_kernels

    def counting(N):
        builds.append(N)
        return build_kernels(N)

    monkeypatch.setattr(models, "_build_kernels", counting)
    monkeypatch.setattr(models, "_kernel_table", [])
    models._hankel_factor.cache_clear()
    run_verification()
    first = models._hankel_factor.cache_info()
    run_verification()
    second = models._hankel_factor.cache_info()
    # every N of the run (60, 40, 30, 20, 16, 10, 8) is a slice of one table,
    # and the factor cache holds every (N, window) the run reads
    assert builds == [60]
    assert first.misses == 8 and second.misses == first.misses
