"""The pivoted-Cholesky factors of the Hankel windows behind the one LU.

_hankel_factor(N, j) factors window j of the hankel kernel,
1/(pi (n + m + j + 1/2)), so that the solve needs only the capacitance
matrix of their ranks.  The factor must match its window to its rounding
stop, keep a small rank, end under any stop, build no N x N array, and
depend on (N, j) alone, so that a solve's bits do not depend on what the
process solved before.
"""

import math
import tracemalloc

import numpy as np
import pytest

from pennycontact import models
from pennycontact.models import AnnulusProblem, DiscProblem, solve_annulus_reduction, solve_disc_reduction


def _window(N, j):
    n = np.arange(N)
    return 1.0 / (math.pi * (n[:, np.newaxis] + n + j + 0.5))


def _assert_matches_window(factor, N, j):
    # the stop bounds the residual by 2**-53 K_00 in exact arithmetic; the
    # stored factor adds the rounding of its own products, at most one unit
    # in the last place of K_00 (sqrt(K_00)**2 misses K_00 by one for j = 1)
    window = _window(N, j)
    top = window[0, 0]
    assert np.abs(factor @ factor.T - window).max() <= 2.0**-53 * top + np.spacing(top)


@pytest.mark.parametrize("window", [0, 1])
@pytest.mark.parametrize("N", [1, 2, 8, 60, 240, 1000])
def test_factor_matches_its_window(N, window):
    factor = models._hankel_factor(N, window)
    assert factor.shape[0] == N and 1 <= factor.shape[1] <= N
    assert not factor.flags.writeable
    _assert_matches_window(factor, N, window)


@pytest.mark.parametrize("window", [0, 1])
def test_rank_stays_small_at_the_cap(window):
    assert models._hankel_factor(1000, window).shape[1] <= 32


@pytest.mark.parametrize("N", [8, 60])
def test_build_ends_under_an_unreachable_stop(monkeypatch, N):
    # no residual diagonal of a positive-definite window reaches 0 before N
    # columns in exact arithmetic, so the loop must end by its cap or by
    # roundoff flooring the residual, and stay finite
    monkeypatch.setattr(models, "_FACTOR_TOL", 0.0)
    factor = models._hankel_factor.__wrapped__(N, 0)
    assert factor.shape[1] <= N
    assert np.all(np.isfinite(factor))
    _assert_matches_window(factor, N, 0)


def test_build_allocates_no_n_squared_array():
    # one N x N array at N = 1000 is 7.6 MiB
    models._hankel_factor.__wrapped__(1000, 1)
    tracemalloc.start()
    try:
        models._hankel_factor.__wrapped__(1000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def _solves_at_60():
    disc = solve_disc_reduction(DiscProblem(lam=0.9, delta_star=0.7), 60)
    annulus = solve_annulus_reduction(AnnulusProblem(lam0=0.45, lam1=0.9, delta_star=0.7), 60)
    return [disc.A_plus, disc.B_minus, annulus.A_plus, annulus.A_minus, annulus.B_plus, annulus.B_minus]


def test_a_solve_does_not_depend_on_what_was_solved_before(monkeypatch):
    # after an N = 240 solve, the N = 60 kernels are slices of the larger
    # table and its factors are built again: the bits must not move
    monkeypatch.setattr(models, "_kernel_table", [])
    models._hankel_factor.cache_clear()
    before = _solves_at_60()
    solve_annulus_reduction(AnnulusProblem(lam0=0.45, lam1=0.9, delta_star=0.7), 240)
    assert len(models._kernel_table[0]) == 240
    models._hankel_factor.cache_clear()
    after = _solves_at_60()
    for first, second in zip(before, after):
        assert np.array_equal(first, second)
