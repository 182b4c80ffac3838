"""The annulus forcing built as arrays from one f_m pass.

At the points where the annulus equations sample them, the three forcing
functions omega_1^-(2k+1), omega_1^+(-(2k+1)) and omega_2^-(2k+2) are checked
against mpmath evaluations of their definitions (closed hypergeometric
omega-tilde, kernel factors as gamma quotients), at N = 240.
"""

import math

import mpmath
import numpy as np
import pytest
from oracles import exact_omegas

from pennycontact.models import (
    AnnulusProblem,
    _annulus_forcings,
    _annulus_omegas,
    _gamma_ratios,
    _omega_tilde_columns,
)

N = 240
RATIOS = [0.001, 0.05, 0.5, 0.87, 0.95, 0.99]


def _problem(ratio):
    return AnnulusProblem(lam0=ratio * 0.5, lam1=0.5, delta_star=1.0)


@pytest.mark.parametrize("ratio", RATIOS)
def test_forcing_columns_match_mpmath(ratio):
    p = _problem(ratio)
    want = exact_omegas(p.radius_ratio, p.delta_star, N)
    got = _annulus_omegas(p, N)
    assert np.abs((got - want) / want).max() <= 1e-14


def test_gamma_ratio_product_matches_mpmath():
    with mpmath.workdps(40):
        three_halves = mpmath.mpf(3) / 2
        want = [mpmath.gamma(k + three_halves) / mpmath.factorial(k) for k in range(N)]
        want = np.array([float(w) for w in want])
    assert np.abs(_gamma_ratios(N) / want - 1.0).max() <= 1e-14


def test_inner_radius_zero_leaves_no_correction_term():
    p = AnnulusProblem(lam0=0.0, lam1=0.5, delta_star=0.7)
    assert np.all(_omega_tilde_columns(0.0, N) == 0.0)
    omega = _annulus_omegas(p, N)
    # the disc forcing omega_1^-(s) = -delta_star/s at s = 2k+1
    disc = -p.delta_star / (2.0 * np.arange(N) + 1.0)
    np.testing.assert_allclose(omega[:, 0], disc, rtol=1e-15, atol=0)
    forcing = _annulus_forcings(p, N)
    assert np.all(forcing[:, [0, 2, 3]] == 0.0)


def test_forcing_has_no_hidden_cache():
    # the forcing is cached, so a caller must not be able to corrupt a later call
    p = _problem(0.5)
    first = _annulus_forcings(p, N)
    before = first.copy()
    with pytest.raises(ValueError):
        first[:] = math.nan
    assert np.array_equal(_annulus_forcings(p, N), before)
