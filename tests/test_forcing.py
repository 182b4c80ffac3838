"""The annulus forcing built as arrays from one f_m pass.

At the points where the annulus equations sample them, the three forcing
functions omega_1^-(2k+1), omega_1^+(-(2k+1)) and omega_2^-(2k+2) are checked
against mpmath evaluations of their definitions (closed hypergeometric
omega-tilde, kernel factors as gamma quotients) and against the scalar
reference omega_annulus_flat, at N = 240.
"""

import math

import mpmath
import numpy as np
import pytest

from pennycontact.models import (
    AnnulusProblem,
    _annulus_forcings,
    _annulus_omegas,
    _gamma_ratios,
    _omega_tilde_columns,
    omega1_disc,
    omega_annulus_flat,
)

N = 240
RATIOS = [0.001, 0.05, 0.5, 0.87, 0.95, 0.99]


def _problem(ratio):
    return AnnulusProblem(lam0=ratio * 0.5, lam1=0.5, delta_star=1.0)


def exact_omegas(ratio: float, delta_star: float, count: int) -> np.ndarray:
    """The three forcing columns from their definitions, in 40-digit arithmetic."""
    out = np.empty((count, 3))
    with mpmath.workdps(40):
        t = mpmath.mpf(ratio)
        x = t * t
        rpi = mpmath.sqrt(mpmath.pi)
        scale = delta_star * rpi / 2

        def wt_plus(s):
            return 2 * (mpmath.hyp2f1(-s / 2, 0.5, 1 - s / 2, x) - 1) / (rpi * s)

        def inv_l_plus(s):
            return mpmath.gamma(1 - s / 2) * mpmath.rgamma(mpmath.mpf(1) / 2 - s / 2)

        for k in range(count):
            s = mpmath.mpf(2 * k + 1)
            kernel_term = (2 / s) * inv_l_plus(s) * t**s
            out[k, 0] = scale * (-2 / (s * rpi) + kernel_term - wt_plus(s))
            out[k, 1] = scale * ((2 / -s) * (inv_l_plus(-s) - 1 / rpi) - wt_plus(-s))
            s = mpmath.mpf(2 * k + 2)
            l_minus = mpmath.gamma(mpmath.mpf(1) / 2 + s / 2) * mpmath.rgamma(s / 2)
            wt_minus = t * mpmath.hyp2f1((s + 1) / 2, 0.5, (s + 3) / 2, x) / (rpi * (s + 1))
            out[k, 2] = scale * (l_minus / s - wt_minus)
    return out


def scalar_omegas(p: AnnulusProblem, count: int) -> np.ndarray:
    return np.array(
        [
            [
                omega_annulus_flat(1, "minus", 2.0 * k + 1.0, p),
                omega_annulus_flat(1, "plus", -(2.0 * k + 1.0), p),
                omega_annulus_flat(2, "minus", 2.0 * k + 2.0, p),
            ]
            for k in range(count)
        ]
    )


@pytest.mark.parametrize("ratio", RATIOS)
def test_forcing_columns_match_mpmath(ratio):
    p = _problem(ratio)
    want = exact_omegas(p.radius_ratio, p.delta_star, N)
    got = _annulus_omegas(p, N)
    assert np.abs((got - want) / want).max() <= 1e-14


@pytest.mark.parametrize("ratio", RATIOS)
def test_forcing_columns_match_scalar_reference(ratio):
    p = _problem(ratio)
    want = scalar_omegas(p, N)
    assert np.abs((_annulus_omegas(p, N) - want) / want).max() <= 1e-12


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
    disc = np.array([omega1_disc("minus", 2.0 * k + 1.0, p.delta_star) for k in range(N)])
    np.testing.assert_allclose(omega[:, 0], disc, rtol=1e-15, atol=0)
    forcing = _annulus_forcings(p, N)
    assert np.all(forcing[:, [0, 2, 3]] == 0.0)


def test_forcing_has_no_hidden_cache():
    p = _problem(0.5)
    first = _annulus_forcings(p, N)
    first[:] = math.nan
    assert np.all(np.isfinite(_annulus_forcings(p, N)))
