"""Recurrence-evaluated hypergeometric families and array field evaluation.

The f_m family behind the displacement and the H_m column behind the
stresses are checked against mpmath at the truncation orders the CLI
uses; every public field evaluator is checked to give on an array what
it gives point by point.
"""

import math

import mpmath
import numpy as np
import pytest

from pennycontact import fields
from pennycontact.cli import _displacement_grid
from pennycontact.fields import _f_family, _hyp_column
from pennycontact.models import DiscProblem, solve_disc_reduction
from pennycontact.specfun import f_m_limit

DSTAR = 2.0 * 0.05 / math.sqrt(math.pi)


def _f_points(count):
    top = count - 1
    return np.concatenate(
        [
            np.linspace(0.0, 0.7, 8),
            np.linspace(0.75, 0.9, 7),  # where the scalar transformed f_m fails
            1.0 - np.logspace(-1, -12, 12),
            1.0 - np.array([0.5, 0.9, 1.0, 1.1, 2.0]) / top,  # around the seed switch
        ]
    )


@pytest.mark.parametrize("count", [60, 240])
def test_f_family_matches_mpmath(count):
    x = _f_points(count)
    F = _f_family(count, x)
    assert F.shape == (count, len(x))
    worst = 0.0
    with mpmath.workdps(30):
        for m in sorted({0, 1, 2, 7, 30, count // 2, count - 2, count - 1}):
            for i, xi in enumerate(x):
                want = mpmath.hyp2f1(0.5, m + 0.5, m + 1.5, mpmath.mpf(float(xi)))
                worst = max(worst, float(abs(F[m, i] - want) / want))
    assert worst <= 1e-14


def test_f_limit_is_rounded_once_at_large_m():
    # the edge-form seed multiplies f_m(1-) by x**-(m+1/2) and then cancels,
    # so its error is magnified several times
    with mpmath.workdps(30):
        for m in (141, 239, 500, 999):
            want = mpmath.pi * mpmath.rf(1.5, m) / (2 * mpmath.factorial(m))
            assert abs(f_m_limit(m) - want) <= 4e-16 * want, m


def test_h_column_matches_mpmath():
    # H_m changes sign in x, so the error is measured against
    # max(|H_m|, (1-x)**-1/2): the size of the recurrence's own terms.
    x = np.linspace(0.0, 0.9025, 24)
    scale_floor = 1.0 / np.sqrt(1.0 - x)
    worst = 0.0
    with mpmath.workdps(30):
        for m in list(range(0, 240, 9)) + [239]:
            unit = np.zeros(m + 1)
            unit[m] = m - 0.5  # undo the 1/(m - 1/2) weight of the column sum
            got = _hyp_column(unit, x)
            for i, xi in enumerate(x):
                want = mpmath.hyp2f1(1.5, 0.5 - m, 1.5 - m, mpmath.mpf(float(xi)))
                scale = max(abs(float(want)), scale_floor[i])
                worst = max(worst, float(abs(got[i] - want)) / scale)
    assert worst <= 1e-14


def _mp_displacement(p, c, r):
    """The truncated displacement sum at one point, every term in mpmath.

    The arguments lam/r, (lam/r)**2 and r**2 are the doubles the library
    forms, so the comparison measures the family and summation error, not
    the rounding of lam/r (which near r = lam the square-root edge of f_m
    and arcsin amplify by ~1e4 whatever evaluates the sum).
    """
    z = p.lam / float(r)
    b_arg, a_arg = mpmath.mpf(z * z), mpmath.mpf(float(r) * float(r))
    g_b = g_a = mpmath.mpf(0)
    for m in range(len(c.A_plus)):
        g_b += mpmath.mpf(float(c.B_minus[m])) / (2 * m + 1) * mpmath.hyp2f1(0.5, m + 0.5, m + 1.5, b_arg)
        g_a += mpmath.mpf(float(c.A_plus[m])) / (2 * m + 1) * mpmath.hyp2f1(0.5, m + 0.5, m + 1.5, a_arg)
    root_pi = mpmath.sqrt(mpmath.pi)
    value = (
        mpmath.mpf(p.delta_star) / root_pi * mpmath.asin(mpmath.mpf(z))
        - mpmath.mpf(p.lam) / (root_pi * mpmath.mpf(float(r))) * g_b
        + 2 / root_pi * g_a
    )
    return float(mpmath.mpf(p.theta1) * value)


@pytest.mark.parametrize("lam", [0.3, 0.6, 0.9])
def test_displacement_sum_at_n240_matches_mpmath(lam):
    p = DiscProblem(lam=lam, delta_star=DSTAR)
    c = solve_disc_reduction(p, 240)
    grid = _displacement_grid(lam, 400)
    rows = np.concatenate([grid[:2], grid[len(grid) // 2 : len(grid) // 2 + 1], grid[-2:]])
    got = fields.displacement(p, c, rows)
    with mpmath.workdps(30):
        want = [_mp_displacement(p, c, r) for r in rows]
    assert np.max(np.abs(got - want)) <= 1e-14


# Each evaluator on points inside the region its representation serves.
_EVALUATORS = {
    "stress_contact": np.concatenate([np.linspace(0.0, 0.99, 21), 1.0 - np.logspace(-3, -9, 4)]),
    "stress_contact_series": np.linspace(0.0, 0.95, 21),
    "stress_contact_edge": np.concatenate([np.linspace(0.8, 0.99, 17), 1.0 - np.logspace(-3, -9, 4)]),
    "stress_outer": np.concatenate([1.0 + np.logspace(-9, -2, 4), np.linspace(1.01, 40.0, 21)]),
    "stress_outer_series": np.linspace(1.05, 40.0, 21),
    "stress_outer_edge": np.concatenate([1.0 + np.logspace(-9, -2, 4), np.linspace(1.01, 1.25, 17)]),
}
_OUT_OF_RANGE = {
    "stress_contact": 1.0,
    "stress_contact_series": -0.1,
    "stress_contact_edge": 1.5,
    "stress_outer": 1.0,
    "stress_outer_series": 0.5,
    "stress_outer_edge": 1.0,
    "displacement": 1.0,
}


def _points(name, lam):
    if name == "displacement":
        return lam + (1.0 - lam) * np.concatenate([[1e-8], np.linspace(0.01, 0.99, 21), [1.0 - 1e-8]])
    return _EVALUATORS[name]


@pytest.mark.parametrize("lam", [0.3, 0.9])
@pytest.mark.parametrize("name", sorted(_OUT_OF_RANGE))
def test_array_equals_pointwise_calls(name, lam):
    p = DiscProblem(lam=lam, delta_star=DSTAR)
    c = solve_disc_reduction(p, 60)
    fn = getattr(fields, name)
    r = _points(name, lam)
    pointwise = [fn(p, c, float(v)) for v in r]
    assert all(type(v) is float for v in pointwise)
    got = fn(p, c, r)
    assert isinstance(got, np.ndarray) and got.shape == r.shape
    # Sums run in another order on an array; near the crack tip the
    # displacement is a difference of O(delta/a) = 0.05 terms, hence atol.
    np.testing.assert_allclose(got, pointwise, rtol=1e-14, atol=1e-16)


@pytest.mark.parametrize("name", sorted(_OUT_OF_RANGE))
def test_one_bad_point_rejects_the_array(name):
    p = DiscProblem(lam=0.5, delta_star=DSTAR)
    fn = getattr(fields, name)
    r = _points(name, 0.5).copy()
    r[len(r) // 2] = _OUT_OF_RANGE[name]
    # the whole array is validated before the coefficients are touched
    with pytest.raises(ValueError, match=repr(_OUT_OF_RANGE[name])):
        fn(p, None, r)


def test_edge_weights_are_cached_read_only():
    first = fields._edge_weights(12)
    assert fields._edge_weights(12) is first
    assert not first.flags.writeable


def _mp_hyp_sum(coeffs, x):
    """sum_m coeffs[m] 2F1(3/2, 1/2-m; 3/2-m; x) / (m - 1/2), every term in mpmath."""
    x = mpmath.mpf(float(x))
    return sum(
        mpmath.mpf(float(a)) * mpmath.hyp2f1(1.5, 0.5 - m, 1.5 - m, x) / (m - mpmath.mpf(0.5))
        for m, a in enumerate(coeffs)
    )


@pytest.mark.parametrize("lam", [0.9, 0.95, 0.99])
def test_stress_in_the_former_edge_windows_matches_mpmath(lam):
    # The edge form's alternating power sums cancel like (lam**2 (1 + u))**m,
    # which at lam = 0.95, N = 240 gave +719 for a contact stress of -0.109.
    # The oracle is the truncated series of the library's own coefficients.
    p = DiscProblem(lam=lam, delta_star=DSTAR)
    c = solve_disc_reduction(p, 240)
    contact = np.array([0.8001, 0.85, 0.9, 0.95, 0.99, 1.0 - 1e-6])
    outer = np.array([1.0 + 1e-6, 1.01, 1.05, 1.1, 1.2, 1.2499])
    got_contact = fields.stress_contact(p, c, contact)
    got_outer = fields.stress_outer(p, c, outer)
    with mpmath.workdps(50):
        root_pi = mpmath.sqrt(mpmath.pi)
        for r, got in zip(contact, got_contact):
            x = mpmath.mpf(float(r * r))
            want = -mpmath.mpf(p.delta_star) / (lam * mpmath.sqrt(mpmath.pi * (1 - x)))
            want -= _mp_hyp_sum(c.B_minus, x) / (2 * lam * root_pi)
            assert abs(got - want) <= 1e-12 * abs(want), r
            assert got < 0.0
        for r, got in zip(outer, got_outer):
            x = mpmath.mpf(float(1.0 / (r * r)))
            want = _mp_hyp_sum(c.A_plus, x) * x**1.5 / root_pi
            assert abs(got - want) <= 1e-12 * abs(want), r
            assert got > 0.0
