"""The f_m family and the K column from one recurrence, and the scalar f_m.

specfun._recurrence runs every column recurrence of the package: on Python
floats for one point and on numpy rows for more, with the same operations
in the same order, so a point gives the same bits on either path.  The
public f_m evaluates the family's seed series, and the continuity column
is that one f_m call at the last kept row, recurred down.  A lone point's
seed series runs on 1-D arrays to the bits of the block path; a point of an
array can get other bits, where many points are summing beside it.
"""

import math

import mpmath
import numpy as np
import pytest

from pennycontact import fields, specfun
from pennycontact.cli import RunConfig, _displacement_grid, run_solve
from pennycontact.fields import _hyp_column
from pennycontact.models import DiscProblem, solve_disc_reduction
from pennycontact.specfun import _f_family, _f_family_below, f_m

DSTAR = 2.0 * 0.05 / math.sqrt(math.pi)

FM_ORDERS = [0, 1, 2, 30, 100, 141, 240, 500, 999]
FM_LAMBDAS = [0.01, 0.3, 0.5, 0.75, 0.87, 0.9, 0.95, 0.99, 0.995]


def test_f_m_matches_mpmath():
    # The textbook 1-x transformation of 2F1 cancels for large m above
    # x = 3/4: it was off by up to 1e16 relative on this grid.  f_m's edge
    # series has positive terms instead.
    worst = 0.0
    with mpmath.workdps(30):
        for lam in FM_LAMBDAS:
            x = lam * lam
            for m in FM_ORDERS:
                want = mpmath.hyp2f1(0.5, m + 0.5, m + 1.5, mpmath.mpf(x))
                worst = max(worst, float(abs(f_m(m, x) - want) / want))
    assert worst <= 1e-14


@pytest.mark.parametrize("m", [-1, 1.5, -0.5])
def test_f_m_rejects_a_bad_index(m):
    with pytest.raises(ValueError, match="index must be a nonnegative integer"):
        f_m(m, 0.25)


@pytest.mark.parametrize("x", [1.0, -1e-300, -0.2, 1.5, math.nan])
def test_f_m_rejects_an_argument_outside_the_unit_interval(x):
    with pytest.raises(ValueError, match=r"argument must lie in \[0, 1\)"):
        f_m(3, x)


def test_f_m_returns_a_float():
    assert type(f_m(np.int64(4), np.float64(0.5))) is float
    assert f_m(7, 0.0) == 1.0


COUNTS = [1, 2, 61, 241, 1000]
POINTS = [0.0, 1e-40, 0.25, 0.81, 0.9801]
F_POINTS = POINTS + [1.0 - 1e-12]


def _h_family(count, x):
    # Row m of the identity picks H_m / (m - 1/2) out of the column sum: one
    # nonzero product per entry, so the matrix product adds only exact zeros.
    return _hyp_column(np.eye(count), x)


@pytest.mark.parametrize(
    "family, points",
    [(_f_family, F_POINTS), (_f_family_below, F_POINTS), (_h_family, POINTS)],
    ids=["f_down", "f_below", "h_up"],
)
@pytest.mark.parametrize("count", COUNTS)
def test_one_point_equals_its_column_of_two(family, points, count):
    for i, x in enumerate(points):
        other = points[(i + 1) % len(points)]
        one = family(count, np.array([x]))
        two = family(count, np.array([x, other]))
        assert one.shape == (count, 1) and two.shape == (count, 2)
        assert np.all(np.isfinite(one))
        assert np.array_equal(one[:, 0], two[:, 0]), (count, x)


def _continuity_mp(p, B_minus, A_plus):
    """Both continuity defects from their closed forms, every term in mpmath."""
    lam = mpmath.mpf(p.lam)
    x = mpmath.mpf(p.lam * p.lam)
    root_pi = mpmath.sqrt(mpmath.pi)
    delta0 = mpmath.mpf(p.delta_over_a)
    gam_b = gam_a = f_b = f_a = mpmath.mpf(0)
    for m in range(len(A_plus)):
        gam = mpmath.gamma(m + mpmath.mpf(0.5)) / mpmath.factorial(m)
        f = mpmath.hyp2f1(0.5, m + 0.5, m + 1.5, x) / (2 * m + 1)
        b, a = mpmath.mpf(float(B_minus[m])), mpmath.mpf(float(A_plus[m]))
        gam_b += b * gam
        gam_a += a * gam
        f_b += b * f
        f_a += a * f
    chi_b = -delta0 + gam_b / 2 - 2 / root_pi * f_a
    chi_a = -mpmath.mpf(p.delta_star) / root_pi * mpmath.asin(lam) + lam / root_pi * f_b - gam_a
    return abs(chi_b + delta0), abs(chi_a)


@pytest.mark.parametrize("N", [60, 240])
@pytest.mark.parametrize("lam", [0.87, 0.9, 0.95])
def test_continuity_column_from_one_f_m_call(monkeypatch, lam, N):
    p = DiscProblem(lam=lam, delta_star=DSTAR)
    c = solve_disc_reduction(p, N)
    calls, columns = [], []

    def counted_f_m(m, x):
        calls.append((m, x))
        return f_m(m, x)

    def recorded(seed, count, x):
        columns.append(specfun._f_from_seed(seed, count, x)[:, 0])
        return columns[-1][:, np.newaxis]

    monkeypatch.setattr(fields, "f_m", counted_f_m)
    monkeypatch.setattr(fields, "_f_from_seed", recorded)
    got = fields.continuity_defects(p, c)
    B_minus, A_plus = fields._kept(p, c)
    assert calls == [(len(A_plus) - 1, lam * lam)]
    assert len(columns) == 1 and len(columns[0]) == len(A_plus)
    with mpmath.workdps(50):
        x = mpmath.mpf(lam * lam)
        worst = max(
            float(abs(v - mpmath.hyp2f1(0.5, m + 0.5, m + 1.5, x)) / mpmath.hyp2f1(0.5, m + 0.5, m + 1.5, x))
            for m, v in enumerate(columns[0])
        )
        want = _continuity_mp(p, B_minus, A_plus)
    assert worst <= 1e-15
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-16, (g, float(w))


def _far_ratio(top):
    # the raw series' term ratio, as specfun._f_seed writes it
    return lambda k: (k + 0.5) * (top + 0.5 + k) / ((top + 1.5 + k) * (k + 1.0))


SEED_TOPS = [0, 2, 60, 240, 999]


def _seed_points(top):
    """x = 0, points on both sides of the seed's switch at (1-x) max(top, 2) = 1, and the edge."""
    switch = 1.0 - 1.0 / max(top, 2)
    return [0.0, 1e-40, 0.25, 0.81, np.nextafter(switch, 0.0), switch, 0.9801, 1.0 - 1e-12]


def test_one_point_seed_equals_the_block_path(monkeypatch):
    # One point sums its series on 1-D arrays (specfun._series_point); the
    # block path over live points (specfun._series_blocks) is what every
    # point took before, and a lone point must get its bits on both.
    grid = [(top, x) for top in SEED_TOPS for x in _seed_points(top)] + [(999, 0.998)]
    near = [(1.0 - x) * max(top, 2) <= 1.0 for top, x in grid]
    assert any(near) and not all(near)
    # (999, 0.998) is on the raw series, and its terms run past 4064
    ends = []
    specfun._series_point(lambda k: ends.append(k[-1]) or _far_ratio(999)(k), 0.998)
    assert ends[-1] > 4064
    floats = [specfun._f_seed(top, np.array([x]))[0] for top, x in grid]
    monkeypatch.setattr(specfun, "_positive_series", specfun._series_blocks)
    blocks = [specfun._f_seed(top, np.array([x]))[0] for top, x in grid]
    assert floats == blocks
    assert all(type(v) is np.float64 for v in floats)


FIGURE_LAMBDAS = (0.3, 0.5, 0.7)
# Seeds of the figures' displacement grids that differ between the array
# and one-point calls, per lambda: (B- family at (lam/r)**2, A+ family at r**2).
# More than 64 points are still live after the first block, so the array's
# next blocks are narrower than a lone point's.
SEEDS_THAT_DIFFER = {0.3: (0, 21), 0.5: (16, 39), 0.7: (47, 58)}


@pytest.mark.parametrize("lam", FIGURE_LAMBDAS)
def test_array_and_point_calls_on_the_figure_grids(lam):
    p, c = run_solve(RunConfig(lam=lam))
    grid = _displacement_grid(lam, RunConfig.grid_points)
    top = len(fields._kept(p, c)[0]) - 1
    for x, differ in zip(((lam / grid) ** 2, grid * grid), SEEDS_THAT_DIFFER[lam]):
        array = specfun._f_seed(top, x)
        points = np.array([specfun._f_seed(top, np.array([v]))[0] for v in x])
        assert np.count_nonzero(array != points) == differ
        assert np.all(np.abs(array - points) <= 4.5e-16 * points)
    array = fields.displacement(p, c, grid)
    points = np.array([fields.displacement(p, c, float(r)) for r in grid])
    assert np.any(array != points)
    assert np.all(np.abs(array - points) <= 5e-17)
