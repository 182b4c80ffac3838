"""The field sums stop at the rounding-level weight cut, and lose nothing by it.

Every sum over a coefficient family in `fields` runs over the rows n with
lam**(2n) at least models._MIN_WEIGHT = 2**-64, for B- and A+ alike
(fields._kept).  The coefficients past them are below the cut relative to
their family's scale, so the prefix sums must equal the full-length sums to
roundoff.  Both runs
read the same column values (an f_m family seeded at row N - 1 for the
displacement and the continuity defects), so the comparison measures only
the terms the prefix leaves out.
"""

import math

import numpy as np
import pytest

from pennycontact import fields
from pennycontact.models import DiscProblem, _kept_counts, _row_weights, solve_disc_reduction
from pennycontact.specfun import _f_family

DSTAR = 2.0 * 0.05 / math.sqrt(math.pi)
LAMBDAS = np.linspace(0.021, 0.979, 13).tolist()


def _evaluate(p, c):
    lam = p.lam
    return {
        "continuity_defects": np.array(fields.continuity_defects(p, c)),
        "stress_contact": fields.stress_contact(p, c, np.linspace(0.0, 0.999, 30)),
        "stress_outer": fields.stress_outer(p, c, 1.0 + np.logspace(-6, 1, 30)),
        "displacement": fields.displacement(p, c, lam + (1.0 - lam) * np.linspace(1e-3, 1.0 - 1e-3, 30)),
    }


@pytest.mark.parametrize("N", [60, 240, 1000])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_prefix_sums_match_full_length_sums(monkeypatch, lam, N):
    p = DiscProblem(lam=lam, delta_star=DSTAR)
    c = solve_disc_reduction(p, N)
    column = _f_family(N, np.array([lam * lam]))[:, 0]
    monkeypatch.setattr(fields, "f_m", lambda m, x: float(column[m]))
    monkeypatch.setattr(fields, "_f_family", lambda count, x: _f_family(N, x)[:count])
    prefix = _evaluate(p, c)
    monkeypatch.setattr(fields, "_kept_counts", lambda weights: [weights.shape[1]] * 2)
    full = _evaluate(p, c)
    for name, want in full.items():
        got = prefix[name]
        assert np.all(np.abs(got - want) <= np.maximum(1e-15 * np.abs(want), 1e-18)), name


@pytest.mark.parametrize("N", [60, 240, 1000])
def test_the_grid_reaches_cut_and_uncut_families(N):
    # The comparison above has teeth only where something is cut, and the
    # high end of the grid keeps every row at N = 1000.
    kept = [_kept_counts(_row_weights(lam, None, N)) for lam in LAMBDAS]
    assert any(max(k) < N // 4 for k in kept)
    assert any(max(k) == N for k in kept)


@pytest.mark.parametrize("lam", [1e-20, 2.5e-7])
def test_each_family_is_cut_relative_to_its_own_leading_row(monkeypatch, lam):
    # The outer stress sums A+ alone, whose weights lam**(2n+1) carry one more
    # factor lam than B-: at lam = 1e-20 the solve keeps no A+ row, and at
    # 2.5e-7 it keeps one, where the sum needs two to 6e-14.
    p = DiscProblem(lam=lam, delta_star=DSTAR)
    c = solve_disc_reduction(p, 60)
    r = np.array([1.0 + 1e-6, 1.5, 4.0])
    got = fields.stress_outer(p, c, r)
    monkeypatch.setattr(fields, "_kept_counts", lambda weights: [weights.shape[1]] * 2)
    want = fields.stress_outer(p, c, r)
    assert np.all(want > 0.0)
    assert np.all(np.abs(got - want) <= 1e-15 * want)
