"""Annulus correction term omega-tilde against an mpmath oracle.

The annulus forcing evaluates the plus side at s = +-(2k+1) and the minus
side at s = 2k+2, k < N; the three columns of _omega_tilde_columns are
checked for N = 240 at radius ratios where ratio**2 > 3/4, where f_m takes
its seed from the edge series.
"""

import mpmath
import pytest

from pennycontact.models import _omega_tilde_columns


def exact(side: str, s: int, ratio: float) -> mpmath.mpf:
    with mpmath.workdps(40):
        r = mpmath.mpf(ratio)
        s = mpmath.mpf(s)
        if side == "plus":
            value = mpmath.hyp2f1(-s / 2, 0.5, 1 - s / 2, r * r)
            return 2 * (value - 1) / (mpmath.sqrt(mpmath.pi) * s)
        value = mpmath.hyp2f1((s + 1) / 2, 0.5, (s + 3) / 2, r * r)
        return r * value / (mpmath.sqrt(mpmath.pi) * (s + 1))


@pytest.mark.parametrize("ratio", [0.87, 0.9, 0.95])
def test_forcing_arguments_match_mpmath(ratio):
    columns = _omega_tilde_columns(ratio, 240)
    worst = 0.0
    for k in range(240):
        points = (("plus", 2 * k + 1), ("plus", -(2 * k + 1)), ("minus", 2 * k + 2))
        for col, (side, s) in enumerate(points):
            want = exact(side, s, ratio)
            worst = max(worst, float(abs((columns[k, col] - want) / want)))
    assert worst <= 5e-14
