"""Annulus correction term omega-tilde against an mpmath oracle.

The annulus forcing evaluates the plus side at s = +-(2k+1) and the minus
side at s = 2k+2, k < N; these are checked for N = 240 at radius ratios
where ratio**2 > 3/4, the region served by two routes.
"""

import mpmath
import pytest

from pennycontact.models import omega_tilde


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
    worst = 0.0
    for k in range(240):
        for side, s in (("plus", 2 * k + 1), ("plus", -(2 * k + 1)), ("minus", 2 * k + 2)):
            want = exact(side, s, ratio)
            got = omega_tilde(side, float(s), ratio)
            worst = max(worst, float(abs((got - want) / want)))
    assert worst <= 5e-14


def test_auto_takes_the_series_at_large_s():
    for side, s in (("plus", 241.0), ("plus", -479.0), ("minus", 480.0)):
        assert omega_tilde(side, s, 0.87) == omega_tilde(side, s, 0.87, "series")
