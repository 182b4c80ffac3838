"""Field evaluators: dual representations, edge behavior, intensity factor."""

import math

import numpy as np
import pytest

from pennycontact.fields import (
    _ASYMPTOTIC_COEFFS,
    continuity_defects,
    displacement,
    sif_asymptotic,
    sif_exact,
    stress_contact,
    stress_contact_edge,
    stress_outer,
    stress_outer_edge,
)
from pennycontact.models import (
    CoefficientSetDisc,
    DiscProblem,
    solve_disc_reduction,
)

from oracles import SIF_SERIES_COEFFS

PI = math.pi
DELTA_OVER_A = 0.05
DSTAR = 2.0 * DELTA_OVER_A / math.sqrt(PI)


def solved(lam, N=60):
    p = DiscProblem(lam=lam, delta_star=DSTAR)
    return p, solve_disc_reduction(p, N)


def zero_coefficients(N=20):
    return CoefficientSetDisc(
        A_plus=np.zeros(N), B_minus=np.zeros(N), truncation_N=N
    )


class TestStressContact:
    def test_dual_representation_overlap(self):
        for lam in (0.3, 0.5, 0.7):
            p, c = solved(lam)
            for x in np.linspace(0.6, 0.95, 8):
                a = stress_contact(p, c, float(x))
                b = stress_contact_edge(p, c, float(x))
                assert abs(a - b) <= 1e-9 * abs(a)

    def test_small_lambda_center_value(self):
        # with the B series removed only the leading edge term survives
        p = DiscProblem(lam=0.2, delta_star=DSTAR)
        c = zero_coefficients()
        want = -p.delta_star / (p.lam * math.sqrt(PI))
        assert stress_contact(p, c, 0.0) == pytest.approx(want, rel=1e-14)

    def test_compressive_on_contact_zone(self):
        for lam in (0.3, 0.5):
            p, c = solved(lam)
            for x in np.linspace(0.0, 0.99, 40):
                assert stress_contact(p, c, float(x)) < 0.0

    def test_square_root_edge_behavior(self):
        p, c = solved(0.5)
        vals = []
        for eps in (1e-4, 1e-6, 1e-8):
            x = 1.0 - eps
            vals.append(
                stress_contact(p, c, x) * math.sqrt(1.0 - x * x)
            )
        assert vals[0] == pytest.approx(vals[2], rel=1e-3)
        assert abs(vals[2]) > 0.0

    def test_domain_error(self):
        p, c = solved(0.5, 10)
        with pytest.raises(ValueError):
            stress_contact(p, c, 1.0)
        with pytest.raises(ValueError):
            stress_contact(p, c, -0.1)


class TestStressOuter:
    def test_dual_representation_overlap(self):
        for lam in (0.3, 0.5, 0.7):
            p, c = solved(lam)
            for r in np.linspace(1.05, 1.4, 8):
                a = stress_outer(p, c, float(r))
                b = stress_outer_edge(p, c, float(r))
                assert abs(a - b) <= 1e-9 * abs(a)

    def test_far_field_decay(self):
        p, c = solved(0.5)
        scaled = [
            abs(stress_outer(p, c, r)) * r**3 for r in (5.0, 50.0, 500.0)
        ]
        # (a/r)^3 prefactor: r^3-scaled values approach a constant
        assert scaled[1] == pytest.approx(scaled[2], rel=1e-2)
        assert stress_outer(p, c, math.inf) == 0.0

    def test_near_tip_coefficient(self):
        p, c = solved(0.5)
        r = 1.0 + 1e-10
        got = stress_outer(p, c, r) * math.sqrt(1.0 - 1.0 / r**2)
        want = -2.0 / math.sqrt(PI) * np.sum(c.A_plus)
        assert got == pytest.approx(want, rel=1e-4)

    def test_domain_error(self):
        p, c = solved(0.5, 10)
        with pytest.raises(ValueError):
            stress_outer(p, c, 1.0)
        with pytest.raises(ValueError):
            stress_outer(p, c, 0.9)


class TestSmallLambdaLimits:
    """lambda -> 0: the disc indents each face as a rigid flat punch of radius b.

    Both ratios to the classical limit read 1 + (4/pi**2) lambda + O(lambda**2),
    with O(lambda**2) measured at 0.16-0.5 lambda**2.
    """

    @pytest.mark.parametrize("lam", [1e-3, 1e-2])
    def test_flat_punch_stress(self, lam):
        # theta1 sigma_z sqrt(b**2 - r**2)/delta -> -2/pi (Sneddon, Int. J.
        # Eng. Sci. 3 (1965) 47-57), at every r < b
        p, c = solved(lam)
        r_over_b = np.array([0.0, 0.3, 0.6, 0.9, 0.99])
        punch = stress_contact(p, c, r_over_b) * lam * np.sqrt(1.0 - r_over_b**2) / DELTA_OVER_A
        ratio = punch / (-2.0 / PI)
        assert np.all(np.abs(ratio - (1.0 + 4.0 / PI**2 * lam)) <= lam**2), ratio

    @pytest.mark.parametrize("lam", [1e-3, 1e-2])
    def test_point_force_sif(self, lam):
        # the punch's load as a pair of point forces at the crack centre:
        # K_I = P/(pi a)**1.5, so the normalized factor -> 4 lam/pi**1.5
        p, c = solved(lam)
        ratio = sif_exact(p, c).normalized / (4.0 * lam / PI**1.5)
        assert abs(ratio - (1.0 + 4.0 / PI**2 * lam)) <= lam**2, ratio


class TestSif:
    def test_zero_coefficients_give_zero(self):
        p = DiscProblem(lam=0.5, delta_star=DSTAR)
        res = sif_exact(p, zero_coefficients())
        assert res.k1_exact == 0.0
        assert res.normalized == 0.0

    def test_leading_order(self):
        # sif_asymptotic is -4/sqrt(pi) sum_j _ASYMPTOTIC_COEFFS[j] lambda**(j+1)
        assert -4.0 / math.sqrt(PI) * _ASYMPTOTIC_COEFFS[0] == pytest.approx(
            4.0 / PI**1.5, rel=1e-15
        )

    def test_second_coefficient(self):
        # the lambda^2 coefficient is (4/pi^(3/2)) * 4/pi^2
        assert -4.0 / math.sqrt(PI) * _ASYMPTOTIC_COEFFS[1] == pytest.approx(
            (4.0 / PI**1.5) * (4.0 / PI**2), rel=1e-12
        )

    def test_small_lambda_normalized_limit(self):
        # leading term has an O(lam) relative correction of 4 lam/pi^2
        for lam in (0.05, 0.01):
            p, c = solved(lam, 30)
            res = sif_exact(p, c)
            lead = 4.0 * lam / PI**1.5
            assert abs(res.normalized - lead) <= 1.1 * (4.0 / PI**2) * lam * lead

    def test_near_tip_limit_consistency(self):
        p, c = solved(0.5)
        res = sif_exact(p, c)
        r = 1.0 + 1e-6
        estimate = math.sqrt(2.0 * PI * (r - 1.0)) * stress_outer(p, c, r)
        assert abs(estimate - res.k1_exact) <= 0.01 * abs(res.k1_exact)

    def test_asymptotic_tracks_exact_at_moderate_lambda(self):
        p, c = solved(0.5)
        res = sif_exact(p, c)
        assert abs(res.normalized_asymptotic - res.normalized) <= 0.02 * abs(
            res.normalized
        )

    def test_positive_for_positive_indentation(self):
        for lam in (0.2, 0.5, 0.8):
            p, c = solved(lam)
            res = sif_exact(p, c)
            assert res.k1_exact > 0.0

    def test_coefficient_table_values(self):
        # the expansion is the head of the lambda-power series, C_1 = -1/pi,
        # against the hand-derived closed forms
        assert _ASYMPTOTIC_COEFFS[0] == -1.0 / PI
        normalized = np.array(_ASYMPTOTIC_COEFFS) / _ASYMPTOTIC_COEFFS[0]
        np.testing.assert_allclose(normalized, SIF_SERIES_COEFFS, rtol=1e-15, atol=0)


class TestDisplacement:
    def test_continuity_at_inclusion_edge(self):
        p, c = solved(0.5)
        assert displacement(p, c, 0.5 + 1e-10) == pytest.approx(
            DELTA_OVER_A, rel=1e-4
        )

    def test_vanishes_at_crack_tip(self):
        p, c = solved(0.5)
        assert abs(displacement(p, c, 1.0 - 1e-10)) < 1e-4 * DELTA_OVER_A

    def test_positive_opening(self):
        p, c = solved(0.5)
        for r in np.linspace(0.51, 0.99, 20):
            assert displacement(p, c, float(r)) > 0.0

    def test_domain_error(self):
        p, c = solved(0.5, 10)
        with pytest.raises(ValueError):
            displacement(p, c, 0.5)
        with pytest.raises(ValueError):
            displacement(p, c, 1.0)


@pytest.mark.parametrize("field", [stress_contact, stress_outer, displacement])
def test_empty_array_gives_empty_array(field):
    p, c = solved(0.5)
    value = field(p, c, np.array([]))
    assert isinstance(value, np.ndarray) and value.shape == (0,)


class TestContinuityDefects:
    def test_thresholds_at_default_truncation(self):
        for lam in (0.3, 0.5, 0.7):
            p, c = solved(lam, 60)
            db, da = continuity_defects(p, c)
            assert db <= 1e-9
            assert da <= 1e-9

    def test_tight_at_small_lambda(self):
        p, c = solved(0.1, 60)
        db, da = continuity_defects(p, c)
        assert db <= 1e-12
        assert da <= 1e-12

    def test_zero_load_degenerates(self):
        p = DiscProblem(lam=0.5, delta_star=0.0)
        db, da = continuity_defects(p, zero_coefficients())
        assert db == 0.0
        assert da == 0.0

    def test_geometric_decay_in_truncation(self):
        lam = 0.7
        p = DiscProblem(lam=lam, delta_star=DSTAR)
        defects = {}
        for N in (4, 8, 16):
            c = solve_disc_reduction(p, N)
            defects[N] = continuity_defects(p, c)
        for pair in ((4, 8), (8, 16)):
            for i in range(2):
                ratio = defects[pair[1]][i] / defects[pair[0]][i]
                assert ratio <= lam**2 + 0.05
