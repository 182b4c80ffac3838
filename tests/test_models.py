"""Coefficient-system solvers: seeds, dual methods, degenerations, residuals."""

import math

import numpy as np
import pytest

from pennycontact.models import (
    AnnulusProblem,
    CoefficientSetDisc,
    DiscProblem,
    _annulus_forcings,
    _disc_forcing,
    _disc_table,
    _omega_tilde_series,
    solve_annulus_reduction,
    solve_disc_recurrence,
    solve_disc_reduction,
    system_residual,
)
from pennycontact.specfun import PoleError

from oracles import annulus_equation_defect, disc_equation_defect, exact_omegas

PI = math.pi


class TestProblemValidation:
    def test_disc_rejects_bad_lambda(self):
        for lam in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError):
                DiscProblem(lam=lam, delta_star=1.0)

    def test_annulus_ordering(self):
        with pytest.raises(ValueError):
            AnnulusProblem(lam0=0.6, lam1=0.5, delta_star=1.0)
        with pytest.raises(ValueError):
            AnnulusProblem(lam0=0.5, lam1=0.5, delta_star=1.0)

    def test_annulus_accepts_degenerate_inner_radius(self):
        p = AnnulusProblem(lam0=0.0, lam1=0.5, delta_star=1.0)
        assert p.radius_ratio == 0.0

    def test_delta_over_a_roundtrip(self):
        p = DiscProblem(lam=0.5, delta_star=2 * 0.05 / math.sqrt(PI))
        assert p.delta_over_a == pytest.approx(0.05, rel=1e-15)


class TestOmega1Disc:
    def test_minus_at_odd_integers(self):
        # the A+ row of the disc forcing is lam**(2n+1)/pi times
        # omega_1^-(2n+1) = -delta_star/(2n+1)
        dstar = 0.7
        p = DiscProblem(lam=0.5, delta_star=dstar)
        omega = _disc_forcing(p, 6)[:, 1] * PI / p.lam ** (2 * np.arange(6) + 1)
        assert omega[0] == pytest.approx(-dstar)
        assert omega[1] == pytest.approx(-dstar / 3.0)
        assert omega[5] == pytest.approx(-dstar / 11.0)


class TestRecurrenceTable:
    def test_seed_rows(self):
        a, b = _disc_table(12, 8)
        half = np.arange(12) + 0.5
        assert np.allclose(a[:, 0], -1 / (2 * PI * half), rtol=1e-15)
        assert np.all(b[:, 0] == 0.0)

    def test_printed_low_order_values(self):
        a, _ = _disc_table(3, 5)
        assert a[0, 0] == pytest.approx(-1 / PI, rel=1e-14)
        assert a[1, 0] == pytest.approx(-1 / (3 * PI), rel=1e-14)
        assert a[0, 1] == pytest.approx(-4 / PI**3, rel=1e-14)

    def test_linearity_in_load(self):
        _, c1 = solve_disc_recurrence(DiscProblem(lam=0.5, delta_star=1.0), 4, 6)
        _, c2 = solve_disc_recurrence(DiscProblem(lam=0.5, delta_star=2.5), 4, 6)
        assert np.allclose(2.5 * c1.A_plus, c2.A_plus, rtol=1e-14)
        assert np.allclose(2.5 * c1.B_minus, c2.B_minus, rtol=1e-14)


class TestDiscSolvers:
    def test_reduction_matches_recurrence(self):
        p = DiscProblem(lam=0.5, delta_star=1.0)
        red = solve_disc_reduction(p, 40)
        _, rec = solve_disc_recurrence(p, 40, 60)
        assert abs(red.A_plus[0] - rec.A_plus[0]) < 1e-10

    def test_method_agreement_across_lambda(self):
        for lam in (0.1, 0.3, 0.5, 0.7):
            p = DiscProblem(lam=lam, delta_star=1.0)
            red = solve_disc_reduction(p, 60)
            _, rec = solve_disc_recurrence(p, 60, 120)
            assert np.abs(red.A_plus - rec.A_plus).max() <= 1e-9

    def test_small_lambda_leading_term(self):
        # A+_0 / lam -> a_00 = -delta_star/pi
        p = DiscProblem(lam=1e-4, delta_star=1.0)
        c = solve_disc_reduction(p, 10)
        assert c.A_plus[0] / p.lam == pytest.approx(-1 / PI, rel=1e-3)
        assert np.abs(c.A_plus[1:]).max() < 1e-10

    def test_residual_contract(self):
        p = DiscProblem(lam=0.5, delta_star=1.0)
        c = solve_disc_reduction(p, 40)
        assert system_residual(p, c) <= 1e-12

    def test_recurrence_residual(self):
        p = DiscProblem(lam=0.5, delta_star=1.0)
        _, c = solve_disc_recurrence(p, 40, 60)
        assert system_residual(p, c) <= 1e-10

    def test_sign_pattern(self):
        for lam in (0.3, 0.5, 0.7):
            c = solve_disc_reduction(DiscProblem(lam=lam, delta_star=1.0), 40)
            assert np.all(c.A_plus < 0.0)
            assert np.all(c.B_minus < 0.0)

    def test_geometric_coefficient_decay(self):
        lam = 0.5
        c = solve_disc_reduction(DiscProblem(lam=lam, delta_star=1.0), 30)
        ratios_a = np.abs(c.A_plus[3:12] / c.A_plus[2:11])
        ratios_b = np.abs(c.B_minus[3:12] / c.B_minus[2:11])
        assert np.all(ratios_a <= lam**2 + 0.05)
        assert np.all(ratios_b <= lam**2 + 0.05)

    def test_truncation_convergence_is_geometric(self):
        lam = 0.7
        p = DiscProblem(lam=lam, delta_star=1.0)
        a = [solve_disc_reduction(p, n).A_plus[0] for n in (10, 20, 40)]
        err_n = abs(a[0] - a[1])
        err_2n = abs(a[1] - a[2])
        assert err_2n / err_n <= lam**2 + 0.05

    def test_zero_load_gives_zero_solution(self):
        p = DiscProblem(lam=0.5, delta_star=0.0)
        c = solve_disc_reduction(p, 20)
        assert np.abs(c.A_plus).max() == 0.0
        assert system_residual(p, c) == 0.0


class TestOmegaTilde:
    def test_vanishes_at_zero_ratio(self):
        assert _omega_tilde_series("plus", 3.0, 0.0) == 0.0
        assert _omega_tilde_series("minus", 3.0, 0.0) == 0.0

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            _omega_tilde_series("plus", 4.0, 0.5)
        with pytest.raises(PoleError):
            _omega_tilde_series("minus", -3.0, 0.5)


class TestOmegaAnnulus:
    def test_disc_limit_of_omega1_minus(self):
        # at lam0 = 0 the annulus A+ forcing row is the disc's
        p0 = AnnulusProblem(lam0=0.0, lam1=0.5, delta_star=1.0)
        annulus = _annulus_forcings(p0, 4)[:, 1]
        disc = _disc_forcing(DiscProblem(lam=0.5, delta_star=1.0), 4)[:, 1]
        for n in range(4):
            assert annulus[n] == pytest.approx(disc[n], rel=1e-14)


class TestAnnulusSolver:
    def test_degenerates_to_disc(self):
        pa = AnnulusProblem(lam0=0.0, lam1=0.5, delta_star=1.0)
        pd = DiscProblem(lam=0.5, delta_star=1.0)
        ca = solve_annulus_reduction(pa, 40)
        cd = solve_disc_reduction(pd, 40)
        assert np.abs(ca.A_minus).max() == 0.0
        assert np.abs(ca.B_plus).max() == 0.0
        assert np.abs(ca.A_plus - cd.A_plus).max() <= 1e-12
        assert np.abs(ca.B_minus - cd.B_minus).max() <= 1e-12

    def test_residual_contract(self):
        p = AnnulusProblem(lam0=0.2, lam1=0.5, delta_star=1.0)
        c = solve_annulus_reduction(p, 40)
        assert system_residual(p, c) <= 1e-12

    def test_coefficient_scalings(self):
        p = AnnulusProblem(lam0=0.2, lam1=0.5, delta_star=1.0)
        c = solve_annulus_reduction(p, 30)
        t = p.radius_ratio
        for n in range(3, 8):
            assert abs(c.A_plus[n + 1] / c.A_plus[n]) <= p.lam1**2 + 0.05
            assert abs(c.A_minus[n + 1] / c.A_minus[n]) <= t**2 + 0.05
            assert abs(c.B_plus[n + 1] / c.B_plus[n]) <= t**2 + 0.05

    def test_unknown_coefficient_type(self):
        with pytest.raises(TypeError):
            system_residual(DiscProblem(lam=0.5, delta_star=1.0), object())


def test_residual_zero_for_zero_coefficients_and_load():
    p = DiscProblem(lam=0.5, delta_star=0.0)
    c = CoefficientSetDisc(
        A_plus=np.zeros(10), B_minus=np.zeros(10), truncation_N=10
    )
    assert system_residual(p, c) == 0.0


def test_singular_system_error():
    from pennycontact.models import SingularSystemError, _solve_dense

    with pytest.raises(SingularSystemError, match="cond"):
        _solve_dense(np.zeros((3, 3)), np.ones(3))


def test_disc_solution_satisfies_elementwise_equations():
    p = DiscProblem(lam=0.5, delta_star=1.0)
    c = solve_disc_reduction(p, 12)
    forcing = [-p.delta_star / (2 * n + 1) for n in range(12)]
    assert disc_equation_defect(p.lam, forcing, c.A_plus, c.B_minus) <= 1e-12


@pytest.mark.parametrize("lam0", [0.2, 0.45])
def test_annulus_solution_satisfies_elementwise_equations(lam0):
    p = AnnulusProblem(lam0=lam0, lam1=0.5, delta_star=1.0)
    c = solve_annulus_reduction(p, 12)
    w1m, w1p, w2m = exact_omegas(p.radius_ratio, p.delta_star, 12).T
    defect = annulus_equation_defect(
        p.lam1, p.radius_ratio, w1m, w1p, w2m, c.A_plus, c.A_minus, c.B_plus, c.B_minus
    )
    assert defect <= 1e-12
