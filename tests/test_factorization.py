"""Factor matrices: column systems, determinant identities, partial indices."""

import math

import numpy as np
import pytest

from pennycontact import models
from pennycontact.factorization import (
    _KRONECKER,
    AnnulusFactorColumn,
    DiscFactorColumn,
    boundary_residual,
    contour_samples,
    eval_X_annulus,
    eval_X_disc,
    factor_system_residual,
    g0_annulus,
    g0_disc,
    order_fit,
    partial_index_estimate,
    solve_factor_columns_annulus,
    solve_factor_columns_disc,
)
from pennycontact.specfun import PoleError

from oracles import annulus_column_defect, disc_column_defect

PI = math.pi


@pytest.fixture(scope="module")
def disc_columns():
    return solve_factor_columns_disc(0.5, 60)


@pytest.fixture(scope="module")
def annulus_columns():
    return solve_factor_columns_annulus(0.2, 0.5, 60)


def _column_power_table(j, rows, order_K):
    """Model lambda-power tables seeded by the Kronecker forcing of disc column j."""
    return models._power_table(_KRONECKER[1, j], _KRONECKER[0, j], rows, order_K)


class TestDiscColumns:
    def test_reduction_matches_recurrence(self):
        # the column system is the models' operator, so the model recurrence
        # seeded by the column's Kronecker forcing solves it too; an order-120
        # table reads its rows up to 120 // 2, so it needs 61 of them
        red = solve_factor_columns_disc(0.5, 60)
        for j, c1 in enumerate(red):
            a, b = models._power_sums(0.5, *_column_power_table(j, 61, 120), 60)
            assert np.abs(c1.A_plus - a).max() <= 1e-10
            assert np.abs(c1.B_minus - b).max() <= 1e-10

    def test_recurrence_seed_rows(self):
        # the b seeds are constant rows; the a seed of the second column
        # is the bare forcing, while the first column's a seed inherits
        # the b feed-through (confirmed against the reduction solve)
        a1, b1 = _column_power_table(0, 6, 4)
        a2, b2 = _column_power_table(1, 6, 4)
        half = np.arange(6) + 0.5
        assert np.allclose(b1[:, 0], -2.0 / PI)
        assert np.allclose(b2[:, 0], 0.0)
        assert np.allclose(a2[:, 0], 2.0 / PI)
        assert np.allclose(a1[:, 0], -2.0 / (PI**2 * half))

    def test_first_column_leading_order_against_reduction(self):
        # oracle for the seed correction: the reduction solve at small
        # lambda exposes the leading coefficient of each A+_{1n}
        lam = 1e-4
        col1, _ = solve_factor_columns_disc(lam, 8)
        half = np.arange(8) + 0.5
        lead = col1.A_plus / lam ** (2 * np.arange(8) + 1)
        assert np.allclose(lead, -2.0 / (PI**2 * half), rtol=1e-3)

    def test_cross_coupling_vanishes_at_small_lambda(self):
        # A+ of column 1 and B- of column 2 are O(lam) while the forced
        # families stay O(1)
        lam = 1e-5
        col1, col2 = solve_factor_columns_disc(lam, 6)
        assert np.abs(col1.A_plus).max() <= lam
        assert np.abs(col2.B_minus).max() <= lam
        assert abs(col1.B_minus[0]) > 0.5
        assert abs(col2.A_plus[0]) > 0.5 * lam

    def test_back_substitution_residual(self, disc_columns):
        for col in disc_columns:
            assert factor_system_residual(col) <= 1e-12


class TestDiscMatrices:
    def test_determinants_at_spot_point(self, disc_columns):
        s = 0.5 + 3j
        det_p = np.linalg.det(eval_X_disc("plus", s, disc_columns))
        det_m = np.linalg.det(eval_X_disc("minus", s, disc_columns))
        assert abs(det_p + 0.5) <= 1e-9
        assert abs(det_m - 1.0 / (2 * 0.5)) <= 1e-9

    def test_determinant_is_constant(self, disc_columns):
        rng = np.random.default_rng(314)
        dets = []
        for _ in range(50):
            s = complex(rng.uniform(-0.4, 0.49), rng.uniform(-30, 30))
            dets.append(np.linalg.det(eval_X_disc("plus", s, disc_columns)))
        dets = np.array(dets)
        assert np.var(np.abs(dets)) <= 1e-16 * np.mean(np.abs(dets)) ** 2

    def test_boundary_residual(self, disc_columns):
        res = boundary_residual(disc_columns, contour_samples(20))
        assert res <= 1e-8

    def test_boundary_residual_empty_samples(self, disc_columns):
        assert boundary_residual(disc_columns, []) == 0.0

    def test_boundary_relation_large_imag_uses_scaled_trig(self, disc_columns):
        res = boundary_residual(
            disc_columns, [0.5 + 80j, 0.5 - 120j]
        )
        assert res <= 1e-8

    def test_partial_indices_zero(self, disc_columns):
        assert partial_index_estimate("plus", disc_columns) == [0, 0]
        assert partial_index_estimate("minus", disc_columns) == [0, 0]

    def test_fit_distance_small(self, disc_columns):
        assert order_fit("plus", disc_columns).distance <= 0.1
        assert order_fit("minus", disc_columns).distance <= 0.1

    def test_pole_guard(self, disc_columns):
        with pytest.raises(PoleError):
            eval_X_disc("plus", 2.0 + 0.0j, disc_columns)


class TestAnnulusMatrices:
    def test_determinants(self, annulus_columns):
        lam0, lam1 = 0.2, 0.5
        for s in contour_samples(20):
            det_p = np.linalg.det(eval_X_annulus("plus", s, annulus_columns))
            det_m = np.linalg.det(eval_X_annulus("minus", s, annulus_columns))
            assert abs(det_p - 1.0 / (2 * lam0)) <= 1e-8
            assert abs(det_m - 1.0 / (4 * lam1)) <= 1e-8

    def test_printed_determinant_expansion_matches(self, annulus_columns):
        # the full cofactor expansion of det X+ in terms of the column
        # series holds for arbitrary coefficients; spot-check on random
        # column data where the determinant is far from its solved value
        rng = np.random.default_rng(7)
        cols = tuple(
            AnnulusFactorColumn(
                lam0=0.2,
                lam1=0.5,
                column_index=l,
                A_plus=rng.normal(size=6),
                A_minus=rng.normal(size=6),
                B_plus=rng.normal(size=6),
                B_minus=rng.normal(size=6),
            )
            for l in (1, 2, 3)
        )
        for s in (0.5 + 3j, 0.5 - 1.3j):
            det_p = 2 * 0.2 * np.linalg.det(eval_X_annulus("plus", s, cols))
            det_m = 4 * 0.5 * np.linalg.det(eval_X_annulus("minus", s, cols))
            assert det_p == pytest.approx(det_m, rel=1e-10)

    def test_boundary_residual(self, annulus_columns):
        res = boundary_residual(annulus_columns, contour_samples(20))
        assert res <= 1e-7

    def test_partial_indices_zero(self, annulus_columns):
        assert partial_index_estimate("plus", annulus_columns) == [0, 0, 0]
        assert partial_index_estimate("minus", annulus_columns) == [0, 0, 0]

    def test_fit_distance_small(self, annulus_columns):
        assert order_fit("plus", annulus_columns).distance <= 0.1
        assert order_fit("minus", annulus_columns).distance <= 0.1

    def test_back_substitution_residual(self, annulus_columns):
        for col in annulus_columns:
            assert factor_system_residual(col) <= 1e-12

    def test_small_inner_radius_keeps_determinant_identities(self):
        # degeneration study: the 3x3 identities persist as lam0 -> 0,
        # det X+ growing like 1/(2 lam0); recorded, not forced onto the
        # 2x2 normalization
        lam0 = 1e-3
        cols = solve_factor_columns_annulus(lam0, 0.5, 40)
        s = 0.5 + 2j
        det_p = np.linalg.det(eval_X_annulus("plus", s, cols))
        det_m = np.linalg.det(eval_X_annulus("minus", s, cols))
        assert det_p == pytest.approx(1.0 / (2 * lam0), rel=1e-8)
        assert det_m == pytest.approx(1.0 / (4 * 0.5), rel=1e-8)


class TestG0:
    def test_disc_g0_determinant(self):
        # det G0 = -lam identically
        lam = 0.37
        for s in contour_samples(6):
            assert np.linalg.det(g0_disc(s, lam)) == pytest.approx(
                -lam, rel=1e-12
            )

    def test_annulus_g0_determinant(self):
        lam0, lam1 = 0.2, 0.5
        for s in contour_samples(6):
            assert np.linalg.det(g0_annulus(s, lam0, lam1)) == pytest.approx(
                2 * lam1 / lam0, rel=1e-12
            )

    def test_dets_consistent_with_factors(self, disc_columns):
        # det X+ / det X- must reproduce det G0
        s = 0.5 + 1.7j
        det_p = np.linalg.det(eval_X_disc("plus", s, disc_columns))
        det_m = np.linalg.det(eval_X_disc("minus", s, disc_columns))
        assert det_p / det_m == pytest.approx(-0.5, rel=1e-10)


def test_validation_errors():
    with pytest.raises(ValueError):
        solve_factor_columns_disc(1.2, 10)
    with pytest.raises(ValueError):
        solve_factor_columns_annulus(0.5, 0.2, 10)
    with pytest.raises(TypeError):
        factor_system_residual(object())
    with pytest.raises(ValueError):
        partial_index_estimate("sideways", solve_factor_columns_disc(0.5, 5))


def test_disc_columns_satisfy_elementwise_equations():
    for col in solve_factor_columns_disc(0.5, 12):
        defect = disc_column_defect(0.5, col.column_index, col.A_plus, col.B_minus)
        assert defect <= 1e-12


@pytest.mark.parametrize("lam0", [0.2, 0.45])
def test_annulus_columns_satisfy_elementwise_equations(lam0):
    for col in solve_factor_columns_annulus(lam0, 0.5, 12):
        defect = annulus_column_defect(
            lam0, 0.5, col.column_index, col.A_plus, col.A_minus, col.B_plus, col.B_minus
        )
        assert defect <= 1e-12
