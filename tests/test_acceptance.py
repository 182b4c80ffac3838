"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 6 carries a geometric-decay clause on the boundary
factorization residual that cannot hold in floating point: the factor
matrices satisfy the boundary relation identically in exact arithmetic
for any truncation order, so the measured residual is rounding noise at
every N and its N-ratio is about 1.  The clause is asserted as stated
and is expected to fail; see the README notes.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import SIF_SERIES_COEFFS, hyp2f1_raw_series_oracle

from pennycontact import factorization as fz
from pennycontact import fields, models, specfun
from pennycontact.cli import load_config, run_figures

PI = math.pi
DELTA_OVER_A = 0.05
DSTAR = 2.0 * DELTA_OVER_A / math.sqrt(PI)


class _Criterion:
    """Times a criterion body and prints its PASS/FAIL line."""

    def __init__(self, number, label, time_limit=None):
        self.number = number
        self.label = label
        self.time_limit = time_limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"ACCEPTANCE {self.number}: {status} ({elapsed:.2f}s) - {self.label}"
        )
        if exc_type is None and self.time_limit is not None:
            assert elapsed < self.time_limit, (
                f"criterion {self.number} exceeded its {self.time_limit}s budget"
            )
        return False


def test_criterion_1_recurrence_seed_reproduction():
    with _Criterion(1, "recurrence seeds match the printed table", 1.0):
        a, _ = models._disc_table(3, 5)
        expected = {
            (0, 0): -1.0 / PI,
            (1, 0): -1.0 / (3.0 * PI),
            (2, 0): -1.0 / (5.0 * PI),
            (0, 1): -4.0 / PI**3,
            (0, 2): -16.0 / PI**5,
            (1, 1): -4.0 / (3.0 * PI**3),
            (1, 2): -16.0 / (3.0 * PI**5),
            (0, 3): -(4.0 / PI**3) * (16.0 / PI**4 + 2.0 / 9.0),
            (0, 4): -(64.0 / PI**5) * (4.0 / PI**4 + 1.0 / 9.0),
        }
        for (n, k), want in expected.items():
            got = a[n, 2 * n + 1 + k]  # lam**(2n+1+k) in A+_n
            assert abs(got - want) <= 1e-13 * abs(want), (n, k, got, want)


def test_criterion_2_asymptotic_coefficient_reproduction():
    with _Criterion(2, "table sums give the five normalized coefficients", 1.0):
        a, _ = models._disc_table(3, 5)
        for q in range(5):
            total = a[:, q + 1].sum()  # C_{q+1}, the lam**(q+1) column
            got = -PI * total
            want = SIF_SERIES_COEFFS[q]
            assert abs(got - want) <= 1e-12 * abs(want), (q, got, want)


def test_criterion_3_sif_sweep_agreement():
    with _Criterion(3, "asymptotic tracks exact: 5% to 0.6, 0.5% to 0.3", 5.0):
        for lam in np.linspace(0.01, 0.6, 60):
            lam = float(lam)
            p = models.DiscProblem(lam=lam, delta_star=DSTAR)
            c = models.solve_disc_reduction(p, 60)
            res = fields.sif_exact(p, c)
            rel = abs(res.normalized_asymptotic - res.normalized) / abs(
                res.normalized
            )
            assert rel <= 0.05, (lam, rel)
            if lam <= 0.3:
                assert rel <= 0.005, (lam, rel)


def test_criterion_4_continuity():
    with _Criterion(4, "continuity defects below 1e-9 at N=60", 2.0):
        for lam in (0.3, 0.5, 0.7):
            p = models.DiscProblem(lam=lam, delta_star=DSTAR)
            c = models.solve_disc_reduction(p, 60)
            defect_b, defect_a = fields.continuity_defects(p, c)
            assert defect_b <= 1e-9, (lam, defect_b)
            assert defect_a <= 1e-9, (lam, defect_a)


def test_criterion_5_determinant_identities():
    with _Criterion(5, "factor-matrix determinants match the constants", 10.0):
        samples = fz.contour_samples(20)
        lam = 0.5
        disc_cols = fz.solve_factor_columns_disc(lam, 60)
        for s in samples:
            det_p = np.linalg.det(fz.eval_X_disc("plus", s, disc_cols))
            det_m = np.linalg.det(fz.eval_X_disc("minus", s, disc_cols))
            assert abs(det_p + 0.5) <= 1e-9
            assert abs(det_m - 1.0 / (2.0 * lam)) <= 1e-9
        lam0, lam1 = 0.2, 0.5
        ann_cols = fz.solve_factor_columns_annulus(lam0, lam1, 60)
        for s in samples:
            det_p = np.linalg.det(fz.eval_X_annulus("plus", s, ann_cols))
            det_m = np.linalg.det(fz.eval_X_annulus("minus", s, ann_cols))
            assert abs(det_p - 1.0 / (2.0 * lam0)) <= 1e-8
            assert abs(det_m - 1.0 / (4.0 * lam1)) <= 1e-8


def test_criterion_6_boundary_residual_bounds():
    with _Criterion(6, "boundary residual bounds on 20 contour samples"):
        samples = fz.contour_samples(20)
        disc_cols = fz.solve_factor_columns_disc(0.5, 60)
        assert fz.boundary_residual(disc_cols, samples) <= 1e-8
        ann_cols = fz.solve_factor_columns_annulus(0.2, 0.5, 60)
        assert fz.boundary_residual(ann_cols, samples) <= 1e-7


@pytest.mark.xfail(
    reason="the factor matrices satisfy the boundary relation identically "
    "for every truncation order, so the residual is rounding noise at any "
    "N and cannot decay between N=30 and N=60; see README",
    strict=True,
)
def test_criterion_6_boundary_residual_geometric_decay():
    lam = 0.5
    with _Criterion(6, "boundary residual ratio N=30 to N=60 (decay clause)"):
        samples = fz.contour_samples(20)
        res_30 = fz.boundary_residual(
            fz.solve_factor_columns_disc(lam, 30), samples
        )
        res_60 = fz.boundary_residual(
            fz.solve_factor_columns_disc(lam, 60), samples
        )
        assert res_60 / res_30 <= lam**2 + 0.05, (res_30, res_60)


def test_criterion_7_partial_indices():
    with _Criterion(7, "all partial indices are zero with tight fits"):
        disc_cols = fz.solve_factor_columns_disc(0.5, 60)
        ann_cols = fz.solve_factor_columns_annulus(0.2, 0.5, 60)
        for side in ("plus", "minus"):
            assert fz.order_fit(side, disc_cols).partial_indices() == [0, 0]
            assert fz.order_fit(side, ann_cols).partial_indices() == [0, 0, 0]
            assert fz.order_fit(side, disc_cols).distance <= 0.1
            assert fz.order_fit(side, ann_cols).distance <= 0.1


def test_criterion_8_dual_method_equivalence():
    with _Criterion(8, "reduction vs recurrence and annulus degeneration"):
        for lam in (0.1, 0.3, 0.5, 0.7):
            p = models.DiscProblem(lam=lam, delta_star=DSTAR)
            red = models.solve_disc_reduction(p, 60)
            _, rec = models.solve_disc_recurrence(p, 60, 120)
            assert np.abs(red.A_plus - rec.A_plus).max() <= 1e-9
            assert np.abs(red.B_minus - rec.B_minus).max() <= 1e-9
        pd = models.DiscProblem(lam=0.5, delta_star=DSTAR)
        pa = models.AnnulusProblem(lam0=0.0, lam1=0.5, delta_star=DSTAR)
        cd = models.solve_disc_reduction(pd, 60)
        ca = models.solve_annulus_reduction(pa, 60)
        assert np.abs(ca.A_plus - cd.A_plus).max() <= 1e-12
        assert np.abs(ca.B_minus - cd.B_minus).max() <= 1e-12


def test_criterion_9_special_function_oracles():
    with _Criterion(9, "hypergeometric layer against brute-force oracles"):
        xs = (0.1, 0.4, 0.75, 0.9, 0.95)
        # H_m = 2F1(3/2, 1/2-m; 3/2-m; x) from the stress evaluators' column:
        # row m of the identity picks H_m / (m - 1/2) out of its sum
        h = fields._hyp_column(np.eye(21), np.array(xs)) * (np.arange(21) - 0.5)[:, None]
        for m in (0, 1, 3, 8, 20):
            for i, x in enumerate(xs):
                for (a, b, c), got in [
                    ((0.5, m + 0.5, m + 1.5), specfun.f_m(m, x)),
                    ((1.5, 0.5 - m, 1.5 - m), h[m, i]),
                ]:
                    want = float(hyp2f1_raw_series_oracle(a, b, c, x))
                    assert abs(got - want) <= 1e-10 * abs(want), (a, b, c, x)
        for x in np.linspace(0.01, 0.99, 50):
            got = specfun.f_m(0, float(x) ** 2)
            want = math.asin(x) / x
            assert abs(got - want) <= 1e-11 * abs(want)
        for m in range(30):
            want = math.pi * specfun.pochhammer(1.5, m) / (2.0 * math.factorial(m))
            assert specfun.f_m_limit(m) == want


def test_criterion_10_figure_regeneration(tmp_path):
    with _Criterion(10, "figure tables at the reference parameters", 30.0):
        cfg = load_config("figures", None, {})
        written = run_figures(cfg, Path(tmp_path))
        names = sorted(p.name for p in written)
        assert names == [
            "fig1_contact.csv",
            "fig1_outer.csv",
            "fig2_sif.csv",
            "fig3_displacement_lam030.csv",
            "fig3_displacement_lam050.csv",
            "fig3_displacement_lam070.csv",
        ]

        def rows_of(name):
            lines = (tmp_path / name).read_text().strip().splitlines()
            return [
                tuple(map(float, line.split(",")))
                for line in lines
                if not line.startswith("#") and not line[0].isalpha()
            ]

        # contact branch negative through r/b = 0.99
        lam = 0.5
        for r, value in rows_of("fig1_contact.csv"):
            if r / lam <= 0.99:
                assert value < 0.0, (r, value)

        # displacement endpoints: delta/a at the inclusion edge, 0 at the tip,
        # and the closed-form defects meet the continuity criterion
        for lam in (0.3, 0.5, 0.7):
            name = f"fig3_displacement_lam{int(lam * 100):03d}.csv"
            rows = rows_of(name)
            assert rows[0][1] == pytest.approx(DELTA_OVER_A, abs=2e-3)
            assert abs(rows[-1][1]) <= 2e-3
            p = models.DiscProblem(lam=lam, delta_star=DSTAR)
            c = models.solve_disc_reduction(p, 60)
            defect_b, defect_a = fields.continuity_defects(p, c)
            assert max(defect_b, defect_a) <= 1e-9
