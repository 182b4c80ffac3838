"""Numerical invariant suite behind the `verify` subcommand.

Every check evaluates one invariant of the solvers, field evaluators or
factorization machinery and reports the measured defect next to its
threshold.  The thresholds are the library's accuracy contract; a run
with default parameters must pass every check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import factorization as fz
from . import fields, models, specfun

__all__ = ["CheckResult", "VerificationReport", "run_verification"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single invariant check (pass iff measured is finite and <= threshold)."""

    name: str
    measured: float
    threshold: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return math.isfinite(self.measured) and self.measured <= self.threshold

    def to_dict(self) -> dict:
        """The check as strict JSON values: a non-finite measurement becomes None."""
        return {
            "name": self.name,
            "passed": self.passed,
            "measured": self.measured if math.isfinite(self.measured) else None,
            "threshold": self.threshold,
            "detail": self.detail,
        }


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, measured, threshold, detail=""):
        self.checks.append(
            CheckResult(
                name=name,
                measured=float(measured),
                threshold=float(threshold),
                detail=detail,
            )
        )

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


# The factorization checks' contour samples, built once and read-only.  The
# random point sets are drawn once per process, on first use: a module-level
# generator would import numpy.random with every command.
_CONTOUR = specfun._frozen(np.array(fz.contour_samples(20)))


@lru_cache(maxsize=1)
def _strip_samples() -> np.ndarray:
    """100 points in 0.02 < Re s < 0.98, |Im s| < 20, from seed 7121; read-only."""
    rng = np.random.default_rng(7121)
    re = rng.uniform(0.02, 0.98, 100)
    im = rng.uniform(-20.0, 20.0, 100)
    return specfun._frozen(re + 1j * im)


@lru_cache(maxsize=1)
def _constancy_draws() -> np.ndarray:
    """50 points in -0.4 < Re s < 0.49, |Im s| < 30, from seed 314, each drawn re first, then im; read-only."""
    draws = np.random.default_rng(314).uniform((-0.4, -30.0), (0.49, 30.0), (50, 2))
    return specfun._frozen(draws[:, 0] + 1j * draws[:, 1])


def _check_specfun(report: VerificationReport) -> None:
    s = _strip_samples()
    kernel = specfun.kernel_L(s)
    plus = specfun.l_plus(s)
    minus = specfun.l_minus(s)
    fact = np.max(np.abs(kernel - plus / (2.0 * minus)) / np.abs(kernel))
    report.add("specfun.kernel_factorization_identity", fact, 1e-11)

    tangent = np.max(np.abs(plus * minus - specfun.tan_half_pi(s)))
    report.add("specfun.kernel_tangent_identity", tangent, 1e-10)

    t = 1.0e6
    plus = abs(specfun.l_plus(complex(-t)) * math.sqrt(t / 2.0) - 1.0)
    minus = abs(specfun.l_minus(complex(t)) / math.sqrt(t / 2.0) - 1.0)
    report.add("specfun.kernel_asymptotic_order", max(plus, minus), 0.01)

    # Gamma(x) Gamma(1 - x) = pi / sin(pi x), on the log-gamma the library runs
    xs = np.linspace(0.02, 0.98, 25)
    logs = specfun._log_gamma(np.concatenate([xs, 1.0 - xs]) + 0j)
    refl = np.max(np.abs(np.exp(logs[:25] + logs[25:]) * np.sin(math.pi * xs) / math.pi - 1.0))
    report.add("specfun.gamma_reflection", refl, 1e-12)

    # f_0(x**2) = asin(x)/x, on the family recurrence the library runs
    x = np.linspace(0.01, 0.99, 50)
    want = np.arcsin(x) / x
    arcsine = np.max(np.abs(specfun._f_family(1, x * x)[0] - want) / want)
    report.add("specfun.arcsine_identity", arcsine, 1e-11)


def _check_models(report: VerificationReport, solved: dict, delta_star: float, n_trunc: int) -> None:
    agreement = 0.0
    for p, red in solved.values():
        _, rec = models.solve_disc_recurrence(p, n_trunc)
        agreement = max(agreement, np.abs(red.A_plus - rec.A_plus).max())
    report.add("models.disc_method_agreement", agreement, 1e-9)

    lam = 0.7
    p, c = solved[lam]
    a_vals = [models.solve_disc_reduction(p, n).A_plus[0] for n in (10, 20, 40)]
    ratio = abs(a_vals[1] - a_vals[2]) / abs(a_vals[0] - a_vals[1])
    report.add(
        "models.disc_truncation_convergence",
        ratio,
        lam**2 + 0.05,
        "|A0(2N)-A0(4N)| / |A0(N)-A0(2N)| at lam=0.7",
    )

    report.add("models.disc_sign_pattern", float(c.A_plus.max()), 0.0)

    a, b = models._disc_table(10, 19)  # row n leads with A[n, 2n + 1], B[n, 2n]
    n = np.arange(10)
    seed = 1.0 / (2.0 * math.pi * (n + 0.5))
    seed_defect = max(np.abs(a[n, 2 * n + 1] + seed).max() / seed[-1], np.abs(b[n, 2 * n]).max())
    report.add("models.recurrence_seed_rows", seed_defect, 1e-15)

    pd, cd = solved[0.5]
    pa = models.AnnulusProblem(lam0=0.0, lam1=0.5, delta_star=delta_star)
    ca = models.solve_annulus_reduction(pa, n_trunc)
    degeneration = max(
        np.abs(ca.A_plus - cd.A_plus).max(),
        np.abs(ca.A_minus).max(),
        np.abs(ca.B_plus).max(),
    )
    report.add("models.annulus_degeneration", degeneration, 1e-12)

    report.add(
        "models.disc_system_residual",
        models.system_residual(pd, cd),
        1e-12,
    )
    pa2 = models.AnnulusProblem(lam0=0.2, lam1=0.5, delta_star=delta_star)
    ca2 = models.solve_annulus_reduction(pa2, n_trunc)
    report.add(
        "models.annulus_system_residual",
        models.system_residual(pa2, ca2),
        1e-12,
    )

    # the forcing's omega-tilde columns (s = 2k+1 and -(2k+1) on the plus
    # side, 2k+2 on the minus side) against the independent pole series
    columns = models._omega_tilde_columns(0.5, 4)
    tilde = 0.0
    for k in (1, 2, 3):
        points = (("plus", 2 * k + 1), ("plus", -(2 * k + 1)), ("minus", 2 * k + 2))
        for col, (side, s) in enumerate(points):
            a = models._omega_tilde_series(side, float(s), 0.5)
            tilde = max(tilde, abs(a - columns[k, col]) / max(1.0, abs(a)))
    report.add("models.omega_tilde_dual_form", tilde, 1e-11)


def _check_fields(report: VerificationReport, solved: dict) -> None:
    solved = {lam: solved[lam] for lam in (0.3, 0.5, 0.7)}  # 0.1 is the models check's alone
    contact_dual = 0.0
    outer_dual = 0.0
    negativity = -math.inf
    x = np.linspace(0.6, 0.95, 6)
    r = np.linspace(1.05, 1.4, 6)
    for lam, (p, c) in solved.items():
        a = fields.stress_contact(p, c, x)
        b = fields.stress_contact_edge(p, c, x)
        contact_dual = max(contact_dual, np.max(np.abs(a - b) / np.abs(a)))
        a = fields.stress_outer(p, c, r)
        b = fields.stress_outer_edge(p, c, r)
        outer_dual = max(outer_dual, np.max(np.abs(a - b) / np.abs(a)))
        if lam in (0.3, 0.5):
            contact = fields.stress_contact(p, c, np.linspace(0.0, 0.99, 30))
            negativity = max(negativity, np.max(contact))
    report.add("fields.stress_contact_dual_representation", contact_dual, 1e-9)
    report.add("fields.stress_outer_dual_representation", outer_dual, 1e-9)
    report.add("fields.contact_stress_negative", negativity, 0.0)

    p, c = solved[0.5]
    eps = np.array([1e-4, 1e-8])
    scaled = fields.stress_contact(p, c, 1.0 - eps) * np.sqrt(1.0 - (1.0 - eps) ** 2)
    report.add(
        "fields.contact_edge_square_root",
        abs(scaled[0] / scaled[1] - 1.0),
        1e-3,
        "sqrt-scaled contact stress approaches a finite nonzero limit",
    )
    scaled = fields.stress_outer(p, c, 1.0 + eps) * np.sqrt(1.0 - 1.0 / (1.0 + eps) ** 2)
    report.add(
        "fields.outer_edge_square_root",
        abs(scaled[0] / scaled[1] - 1.0),
        1e-3,
    )

    res = fields.sif_exact(p, c)
    r = 1.0 + 1e-6
    estimate = math.sqrt(2.0 * math.pi * (r - 1.0)) * fields.stress_outer(p, c, r)
    report.add(
        "fields.sif_near_tip_consistency",
        abs(estimate - res.k1_exact) / abs(res.k1_exact),
        0.01,
    )

    worst = max(max(fields.continuity_defects(pp, cc)) for pp, cc in solved.values())
    report.add("fields.continuity_defects", worst, 1e-9)

    lam = 0.7
    pp = solved[lam][0]
    defects = {
        n: fields.continuity_defects(pp, models.solve_disc_reduction(pp, n))
        for n in (8, 16)
    }
    ratio = max(
        defects[16][0] / defects[8][0], defects[16][1] / defects[8][1]
    )
    report.add(
        "fields.continuity_defect_decay", ratio, lam**2 + 0.05,
        "defect(2N)/defect(N) at lam=0.7, N=8",
    )


def _sides(evaluate, columns, draws=()):
    """X+ and X- of a column set, one evaluation per side, each inside its own half-plane.

    X+ is evaluated at the contour samples, the draws and the plus order-fit
    points, X- at the samples and the minus points.  Returns X+ and X- at the
    samples, X+ at the draws, and the order-fit values by side.
    """
    n, d = len(_CONTOUR), len(draws)
    plus = evaluate("plus", np.concatenate([_CONTOUR, draws, fz.order_fit_points("plus")]), columns)
    minus = evaluate("minus", np.concatenate([_CONTOUR, fz.order_fit_points("minus")]), columns)
    return plus[:n], minus[:n], plus[n : n + d], {"plus": plus[n + d :], "minus": minus[n:]}


def _check_factorization(
    report: VerificationReport, lam: float, lam0: float, lam1: float, n_trunc: int
) -> None:
    disc_cols = fz.solve_factor_columns_disc(lam, n_trunc)
    X_plus, X_minus, at_draws, disc_fits = _sides(fz.eval_X_disc, disc_cols, _constancy_draws())
    det_p = np.linalg.det(X_plus)
    det_m = np.linalg.det(X_minus)
    report.add("factorization.disc_det_plus", np.max(np.abs(det_p + 0.5)), 1e-9)
    report.add(
        "factorization.disc_det_minus", np.max(np.abs(det_m - 1.0 / (2.0 * lam))), 1e-9
    )

    dets = np.abs(np.linalg.det(at_draws))
    report.add(
        "factorization.disc_det_constancy",
        float(np.var(dets) / np.mean(dets) ** 2),
        1e-16,
    )

    residuals = (
        (30, fz.boundary_residual(fz.solve_factor_columns_disc(lam, 30), _CONTOUR)),
        (n_trunc, fz._boundary_defect(disc_cols, _CONTOUR, X_plus, X_minus)),
    )
    for n, residual in residuals:
        report.add(
            f"factorization.disc_boundary_residual_N{n}",
            residual,
            1e-8,
            "identically satisfied; measures rounding only",
        )

    ann_cols = fz.solve_factor_columns_annulus(lam0, lam1, n_trunc)
    X_plus, X_minus, _, ann_fits = _sides(fz.eval_X_annulus, ann_cols)
    det_p = np.linalg.det(X_plus)
    det_m = np.linalg.det(X_minus)
    report.add(
        "factorization.annulus_det_plus", np.max(np.abs(det_p - 1.0 / (2.0 * lam0))), 1e-8
    )
    report.add(
        "factorization.annulus_det_minus", np.max(np.abs(det_m - 1.0 / (4.0 * lam1))), 1e-8
    )
    report.add(
        "factorization.annulus_boundary_residual",
        fz._boundary_defect(ann_cols, _CONTOUR, X_plus, X_minus),
        1e-7,
    )

    # one fit per (side, column set) serves both the index and the distance
    index_defect = 0.0
    fit_defect = 0.0
    fit_failure = ""
    for side in ("plus", "minus"):
        for name, fits in (("disc", disc_fits), ("annulus", ann_fits)):
            fit = fz.order_fit(fits[side])
            fit_defect = max(fit_defect, fit.distance)
            try:
                indices = fit.partial_indices()
            except fz.FitAmbiguityError as exc:
                index_defect = math.inf
                fit_failure = fit_failure or f"{name} X{'+' if side == 'plus' else '-'}: {exc}"
            else:
                index_defect = max(index_defect, *(abs(k) for k in indices))
    report.add("factorization.partial_indices_zero", index_defect, 0.0, fit_failure)
    report.add("factorization.order_fit_distance", fit_defect, 0.1)

    residual = max(
        max(fz.factor_system_residual(c) for c in disc_cols),
        max(fz.factor_system_residual(c) for c in ann_cols),
    )
    report.add("factorization.column_system_residual", residual, 1e-12)


def run_verification(
    lam: float = 0.5,
    lam0: float = 0.2,
    lam1: float = 0.5,
    delta_over_a: float = 0.05,
    n_trunc: int = models.DEFAULT_TRUNCATION,
) -> VerificationReport:
    """Run every invariant check and collect a structured report."""
    delta_star = 2.0 * delta_over_a / specfun.SQRT_PI
    report = VerificationReport()
    _check_specfun(report)
    # the disc at the four check ratios, solved once for the models and fields checks
    solved = {}
    for lam_check in (0.1, 0.3, 0.5, 0.7):
        p = models.DiscProblem(lam=lam_check, delta_star=delta_star)
        solved[lam_check] = p, models.solve_disc_reduction(p, n_trunc)
    _check_models(report, solved, delta_star, n_trunc)
    _check_fields(report, solved)
    _check_factorization(report, lam, lam0, lam1, n_trunc)
    return report
