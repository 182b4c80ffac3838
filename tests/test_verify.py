"""The invariant suite must pass wholesale at its default parameters."""

import pytest

from pennycontact import models, specfun
from pennycontact.verify import run_verification


def test_default_verification_passes():
    report = run_verification(n_trunc=40)
    failures = [c.name for c in report.checks if not c.passed]
    assert report.passed, failures
    assert len(report.checks) >= 30


def test_report_serialization_schema():
    report = run_verification(n_trunc=20)
    doc = report.to_dict()
    assert set(doc) == {"passed", "checks"}
    for entry in doc["checks"]:
        assert set(entry) == {"name", "passed", "measured", "threshold", "detail"}
        assert isinstance(entry["measured"], float)


CHECK_NAMES = [
    "specfun.kernel_factorization_identity",
    "specfun.kernel_tangent_identity",
    "specfun.kernel_asymptotic_order",
    "specfun.gamma_reflection",
    "specfun.arcsine_identity",
    "models.disc_method_agreement",
    "models.disc_truncation_convergence",
    "models.disc_sign_pattern",
    "models.recurrence_seed_rows",
    "models.annulus_degeneration",
    "models.disc_system_residual",
    "models.annulus_system_residual",
    "models.omega_tilde_dual_form",
    "fields.stress_contact_dual_representation",
    "fields.stress_outer_dual_representation",
    "fields.contact_stress_negative",
    "fields.contact_edge_square_root",
    "fields.outer_edge_square_root",
    "fields.sif_near_tip_consistency",
    "fields.continuity_defects",
    "fields.continuity_defect_decay",
    "factorization.disc_det_plus",
    "factorization.disc_det_minus",
    "factorization.disc_det_constancy",
    "factorization.disc_boundary_residual_N30",
    "factorization.disc_boundary_residual_N60",
    "factorization.annulus_det_plus",
    "factorization.annulus_det_minus",
    "factorization.annulus_boundary_residual",
    "factorization.partial_indices_zero",
    "factorization.order_fit_distance",
    "factorization.column_system_residual",
]


def test_check_names_and_order_are_stable():
    # verify --format json is a machine-read health check: its names are API
    assert [c.name for c in run_verification().checks] == CHECK_NAMES


@pytest.mark.parametrize(
    "module, function, check",
    [
        (specfun, "_f_family", "specfun.arcsine_identity"),
        (models, "_omega_tilde_columns", "models.omega_tilde_dual_form"),
    ],
    ids=["arcsine_identity", "omega_tilde_dual_form"],
)
def test_check_reads_the_library_path(monkeypatch, module, function, check):
    # a 1e-9 relative error in the code the library runs must fail the check
    original = getattr(module, function)
    monkeypatch.setattr(module, function, lambda *args: original(*args) * (1.0 + 1e-9))
    report = run_verification(n_trunc=20)
    assert check in [c.name for c in report.checks if not c.passed]
