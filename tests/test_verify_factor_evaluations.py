"""verify's factorization checks evaluate each factor matrix once per side.

The checks read slices of one X+ and one X- per column set; every measurement
must still equal, bit for bit, what the separate public calls give.
"""

import numpy as np
import pytest

from pennycontact import factorization as fz
from pennycontact.verify import run_verification


def test_one_evaluation_per_column_set_and_side(monkeypatch):
    calls = []
    for name in ("eval_X_disc", "eval_X_annulus"):
        original = getattr(fz, name)

        def counted(*args, original=original, name=name, **kwargs):
            calls.append((name, args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(fz, name, counted)
    run_verification()
    # the disc at N = 60 and N = 30 and the annulus, each side once
    assert sorted(calls) == sorted(
        [("eval_X_disc", side) for side in ("plus", "minus")] * 2
        + [("eval_X_annulus", side) for side in ("plus", "minus")]
    )


def _separate_measurements(lam, lam0, lam1, n_trunc=60):
    """The factorization checks' measurements, each from its own public calls."""
    samples = np.array(fz.contour_samples(20))
    draws = np.random.default_rng(314).uniform((-0.4, -30.0), (0.49, 30.0), (50, 2))
    points = draws[:, 0] + 1j * draws[:, 1]
    disc = fz.solve_factor_columns_disc(lam, n_trunc)
    ann = fz.solve_factor_columns_annulus(lam0, lam1, n_trunc)

    def det(evaluate, side, s, cols):
        return np.linalg.det(evaluate(side, s, cols))

    dets = np.abs(det(fz.eval_X_disc, "plus", points, disc))
    fits = [
        fz.order_fit(evaluate(side, fz.order_fit_points(side), cols))
        for side in ("plus", "minus")
        for evaluate, cols in ((fz.eval_X_disc, disc), (fz.eval_X_annulus, ann))
    ]
    return {
        "disc_det_plus": np.max(np.abs(det(fz.eval_X_disc, "plus", samples, disc) + 0.5)),
        "disc_det_minus": np.max(
            np.abs(det(fz.eval_X_disc, "minus", samples, disc) - 1.0 / (2.0 * lam))
        ),
        "disc_det_constancy": float(np.var(dets) / np.mean(dets) ** 2),
        "disc_boundary_residual_N30": fz.boundary_residual(
            fz.solve_factor_columns_disc(lam, 30), samples
        ),
        f"disc_boundary_residual_N{n_trunc}": fz.boundary_residual(disc, samples),
        "annulus_det_plus": np.max(
            np.abs(det(fz.eval_X_annulus, "plus", samples, ann) - 1.0 / (2.0 * lam0))
        ),
        "annulus_det_minus": np.max(
            np.abs(det(fz.eval_X_annulus, "minus", samples, ann) - 1.0 / (4.0 * lam1))
        ),
        "annulus_boundary_residual": fz.boundary_residual(ann, samples),
        "partial_indices_zero": max(
            0.0, *(abs(k) for fit in fits for k in fit.partial_indices())
        ),
        "order_fit_distance": max(0.0, *(fit.distance for fit in fits)),
    }


@pytest.mark.parametrize("lam, lam0, lam1", [(0.5, 0.2, 0.5), (0.9, 0.3, 0.8)])
def test_measurements_match_separate_public_calls(lam, lam0, lam1):
    report = run_verification(lam=lam, lam0=lam0, lam1=lam1)
    measured = {
        c.name.removeprefix("factorization."): c.measured
        for c in report.checks
        if c.name.startswith("factorization.")
    }
    want = _separate_measurements(lam, lam0, lam1)
    assert {name: measured[name] for name in want} == {
        name: float(value) for name, value in want.items()
    }
