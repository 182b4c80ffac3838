"""Canonical factorization of the boundary matrix coefficients.

The 2x2 (disc) and 3x3 (annulus) triangular boundary matrices G0(s)
admit piecewise-analytic factorizations X+(s) = G0(s) X-(s) whose
columns are built from rational pole-removal series.  The column
coefficients solve infinite linear systems with Kronecker forcings;
this module solves them (by reduction, plus lambda-power recurrences
for the disc), evaluates the factor matrices, checks the boundary
relation and the constant-determinant identities, and estimates the
partial indices from the column orders at infinity.

Note: with the column coefficients eliminated through their own
equations, X+ - G0 X- cancels algebraically for any truncation order,
so the boundary residual measures rounding only.  The truncation order
shows up instead in the analyticity defect of the truncated columns
(their first uncancelled pole) and in the coefficient tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    _families,
    _interleave,
    _power_sums,
    _power_table,
    _solve_interleaved,
    system_matrix,
)
from .specfun import PoleError, cot_half_pi, tan_half_pi

__all__ = [
    "FitAmbiguityError",
    "DiscFactorColumn",
    "AnnulusFactorColumn",
    "MatrixSample",
    "factor_recurrence_table",
    "solve_factor_columns_disc",
    "solve_factor_columns_annulus",
    "eval_X_disc",
    "eval_X_annulus",
    "g0_disc",
    "g0_annulus",
    "matrix_sample_disc",
    "matrix_sample_annulus",
    "boundary_residual_disc",
    "boundary_residual_annulus",
    "factor_system_residual",
    "partial_index_estimate",
    "contour_samples",
]

_POLE_TOL = 1e-9

# |s| window and sample count for the order-at-infinity fits.
_ORDER_FIT_RANGE = (1.0e2, 1.0e4)
_ORDER_FIT_POINTS = 12
_ORDER_FIT_SLACK = 0.2


class FitAmbiguityError(RuntimeError):
    """A column-order fit did not land near an integer."""


@dataclass(frozen=True)
class DiscFactorColumn:
    """One column of the 2x2 factorization for radius ratio lam.

    kronecker_sources names the equations carrying the unit forcing for
    this column.
    """

    lam: float
    column_index: int
    A_plus: np.ndarray
    B_minus: np.ndarray

    @property
    def kronecker_sources(self) -> tuple[str, ...]:
        return ("B_minus",) if self.column_index == 1 else ("A_plus",)


@dataclass(frozen=True)
class AnnulusFactorColumn:
    """One column of the 3x3 factorization for ratios (lam0, lam1)."""

    lam0: float
    lam1: float
    column_index: int
    A_plus: np.ndarray
    A_minus: np.ndarray
    B_plus: np.ndarray
    B_minus: np.ndarray

    @property
    def kronecker_sources(self) -> tuple[str, ...]:
        return {
            1: ("B_minus",),
            2: ("A_plus", "A_minus"),
            3: ("B_plus",),
        }[self.column_index]


@dataclass(frozen=True)
class MatrixSample:
    """Both factor matrices and the boundary coefficient at one point."""

    s: complex
    X_plus: np.ndarray
    X_minus: np.ndarray
    G0: np.ndarray

    @property
    def boundary_defect(self) -> float:
        """Max-entry norm of X+ - G0 X- at this point."""
        return float(np.abs(self.X_plus - self.G0 @ self.X_minus).max())


# ----------------------------------------------------------------------
# column solvers
# ----------------------------------------------------------------------


def factor_recurrence_table(
    column_index: int, n_rows: int, order_K: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lambda-power tables a[n, k], b[n, k] for one disc factor column.

    The column system is the shared operator itself, so the tables follow
    the model recurrence with order-zero seeds b[n, 0] = -2 d_{l1}/pi and
    a[n, 0] = b[0, 0]/(pi (n+1/2)) + 2 d_{l2}/pi.  For the first column
    the b-seed feeds through to a[n, 0], which is therefore nonzero; the
    reduction solver confirms this leading order.
    """
    if column_index not in (1, 2):
        raise ValueError(f"column_index must be 1 or 2, got {column_index!r}")
    d1 = float(column_index == 1)
    d2 = float(column_index == 2)
    return _power_table(2.0 * d2 / math.pi, -2.0 * d1 / math.pi, n_rows, order_K)


def _disc_column_rhs(lam: float, N: int) -> np.ndarray:
    """Kronecker forcings of the two disc columns, shape (N, slot, column)."""
    n = np.arange(N)
    rhs = np.zeros((N, 2, 2))
    rhs[:, 0, 0] = -(2.0 / math.pi) * lam ** (2 * n)
    rhs[:, 1, 1] = (2.0 / math.pi) * lam ** (2 * n + 1)
    return rhs


def _annulus_column_rhs(lam0: float, lam1: float, N: int) -> np.ndarray:
    """Kronecker forcings of the three annulus columns, shape (N, slot, column)."""
    t = lam0 / lam1
    n = np.arange(N)
    rhs = np.zeros((N, 4, 3))
    rhs[:, 0, 0] = -(2.0 / math.pi) * lam1 ** (2 * n)
    rhs[:, 1, 1] = (2.0 / math.pi) * lam1 ** (2 * n + 1)
    rhs[:, 2, 1] = (2.0 / math.pi) * t ** (2 * n + 1)
    rhs[:, 3, 2] = -(2.0 / math.pi) * t ** (2 * n + 2)
    return rhs


def solve_factor_columns_disc(
    lam: float, N: int = 60, method: str = "reduction", order_K: int = 120
) -> tuple[DiscFactorColumn, DiscFactorColumn]:
    """Solve the two disc factor-column systems.

    method='reduction' truncates to the 2N x 2N disc operator and solves
    both columns with one LU of its N x N Schur complement (the B unknowns
    eliminated); method='recurrence' sums the
    lambda-power tables to order_K.  The two routes agree to the smaller
    of the two tail errors.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1), got {lam!r}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N!r}")
    if method == "reduction":
        x = _solve_interleaved(lam, None, _disc_column_rhs(lam, N))
        families = [_families(x[:, :, j]) for j in range(2)]
    elif method == "recurrence":
        rows = max(N, order_K // 2 + 1)
        families = []
        for l in (1, 2):
            a, b = _power_sums(lam, *factor_recurrence_table(l, rows, order_K), N)
            families.append({"A_plus": a, "B_minus": b})
    else:
        raise ValueError(f"unknown method {method!r}")
    return tuple(
        DiscFactorColumn(lam=lam, column_index=j + 1, **families[j]) for j in range(2)
    )


def solve_factor_columns_annulus(
    lam0: float, lam1: float, N: int = 60
) -> tuple[AnnulusFactorColumn, AnnulusFactorColumn, AnnulusFactorColumn]:
    """Solve the three annulus factor-column systems by reduction.

    The three right-hand sides share one LU of the 2N x 2N Schur
    complement of the 4N x 4N annulus operator with inner ratio lam0/lam1.
    """
    if not 0.0 < lam0 < lam1 < 1.0:
        raise ValueError(
            f"need 0 < lam0 < lam1 < 1, got lam0={lam0!r}, lam1={lam1!r}"
        )
    x = _solve_interleaved(lam1, lam0 / lam1, _annulus_column_rhs(lam0, lam1, N))
    return tuple(
        AnnulusFactorColumn(
            lam0=lam0, lam1=lam1, column_index=j + 1, **_families(x[:, :, j])
        )
        for j in range(3)
    )


def factor_system_residual(column) -> float:
    """Back-substitution residual max |M x - b| of a solved factor column."""
    if isinstance(column, DiscFactorColumn):
        x = _interleave(column, 2)
        lam, t = column.lam, None
        rhs = _disc_column_rhs(column.lam, len(x))
    elif isinstance(column, AnnulusFactorColumn):
        x = _interleave(column, 4)
        lam, t = column.lam1, column.lam0 / column.lam1
        rhs = _annulus_column_rhs(column.lam0, column.lam1, len(x))
    else:
        raise TypeError(f"unsupported column type {type(column)!r}")
    b = rhs[:, :, column.column_index - 1].ravel()
    return float(np.abs(system_matrix(lam, t, len(x)) @ x.ravel() - b).max())


# ----------------------------------------------------------------------
# factor-matrix evaluation
# ----------------------------------------------------------------------


def _guard_integer(s: complex) -> None:
    if abs(s - round(s.real)) < _POLE_TOL:
        raise PoleError(
            f"factor matrices are singular near integer s = {round(s.real)}"
        )


def _rational_sum(coeffs: np.ndarray, s: complex, offset: float, step: float) -> complex:
    """sum_m coeffs[m] / (s + offset + step*m)."""
    m = np.arange(len(coeffs))
    return complex(np.sum(coeffs / (s + offset + step * m)))


def eval_X_disc(side: str, s: complex, columns) -> np.ndarray:
    """Evaluate the 2x2 factor matrix X+(s) or X-(s)."""
    s = complex(s)
    _guard_integer(s)
    col1, col2 = columns
    lam = col1.lam
    out = np.empty((2, 2), dtype=complex)
    for j, col in enumerate((col1, col2)):
        d1 = 1.0 if col.column_index == 1 else 0.0
        d2 = 1.0 if col.column_index == 2 else 0.0
        psi = _rational_sum(col.A_plus, s, -1.0, -2.0) + d1
        omega = _rational_sum(col.B_minus, s, 0.0, 2.0) + d2
        if side == "plus":
            out[0, j] = 0.5 * (omega + lam ** (-s) * cot_half_pi(s) * psi)
            out[1, j] = psi
        elif side == "minus":
            out[0, j] = 0.5 * (psi + lam**s * tan_half_pi(s) * omega)
            out[1, j] = omega / lam
        else:
            raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    return out


def eval_X_annulus(side: str, s: complex, columns) -> np.ndarray:
    """Evaluate the 3x3 factor matrix X+(s) or X-(s)."""
    s = complex(s)
    _guard_integer(s)
    lam0 = columns[0].lam0
    lam1 = columns[0].lam1
    t = lam0 / lam1
    out = np.empty((3, 3), dtype=complex)
    for j, col in enumerate(columns):
        d1 = 1.0 if col.column_index == 1 else 0.0
        d2 = 1.0 if col.column_index == 2 else 0.0
        d3 = 1.0 if col.column_index == 3 else 0.0
        psi_p = _rational_sum(col.A_plus, s, -1.0, -2.0) + d1
        psi_m = _rational_sum(col.A_minus, s, 1.0, 2.0) + d3
        omega = (
            _rational_sum(col.B_plus, s, -2.0, -2.0)
            + _rational_sum(col.B_minus, s, 0.0, 2.0)
            + d2
        )
        if side == "plus":
            out[0, j] = 0.5 * (lam1 ** (-s) * cot_half_pi(s) * psi_p + omega)
            out[1, j] = (t ** (-s) * tan_half_pi(s) * omega + psi_m) / lam0
            out[2, j] = psi_p
        elif side == "minus":
            out[0, j] = 0.5 * (lam1**s * tan_half_pi(s) * omega + psi_p)
            out[1, j] = (t**s * cot_half_pi(s) * psi_m + omega) / lam1
            out[2, j] = 0.5 * psi_m
        else:
            raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    return out


def g0_disc(s: complex, lam: float) -> np.ndarray:
    """Boundary matrix coefficient of the disc problem."""
    s = complex(s)
    return np.array(
        [
            [lam ** (-s) * cot_half_pi(s), 0.0],
            [2.0, -(lam ** (s + 1.0)) * tan_half_pi(s)],
        ],
        dtype=complex,
    )


def g0_annulus(s: complex, lam0: float, lam1: float) -> np.ndarray:
    """Boundary matrix coefficient of the annulus problem."""
    s = complex(s)
    t = lam0 / lam1
    return np.array(
        [
            [lam1 ** (-s) * cot_half_pi(s), 0.0, 0.0],
            [0.0, t ** (-s - 1.0) * tan_half_pi(s), 0.0],
            [2.0, -(lam1 ** (s + 1.0)) * tan_half_pi(s), 2.0 * lam0**s],
        ],
        dtype=complex,
    )


def contour_samples(
    count: int = 20, gamma: float = 0.5, im_min: float = 0.1, im_max: float = 10.0
) -> list[complex]:
    """Log-spaced contour points on Re s = gamma, symmetric in Im s."""
    taus = np.logspace(math.log10(im_min), math.log10(im_max), max(count // 2, 1))
    points = []
    for tau in taus:
        points.append(complex(gamma, tau))
        points.append(complex(gamma, -tau))
    return points[:count]


def matrix_sample_disc(s: complex, columns) -> MatrixSample:
    """Evaluate X+, X- and G0 of the disc factorization at one point."""
    return MatrixSample(
        s=complex(s),
        X_plus=eval_X_disc("plus", s, columns),
        X_minus=eval_X_disc("minus", s, columns),
        G0=g0_disc(s, columns[0].lam),
    )


def matrix_sample_annulus(s: complex, columns) -> MatrixSample:
    """Evaluate X+, X- and G0 of the annulus factorization at one point."""
    return MatrixSample(
        s=complex(s),
        X_plus=eval_X_annulus("plus", s, columns),
        X_minus=eval_X_annulus("minus", s, columns),
        G0=g0_annulus(s, columns[0].lam0, columns[0].lam1),
    )


def boundary_residual_disc(columns, samples) -> float:
    """max_s || X+(s) - G0(s) X-(s) ||_max over the contour samples."""
    return max(
        (matrix_sample_disc(s, columns).boundary_defect for s in samples),
        default=0.0,
    )


def boundary_residual_annulus(columns, samples) -> float:
    """max_s || X+(s) - G0(s) X-(s) ||_max over the contour samples."""
    return max(
        (matrix_sample_annulus(s, columns).boundary_defect for s in samples),
        default=0.0,
    )


# ----------------------------------------------------------------------
# partial indices
# ----------------------------------------------------------------------


def _order_fit_abscissae() -> np.ndarray:
    """Half-odd sample radii where tan and cot stay on the unit circle."""
    lo, hi = _ORDER_FIT_RANGE
    raw = np.logspace(math.log10(lo), math.log10(hi), _ORDER_FIT_POINTS)
    snapped = 2.0 * np.floor(raw / 2.0) + 0.5
    return np.unique(snapped)


def _entry_orders(side: str, columns) -> np.ndarray:
    """Fitted order at infinity of every factor-matrix entry.

    Samples the factor matrix along the real axis inside its half-plane
    of analyticity and fits the log-log slope of each entry; an entry
    that vanishes at too many samples gets NaN.
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    if isinstance(columns[0], DiscFactorColumn):
        evaluate = eval_X_disc
    elif isinstance(columns[0], AnnulusFactorColumn):
        evaluate = eval_X_annulus
    else:
        raise TypeError(f"unsupported column type {type(columns[0])!r}")

    radii = _order_fit_abscissae()
    sign = -1.0 if side == "plus" else 1.0
    values = np.array([evaluate(side, complex(sign * t, 0.0), columns) for t in radii])
    log_t = np.log(radii)
    dim = values.shape[1]
    orders = np.full((dim, dim), np.nan)
    for i, j in np.ndindex(dim, dim):
        mags = np.abs(values[:, i, j])
        keep = mags > 0.0
        if keep.sum() >= 4:
            orders[i, j] = -np.polyfit(log_t[keep], np.log(mags[keep]), 1)[0]
    return orders


def partial_index_estimate(side: str, columns) -> list[int]:
    """Estimate the partial indices from the column orders at infinity.

    Takes the minimum fitted entry order per column.  A slope more than
    0.2 away from an integer raises FitAmbiguityError.
    """
    orders = _entry_orders(side, columns)
    nearest = np.round(orders)
    ambiguous = np.argwhere(np.abs(orders - nearest).T > _ORDER_FIT_SLACK)
    if len(ambiguous):
        j, i = ambiguous[0]
        raise FitAmbiguityError(
            f"entry ({i + 1},{j + 1}) order fit {orders[i, j]:.3f} is not "
            f"within {_ORDER_FIT_SLACK} of an integer"
        )
    vanished = np.flatnonzero(np.isnan(orders).all(axis=0))
    if len(vanished):
        raise FitAmbiguityError(f"column {vanished[0] + 1} vanished at all samples")
    return [int(np.nanmin(column)) for column in nearest.T]


def order_fit_distance(side: str, columns) -> float:
    """Largest distance of any entry-order fit from its nearest integer."""
    orders = _entry_orders(side, columns)
    distance = np.abs(orders - np.round(orders))
    return float(distance[~np.isnan(distance)].max(initial=0.0))
