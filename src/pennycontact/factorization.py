"""Canonical factorization of the boundary matrix coefficients.

The 2x2 (disc) and 3x3 (annulus) triangular boundary matrices G0(s) admit
piecewise-analytic factorizations X+(s) = G0(s) X-(s) whose columns are
built from rational pole-removal series.  The column coefficients solve the
models' own operator with Kronecker forcings; this module solves them by
reduction, evaluates the factor matrices, checks the boundary relation and
estimates the partial indices from the column orders at infinity.

Each check reads the geometry from the columns it is given, so one function
serves both factorizations, and order_fit takes X+ or X- already evaluated at
order_fit_points(side).  The Kronecker forcings are weight-free columns times
the row weights, applied by models._weighted (from models._row_weights).

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
    DEFAULT_TRUNCATION,
    _families,
    _interleave,
    _residual,
    _solve_interleaved,
    _weighted,
)
from .specfun import _POLE_TOL, PoleError, _as_given, _points, cot_half_pi, tan_half_pi

__all__ = [
    "FitAmbiguityError",
    "DiscFactorColumn",
    "AnnulusFactorColumn",
    "solve_factor_columns_disc",
    "solve_factor_columns_annulus",
    "eval_X_disc",
    "eval_X_annulus",
    "g0_disc",
    "g0_annulus",
    "boundary_residual",
    "factor_system_residual",
    "OrderFit",
    "order_fit",
    "order_fit_points",
    "contour_samples",
]

# Order-at-infinity fits: 12 radii log-spaced over [1e2, 1e4], over 50 apart, snapped
# to distinct half-odd values, where tan and cot stay on the unit circle; the slack.
_ORDER_FIT_RADII = 2.0 * np.floor(np.logspace(2.0, 4.0, 12) / 2.0) + 0.5
_ORDER_FIT_SLACK = 0.2

# Contour line Re s and the Im s range that contour_samples spans.
_CONTOUR_RE = 0.5
_CONTOUR_IM_RANGE = (0.1, 10.0)


class FitAmbiguityError(RuntimeError):
    """A column-order fit did not land near an integer."""


@dataclass(frozen=True)
class DiscFactorColumn:
    """One column of the 2x2 factorization for radius ratio lam."""

    lam: float
    column_index: int
    A_plus: np.ndarray
    B_minus: np.ndarray


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


# ----------------------------------------------------------------------
# column solvers
# ----------------------------------------------------------------------


# Weight-free Kronecker forcings of the annulus columns, slot (B-, A+, A-, B+)
# by column; the top-left 2 x 2 corner is the disc's.
_KRONECKER = (2.0 / math.pi) * np.array([[-1.0, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, -1]])


def _column_rhs(lam: float, t: float | None, N: int) -> np.ndarray:
    """Kronecker forcings of the disc (t is None) or annulus columns, shape (N, slot, column)."""
    unit = _KRONECKER[:2, :2] if t is None else _KRONECKER
    return _weighted(lam, t, np.broadcast_to(unit, (N,) + unit.shape))


def solve_factor_columns_disc(
    lam: float, N: int = DEFAULT_TRUNCATION
) -> tuple[DiscFactorColumn, DiscFactorColumn]:
    """Solve the two disc factor-column systems by reduction.

    Truncates to the 2N x 2N disc operator and solves both columns with
    one LU, the capacitance matrix of its factored Hankel kernel
    (models._solve_interleaved).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1), got {lam!r}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N!r}")
    x = _solve_interleaved(lam, None, _column_rhs(lam, None, N))
    return tuple(
        DiscFactorColumn(lam=lam, column_index=j + 1, **_families(x[:, :, j]))
        for j in range(2)
    )


def solve_factor_columns_annulus(
    lam0: float, lam1: float, N: int = DEFAULT_TRUNCATION
) -> tuple[AnnulusFactorColumn, AnnulusFactorColumn, AnnulusFactorColumn]:
    """Solve the three annulus factor-column systems by reduction.

    The three right-hand sides share one LU, the capacitance matrix of the
    factored Hankel kernels of the 4N x 4N annulus operator with inner
    ratio lam0/lam1 (models._solve_interleaved).
    """
    if not 0.0 < lam0 < lam1 < 1.0:
        raise ValueError(
            f"need 0 < lam0 < lam1 < 1, got lam0={lam0!r}, lam1={lam1!r}"
        )
    t = lam0 / lam1
    x = _solve_interleaved(lam1, t, _column_rhs(lam1, t, N))
    return tuple(
        AnnulusFactorColumn(
            lam0=lam0, lam1=lam1, column_index=j + 1, **_families(x[:, :, j])
        )
        for j in range(3)
    )


def factor_system_residual(column) -> float:
    """Back-substitution residual max |M x - b| of a solved factor column."""
    lam, t, _, _ = _geometry(column)
    x = _interleave(column, 2 if t is None else 4)
    return _residual(lam, t, x, _column_rhs(lam, t, len(x))[:, :, column.column_index - 1])


# ----------------------------------------------------------------------
# factor-matrix evaluation
# ----------------------------------------------------------------------


def _guard_integer(s: np.ndarray) -> None:
    """Reject the whole array if any point is near an integer."""
    near = np.abs(s - np.rint(s.real)) < _POLE_TOL
    if near.any():
        raise PoleError(
            f"factor matrices are singular near integer s = {int(np.rint(s.real[near][0]))}"
        )


def _check_side(side: str) -> None:
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")


def _rational_sums(columns, family: str, s: np.ndarray, offset: float, step: float) -> np.ndarray:
    """sum_m c[m] / (s + offset + step*m) for the family c of every column.

    One (points x terms) array of reciprocals serves all the columns; the
    result has shape (points, columns).
    """
    coeffs = np.stack([getattr(col, family) for col in columns], axis=1)
    m = np.arange(len(coeffs))
    return (1.0 / (s[:, np.newaxis] + offset + step * m)) @ coeffs


def _unit(columns, index: int) -> np.ndarray:
    """Kronecker delta d_index of every column: 1 where column_index == index."""
    return np.array([float(col.column_index == index) for col in columns])


# eval_X_* and g0_* take a complex number, giving one matrix, or an array of
# them, giving a stack of shape s.shape + (k, k).  An array is rejected whole
# if any point is non-finite, or in eval_X_* within 1e-9 of an integer.


def eval_X_disc(side: str, s, columns) -> np.ndarray:
    """Evaluate the 2x2 factor matrix X+(s) or X-(s)."""
    s, shape = _points(s, complex)
    _guard_integer(s)
    _check_side(side)
    lam = columns[0].lam
    psi = _rational_sums(columns, "A_plus", s, -1.0, -2.0) + _unit(columns, 1)
    omega = _rational_sums(columns, "B_minus", s, 0.0, 2.0) + _unit(columns, 2)
    if side == "plus":
        factor = (lam ** (-s) * cot_half_pi(s))[:, np.newaxis]
        rows = (0.5 * (omega + factor * psi), psi)
    else:
        factor = (lam**s * tan_half_pi(s))[:, np.newaxis]
        rows = (0.5 * (psi + factor * omega), omega / lam)
    return _as_given(np.stack(rows, axis=1), shape)


def eval_X_annulus(side: str, s, columns) -> np.ndarray:
    """Evaluate the 3x3 factor matrix X+(s) or X-(s)."""
    s, shape = _points(s, complex)
    _guard_integer(s)
    _check_side(side)
    lam0 = columns[0].lam0
    lam1 = columns[0].lam1
    t = lam0 / lam1
    psi_p = _rational_sums(columns, "A_plus", s, -1.0, -2.0) + _unit(columns, 1)
    psi_m = _rational_sums(columns, "A_minus", s, 1.0, 2.0) + _unit(columns, 3)
    omega = (
        _rational_sums(columns, "B_plus", s, -2.0, -2.0)
        + _rational_sums(columns, "B_minus", s, 0.0, 2.0)
        + _unit(columns, 2)
    )
    tan = tan_half_pi(s)[:, np.newaxis]
    cot = cot_half_pi(s)[:, np.newaxis]
    s = s[:, np.newaxis]  # one row per point, broadcast over the columns
    if side == "plus":
        rows = (
            0.5 * (lam1 ** (-s) * cot * psi_p + omega),
            (t ** (-s) * tan * omega + psi_m) / lam0,
            psi_p,
        )
    else:
        rows = (
            0.5 * (lam1**s * tan * omega + psi_p),
            (t**s * cot * psi_m + omega) / lam1,
            0.5 * psi_m,
        )
    return _as_given(np.stack(rows, axis=1), shape)


def g0_disc(s, lam: float) -> np.ndarray:
    """Boundary matrix coefficient of the disc problem."""
    s, shape = _points(s, complex)
    zero = np.zeros_like(s)
    rows = (
        np.stack([lam ** (-s) * cot_half_pi(s), zero], axis=1),
        np.stack([np.full_like(s, 2.0), -(lam ** (s + 1.0)) * tan_half_pi(s)], axis=1),
    )
    return _as_given(np.stack(rows, axis=1), shape)


def g0_annulus(s, lam0: float, lam1: float) -> np.ndarray:
    """Boundary matrix coefficient of the annulus problem."""
    s, shape = _points(s, complex)
    t = lam0 / lam1
    tan = tan_half_pi(s)
    zero = np.zeros_like(s)
    rows = (
        np.stack([lam1 ** (-s) * cot_half_pi(s), zero, zero], axis=1),
        np.stack([zero, t ** (-s - 1.0) * tan, zero], axis=1),
        np.stack([np.full_like(s, 2.0), -(lam1 ** (s + 1.0)) * tan, 2.0 * lam0**s], axis=1),
    )
    return _as_given(np.stack(rows, axis=1), shape)


def contour_samples(count: int) -> list[complex]:
    """Log-spaced contour points on Re s = 1/2, symmetric in Im s."""
    lo, hi = _CONTOUR_IM_RANGE
    taus = np.logspace(math.log10(lo), math.log10(hi), max(count // 2, 1))
    points = []
    for tau in taus:
        points.append(complex(_CONTOUR_RE, tau))
        points.append(complex(_CONTOUR_RE, -tau))
    return points[:count]


def _geometry(column):
    """(lam, t, eval_X, G0 of s) of a column's factorization, t None for the disc.

    eval_X_* are looked up as module globals at call time, so a wrapped
    module attribute is the one that runs.
    """
    if isinstance(column, DiscFactorColumn):
        return column.lam, None, eval_X_disc, lambda s: g0_disc(s, column.lam)
    if isinstance(column, AnnulusFactorColumn):
        lam0, lam1 = column.lam0, column.lam1
        return lam1, lam0 / lam1, eval_X_annulus, lambda s: g0_annulus(s, lam0, lam1)
    raise TypeError(f"unsupported column type {type(column)!r}")


def _boundary_defect(columns, s: np.ndarray, X_plus: np.ndarray, X_minus: np.ndarray) -> float:
    """max_s || X+(s) - G0(s) X-(s) ||_max from X+ and X- evaluated at the points s."""
    _, _, _, g0 = _geometry(columns[0])
    return float(np.abs(X_plus - g0(s) @ X_minus).max(initial=0.0))


def boundary_residual(columns, samples) -> float:
    """max_s || X+(s) - G0(s) X-(s) ||_max over the samples, evaluating X+ and X- there."""
    s = np.asarray(samples, dtype=complex)
    _, _, evaluate, _ = _geometry(columns[0])
    return _boundary_defect(columns, s, evaluate("plus", s, columns), evaluate("minus", s, columns))


# ----------------------------------------------------------------------
# partial indices
# ----------------------------------------------------------------------


def order_fit_points(side: str) -> np.ndarray:
    """The points order_fit reads X at: the fit radii, negated for X+, in the side's half-plane."""
    _check_side(side)
    return (-1.0 if side == "plus" else 1.0) * _ORDER_FIT_RADII + 0j


@dataclass(frozen=True)
class OrderFit:
    """Fitted order at infinity of every factor-matrix entry on one side.

    orders[i, j] is minus the log-log slope of entry (i, j); an entry that
    vanishes at too many samples gets NaN.
    """

    orders: np.ndarray

    @property
    def distance(self) -> float:
        """Largest distance of any entry-order fit from its nearest integer."""
        distance = np.abs(self.orders - np.round(self.orders))
        return float(distance[~np.isnan(distance)].max(initial=0.0))

    def partial_indices(self) -> list[int]:
        """The minimum fitted entry order per column, as integers.

        A slope more than 0.2 away from an integer, or a column that vanished
        at every sample, raises FitAmbiguityError.
        """
        nearest = np.round(self.orders)
        ambiguous = np.argwhere(np.abs(self.orders - nearest).T > _ORDER_FIT_SLACK)
        if len(ambiguous):
            j, i = ambiguous[0]
            raise FitAmbiguityError(
                f"entry ({i + 1},{j + 1}) order fit {self.orders[i, j]:.3f} is not "
                f"within {_ORDER_FIT_SLACK} of an integer"
            )
        vanished = np.flatnonzero(np.isnan(self.orders).all(axis=0))
        if len(vanished):
            raise FitAmbiguityError(f"column {vanished[0] + 1} vanished at all samples")
        return [int(np.nanmin(column)) for column in nearest.T]


def order_fit(values) -> OrderFit:
    """Fit the order at infinity of every factor-matrix entry.

    values is X+ or X- evaluated at order_fit_points(side), one matrix per
    point; the fit is the log-log slope of each entry against the radius,
    the least-squares line's slope in closed form (_slope).
    """
    log_t = np.log(_ORDER_FIT_RADII)
    dim = values.shape[-1]
    mags = np.abs(values).reshape(len(log_t), dim * dim)
    keep = mags > 0.0
    slopes = np.full(dim * dim, np.nan)
    # entries nonzero at every radius share one fit
    full = keep.all(axis=0)
    if full.any():
        slopes[full] = _slope(log_t, np.log(mags[:, full]))
    for e in np.flatnonzero(~full & (keep.sum(axis=0) >= 4)):
        slopes[e] = _slope(log_t[keep[:, e]], np.log(mags[keep[:, e], e]))
    return OrderFit(-slopes.reshape(dim, dim))


def _slope(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares slope of y against x, per column of y: sum dx dy / sum dx**2.

    dx and dy are the deviations from the means.  This is the slope
    np.polyfit(x, y, 1) fits, without LAPACK's least-squares solver.
    """
    dx = x - x.mean()
    return dx @ (y - y.mean(axis=0)) / (dx @ dx)
