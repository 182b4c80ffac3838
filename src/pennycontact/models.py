"""Pole-removal coefficient systems for the two inclusion geometries.

A flat rigid disc (radius b) or flat rigid annulus (radii c < b) wedged
into a penny-shaped crack of radius a leads, after Mellin transformation,
to infinite linear systems for the pole-removal coefficients A and B.
This module solves those systems by truncation to N rows per family
("reduction method", geometric convergence in N) through per-N kernels.
The kernel that couples each B family to its A family is a Hankel window,
a positive-definite Cauchy matrix of rank 18-19 / 23 / 28 to rounding at
N = 60 / 240 / 1000, so each solve factors only a capacitance matrix of
those ranks (_solve_interleaved, _hankel_factor).
For the disc, solve_disc_recurrence also solves them by exact recurrence
relations in powers of lambda = b/a; `verify` and the tests use it as an
independent cross-check of the reduction, and no command solves by it.  The
`sif` sweep sums the intensity factor as one power series in lambda whose
coefficients come from the same recurrence (_sif_coefficients).

The loading enters only through the indentation parameter
delta_star = 2*delta / (a * theta1 * sqrt(pi)), so every coefficient is
linear in delta_star: the lambda-power tables are built once at
delta_star = 1 (_power_table), and a recurrence solve scales its sums.

The forcing functions are built only as arrays, at the points s where the
equations sample them.

A geometry's set-up is paid once per solve, each piece in one place keyed
by its inputs: the forcing of each (problem, N) in one bounded cache per
model, which a solve and its system_residual share; the row weights and
kept counts of each (lambda, t, N) in another (_geometry); the kernels of
every N in one table (_kernels); the Hankel factors in one cache per
(N, window) (_hankel_factor).  The coefficient sets hold only their fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import (
    ConvergenceError,
    PoleError,
    SQRT_PI,
    _f_family,
    _f_family_below,
    _gamma_ratios,
)

__all__ = [
    "SingularSystemError",
    "DiscProblem",
    "AnnulusProblem",
    "CoefficientSetDisc",
    "CoefficientSetAnnulus",
    "solve_disc_reduction",
    "solve_disc_recurrence",
    "solve_annulus_reduction",
    "system_residual",
]

DEFAULT_TRUNCATION = 60
DEFAULT_ORDER = 120

_SERIES_RTOL = 1e-16
_SERIES_MAX_TERMS = 100_000
_POLE_TOL = 1e-9


class SingularSystemError(RuntimeError):
    """The truncated system could not be solved."""


@dataclass(frozen=True)
class DiscProblem:
    """Flat disc inclusion in a penny-shaped crack.

    lam is the radius ratio b/a in (0, 1); delta_star the nondimensional
    indentation 2*delta/(a*theta1*sqrt(pi)).  theta1 = (1 - nu)/G and the
    crack radius are carried only so the field evaluators can
    redimensionalize; the defaults give fully nondimensional output.
    """

    lam: float
    delta_star: float
    theta1: float = 1.0
    a_radius: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lam must lie in (0, 1), got {self.lam!r}")
        if self.delta_star < 0.0:
            raise ValueError(f"delta_star must be >= 0, got {self.delta_star!r}")
        if self.theta1 <= 0.0 or self.a_radius <= 0.0:
            raise ValueError("theta1 and a_radius must be positive")

    @property
    def delta_over_a(self) -> float:
        """delta/a implied by delta_star and theta1."""
        return 0.5 * self.delta_star * self.theta1 * SQRT_PI


@dataclass(frozen=True)
class AnnulusProblem:
    """Flat annular inclusion, inner/outer radius ratios lam0 < lam1.

    lam0 = 0 is accepted and degenerates exactly to the disc system.
    """

    lam0: float
    lam1: float
    delta_star: float
    theta1: float = 1.0
    a_radius: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.lam0 < 1.0:
            raise ValueError(f"lam0 must lie in [0, 1), got {self.lam0!r}")
        if not 0.0 < self.lam1 < 1.0:
            raise ValueError(f"lam1 must lie in (0, 1), got {self.lam1!r}")
        if self.lam0 >= self.lam1:
            raise ValueError(
                f"need lam0 < lam1, got lam0={self.lam0!r}, lam1={self.lam1!r}"
            )
        if self.delta_star < 0.0:
            raise ValueError(f"delta_star must be >= 0, got {self.delta_star!r}")
        if self.theta1 <= 0.0 or self.a_radius <= 0.0:
            raise ValueError("theta1 and a_radius must be positive")

    @property
    def radius_ratio(self) -> float:
        """Inner-to-outer contact ratio lam0/lam1."""
        return self.lam0 / self.lam1


@dataclass(frozen=True)
class CoefficientSetDisc:
    """Solved pole-removal coefficients for the disc model.

    A_plus[n] decays like lam**(2n+1) and B_minus[n] like lam**(2n).
    """

    A_plus: np.ndarray
    B_minus: np.ndarray
    truncation_N: int


@dataclass(frozen=True)
class CoefficientSetAnnulus:
    """Solved pole-removal coefficients for the annulus model."""

    A_plus: np.ndarray
    A_minus: np.ndarray
    B_plus: np.ndarray
    B_minus: np.ndarray
    truncation_N: int


# ----------------------------------------------------------------------
# the annulus correction term as a partial-fraction series
# ----------------------------------------------------------------------


def _pole_series(s: float, pole: float, step: float, coef: float, h: float, t2: float) -> float:
    """sum_n c_n/(s - pole - n step) with c_0 = coef, c_{n+1} = c_n (n+h)/(n+h+1/2) t2."""
    total = 0.0
    for n in range(_SERIES_MAX_TERMS):
        den = s - pole
        if -_POLE_TOL < den < _POLE_TOL:
            raise PoleError(f"omega-tilde pole at s = {pole:.0f}")
        term = coef / den
        total += term
        if abs(term) <= _SERIES_RTOL * abs(total):
            return total
        coef *= (n + h) / (n + h + 0.5) * t2
        pole += step
    raise ConvergenceError("omega-tilde series did not converge")


def _omega_tilde_series(side: str, s: float, ratio: float) -> float:
    """Partial-fraction series for the annulus correction term omega-tilde.

    Plus side: poles at s = 2n + 2, c_0 = Gamma(3/2) ratio**2.
    Minus side: poles at s = -(2n + 1), c_0 = Gamma(1/2) ratio.
    It shares no code with the closed forms of _omega_tilde_columns, so
    `verify` checks those against it.
    """
    t2 = ratio * ratio
    if side == "plus":
        coef = 0.5 * SQRT_PI * ratio * ratio
        return (2.0 / math.pi) * _pole_series(s, 2.0, 2.0, coef, 1.5, t2)
    if side == "minus":
        return _pole_series(s, -1.0, -2.0, SQRT_PI * ratio, 0.5, t2) / math.pi
    raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")


# ----------------------------------------------------------------------
# the truncated operator shared by the model and factor-column systems
# ----------------------------------------------------------------------

# Coefficient families in the per-n slot order of the interleaved unknowns,
# and the factor taking the models' families to the shared operator's,
# which has the B families halved.
_SLOTS = ("B_minus", "A_plus", "A_minus", "B_plus")
_MODEL_SCALE = np.array([0.5, 1.0, 1.0, 0.5])
# The operator is bipartite: B slots couple only to A slots and back.  With h
# slots of each kind (1 for the disc, 2 for the annulus) the B slots are
# _B_SLOTS[:h] and the A slots 1..h, B slot j coupling to A slot j + 1 in P.
_B_SLOTS = (0, 3)
# The rounding-level weight cut, eps/2**12.  Every coupling of row (slot, n),
# and with the forcings' matching weights the unknown itself, carries that
# row's weight, so an unknown below the cut changes each entry it enters by
# less than the cut relative to that entry: the solve leaves such unknowns
# out of its kernel products (_kept_counts), and the field sums stop at the
# same rows.
_MIN_WEIGHT = 2.0**-64


def _row_weights(lam: float, t: float | None, N: int) -> np.ndarray:
    """Signed weight, shape (slots, N), that every coupling of row (slot, n) carries.

    -lam**(2n) (B-), -lam**(2n+1) (A+), t**(2n+1) (A-) and t**(2n+2) (B+):
    in magnitude each falls monotonically with n.  Written only here; see _weighted.
    """
    power = np.arange(2 * N).reshape(N, 2).T  # rows 2n and 2n + 1
    weights = -(lam**power)
    if t is not None:
        weights = np.concatenate([weights, t ** (power + 1)])
    return weights


def _kept_counts(weights: np.ndarray) -> list[int]:
    """Per slot of _row_weights, the number of leading rows whose weight is at least _MIN_WEIGHT.

    The weights fall monotonically with n, so these rows are a prefix of each
    slot: the solve's kernel products read only that prefix, and fields._kept cuts
    both disc families at the B- count, while every coefficient set keeps its
    full length N.
    """
    return (np.abs(weights) >= _MIN_WEIGHT).sum(axis=1).tolist()


# Four entries: one case of a sweep reads two geometries, the disc's and the
# annulus' (with its t), through its solves, residuals and field sums, so the
# cache holds two cases and a pass over many geometries never reuses an entry
# from an earlier pass.
@lru_cache(maxsize=4)
def _geometry(lam: float, t: float | None, N: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """_row_weights(lam, t, N), read-only, and its _kept_counts.

    Every reader of one geometry's weights or cut (the forcing, the solve,
    _apply_operator and fields._kept) takes them from here, so each is built
    once per (lam, t, N) instead of once per reader.
    """
    weights = _row_weights(lam, t, N)
    weights.flags.writeable = False
    return weights, tuple(_kept_counts(weights))


def _weighted(lam: float, t: float | None, column: np.ndarray) -> np.ndarray:
    """A weight-free column, shape (N, slots[, columns]), times its rows' weight magnitudes.

    Every right-hand side of the shared operator is built this way, which is
    what lets _solve_interleaved cut the rows whose weight is below _MIN_WEIGHT.
    """
    weight = np.abs(_geometry(lam, t, len(column))[0]).T
    return weight.reshape(weight.shape + (1,) * (column.ndim - 2)) * column


# The kernels of the largest N asked for so far, [hankel, toeplitz]: their
# entries depend on n and m alone, so every smaller N reads slices of them.
_kernel_table: list[np.ndarray] = []


def _build_kernels(N: int) -> list[np.ndarray]:
    """hankel[n, m] = 1/(pi (n + m + 1/2)) and toeplitz[n, m] = 1/(pi (n - m + 1/2)), read-only, shape (N, N + 1)."""
    j = np.arange(N)[:, np.newaxis] + np.arange(N + 1)  # n + m
    hankel = 1.0 / (math.pi * (j + 0.5))
    toeplitz = 1.0 / (math.pi * (j[:, ::-1] - N + 0.5))  # n + (N - m) - N
    hankel.flags.writeable = False
    toeplitz.flags.writeable = False
    return [hankel, toeplitz]


def _kernels(N: int) -> tuple[np.ndarray, np.ndarray]:
    """The weight-free kernels of the shared operator, read-only, shape (N, N + 1).

    hankel[n, m] = 1/(pi (n + m + 1/2)) and toeplitz[n, m] = 1/(pi (n - m + 1/2)).
    Every coupling is a row weight times one of their (N, N) column windows
    (_coupling_kernels), so every solve and residual at one N reads these two.
    They are the leading (N, N + 1) slices of one table, built again only
    when a larger N is asked for (_kernel_table), so a verify run over
    several N builds it once and a slice has the bits a table of that N has.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N!r}")
    if not _kernel_table or len(_kernel_table[0]) < N:
        _kernel_table[:] = _build_kernels(N)
    hankel, toeplitz = _kernel_table
    return hankel[:N, : N + 1], toeplitz[:N, : N + 1]


# The stop of _hankel_factor, like _MIN_WEIGHT a rounding-level constant: a
# window is factored until its largest residual diagonal is at most this times
# its largest diagonal.  Below it the residual is roundoff, so a smaller stop
# only adds columns that fit the roundoff (31 against 28 at N = 1000 for
# 2**-56, 41 for a stop of 0, which ends when every residual rounds to <= 0).
_FACTOR_TOL = 2.0**-53


# Sixteen entries: one verify run reads eight (N, window) keys, and a
# solve_sweep pass four.  One entry is N x rank floats, 220 KB at N = 1000.
@lru_cache(maxsize=16)
def _hankel_factor(N: int, window: int) -> np.ndarray:
    """Pivoted-Cholesky factor L, read-only, of Hankel window `window` of _kernels(N).

    The window K[n, m] = 1/(pi (x_n + x_m)), x_n = n + (window + 1/2)/2, is
    the diagonal coupling kernel K[j][j] of _coupling_kernels with j = window:
    a positive-definite Cauchy matrix whose singular values fall
    geometrically, so L L^T matches it entrywise to _FACTOR_TOL times its
    largest entry K[0, 0] with L of shape (N, rank), rank 18-19 / 23 / 28 at
    N = 60 / 240 / 1000.  Each step takes the largest residual diagonal as
    pivot and computes that one kernel column on the fly (Harbrecht, Peters
    and Schneider, Appl. Numer. Math. 62 (2012) 428-440): O(N rank**2), and
    no N x N array.  The loop stops at the tolerance or after N columns.
    Keyed by N, not cut from a larger factor, whose pivots differ, so a
    solve's bits do not depend on what the process solved before.
    """
    x = np.arange(N) + 0.5 * (window + 0.5)
    residual = 1.0 / (2.0 * math.pi * x)
    stop = _FACTOR_TOL * residual[0]
    columns = np.empty((min(N, 32), N))  # L^T, grown by doubling
    rank = 0
    while rank < N:
        p = int(np.argmax(residual))
        if residual[p] <= stop:
            break
        if rank == len(columns):
            columns = np.concatenate([columns, np.empty((min(rank, N - rank), N))])
        column = 1.0 / (math.pi * (x + x[p])) - columns[:rank].T @ columns[:rank, p]
        column /= math.sqrt(residual[p])
        columns[rank] = column
        residual -= column * column
        residual[p] = 0.0
        rank += 1
    factor = columns[:rank].T.copy()
    factor.flags.writeable = False
    return factor


def _coupling_kernels(N: int, h: int) -> list[list[np.ndarray]]:
    """The coupling kernels K[i][j], (N, N) column windows of _kernels(N).

    With the h B slots (B-, B+) and h A slots (A+, A-) grouped, the operator
    reads [[I, P], [Q, I]]: Q_ij = diag(w_Ai) K[i][j] couples A slot i to
    B slot j, and the block-diagonal P_j = diag(w_Bj) K[j][j] couples B slot j
    to A slot j, the w being _row_weights.  K[i][j] is
    1/(pi (n + m + j + 1/2)) if i == j, else 1/(pi (n - m - j + 1/2)).
    """
    hankel, toeplitz = _kernels(N)
    return [[(hankel if i == j else toeplitz)[:, j : j + N] for j in range(h)] for i in range(h)]


def _apply_operator(lam: float, t: float | None, x: np.ndarray) -> np.ndarray:
    """The shared operator applied to interleaved unknowns x of shape (N, slots).

    x_B + P x_A and x_A + Q x_B, each a kernel product scaled by its rows'
    weights, so no weighted N x N block is built.
    """
    N, k = x.shape
    h = k // 2
    K = _coupling_kernels(N, h)
    w = _geometry(lam, t, N)[0]
    x_b = [x[:, c] for c in _B_SLOTS[:h]]
    out = x.copy()
    for i, b in enumerate(_B_SLOTS[:h]):
        out[:, b] += w[b] * (K[i][i] @ x[:, i + 1])
        out[:, i + 1] += w[i + 1] * _q_sum(K[i], x_b)
    return out


def _q_sum(kernels: list[np.ndarray], y) -> np.ndarray:
    """sum_j kernels[j] @ y[j], added in j order: one A slot's row of Q before its weights."""
    total = kernels[0] @ y[0]
    for kernel, part in zip(kernels[1:], y[1:]):
        total += kernel @ part
    return total


def _solve_dense(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        out = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"truncated system is singular (cond ~ {np.linalg.cond(matrix):.3e})"
        ) from exc
    if not np.isfinite(out).all():
        raise SingularSystemError(
            f"solution overflowed (cond ~ {np.linalg.cond(matrix):.3e})"
        )
    return out


def _interleave(coeffs, slots: int) -> np.ndarray:
    """Stack the first `slots` coefficient families of coeffs as (N, slots)."""
    return np.stack([getattr(coeffs, name) for name in _SLOTS[:slots]], axis=1)


def _families(x: np.ndarray) -> dict:
    """Coefficient families, by field name, of an interleaved x of shape (N, slots)."""
    return {name: x[:, i] for i, name in enumerate(_SLOTS[: x.shape[1]])}


def _solve_interleaved(lam: float, t: float | None, rhs: np.ndarray) -> np.ndarray:
    """Solve the shared operator for rhs of shape (N, slots[, columns]).

    The operator reads [[I, P], [Q, I]], so the A unknowns solve
    (I - Q P) a = c with c = r_A - Q r_B, and b = r_B - P a, each coupling
    applied as its rows' weights times a per-N kernel.  P_j's kernel is
    Hankel window j, L_j L_j^T to rounding (_hankel_factor), so Q P = X Y^T
    with Y = blockdiag(L_j) and X of R columns, R the sum of the h factor
    ranks (_low_rank_rows).  By Woodbury a = c - X z, where the capacitance
    system (Y^T X - I) z = Y^T c is the one LU: R x R, 18 / 23 / 28 for the
    disc and 37 / 46 / 56 for the annulus at N = 60 / 240 / 1000, in place
    of an (hN) x (hN) Schur complement.  The work is O(N**2 R) for the
    annulus, whose Toeplitz blocks stay dense, and O(N R**2) for the disc.
    c, the tail substitution and b stay on the exact kernels, and so does
    _apply_operator, so the residual checks the factored solve independently.

    Only A unknowns whose row weight is at least _MIN_WEIGHT = 2**-64 enter
    c, X and Y: the first n_a[i] of A slot i, with B slot j read over its
    first n_b[j] (_kept_counts, read through _geometry; N where nothing is
    cut).  Every right-hand side carries its row's weight, so a dropped
    unknown is its weight times an O(1) number, and each term it would add
    is below 2**-64 relative to the entry it would change: the kept unknowns
    are those of the full truncated solve to roundoff.  The A tail T follows
    by one substitution,
    a_T = (r_A - Q (r_B - P a))_T, empty where nothing is cut, and
    b = r_B - P a over every row, so each dropped row still satisfies its own
    equation to roundoff relative to its weight.
    """
    N, k = rhs.shape[:2]
    h = k // 2
    K = _coupling_kernels(N, h)
    weights, kept = _geometry(lam, t, N)
    w = weights[:, :, np.newaxis]
    x = np.zeros(rhs.shape)  # the A tail stays 0 until its substitution
    r = rhs.reshape(N, k, -1).transpose(1, 0, 2)
    x_slots = x.reshape(N, k, -1).transpose(1, 0, 2)
    # every slot as a view: b is written into x in place
    r_a, a, w_a = r[1 : h + 1], x_slots[1 : h + 1], w[1 : h + 1]
    r_b, b, w_b = ([array[j] for j in _B_SLOTS[:h]] for array in (r, x_slots, w))
    n_a, n_b = kept[1 : h + 1], [kept[j] for j in _B_SLOTS[:h]]

    c = [
        r_a[i, :rows] - w_a[i, :rows] * _q_sum([kernel[:rows] for kernel in K[i]], r_b)
        for i, rows in enumerate(n_a)
    ]
    factors = [_hankel_factor(N, j) for j in range(h)]
    x_rows = _low_rank_rows(K, factors, w_a, w_b, n_a, n_b)
    y = [factor[:rows] for factor, rows in zip(factors, n_a)]
    # Y^T X - I, one row block of r_i rows per A slot, with no zero block of Y
    capacitance = np.concatenate([y_i.T @ x_i for y_i, x_i in zip(y, x_rows)])
    capacitance.flat[:: len(capacitance) + 1] -= 1.0
    z = _solve_dense(capacitance, np.concatenate([y_i.T @ c_i for y_i, c_i in zip(y, c)]))
    for i, rows in enumerate(n_a):
        np.subtract(c[i], x_rows[i] @ z, out=a[i, :rows])
    # P a over the kept prefix of each A slot, whose tail is still 0; where
    # nothing of slot j is cut that is already the final b_j
    for j, rows in enumerate(n_a):
        np.subtract(r_b[j], w_b[j] * (K[j][j][:, :rows] @ a[j, :rows]), out=b[j])
    cut = [i for i, rows in enumerate(n_a) if rows < N]
    for i in cut:
        rows = n_a[i]
        q = _q_sum([kernel[rows:] for kernel in K[i]], b)
        np.subtract(r_a[i, rows:], w_a[i, rows:] * q, out=a[i, rows:])
    for j in cut:
        np.subtract(r_b[j], w_b[j] * (K[j][j] @ a[j]), out=b[j])
    return x


def _low_rank_rows(K, factors, w_a, w_b, n_a, n_b) -> list[np.ndarray]:
    """X of Q P = X Y^T over the kept rows: one block (n_a[i], R) per A slot i.

    Its column block j is diag(w_Ai) K[i][j] diag(w_Bj) L_j, the B slot read
    over its first n_b[j] rows, so times L_j^T it is Q_ij P_j with P_j's
    kernel replaced by L_j L_j^T.  Q's diagonal kernel K[j][j] is window j
    too, so that block is L_j (L_j^T diag(w_Bj) L_j), O(N r**2); each of the
    annulus' two Toeplitz blocks is one dense product, O(n_a[i] n_b[j] r_j).
    Every kept weight is at least 2**-64, so the products stay normal.
    """
    weighted = [w_j[:rows] * factor[:rows] for w_j, factor, rows in zip(w_b, factors, n_b)]
    rows_of_x = []
    for i, rows in enumerate(n_a):
        blocks = [
            factors[i][:rows] @ (factors[i][: n_b[i]].T @ weighted[i])
            if i == j
            else K[i][j][:rows, : n_b[j]] @ weighted[j]
            for j in range(len(factors))
        ]
        rows_of_x.append(w_a[i, :rows] * np.concatenate(blocks, axis=1))
    return rows_of_x


def _solve_model(lam: float, t: float | None, forcing: np.ndarray) -> np.ndarray:
    """Model unknowns, shape (N, slots), for the forcing of the original equations."""
    scale = _MODEL_SCALE[: forcing.shape[1]]
    return _solve_interleaved(lam, t, forcing * scale) / scale


def _residual(
    lam: float, t: float | None, x: np.ndarray, rhs: np.ndarray, scale=1.0
) -> float:
    """Max defect |M x - rhs| of equations whose unknowns enter the operator times scale."""
    defect = _apply_operator(lam, t, x * scale) - rhs * scale
    return float(np.abs(defect / scale).max())


def _power_table(n_rows: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """The disc's lambda-power tables a[n, k], b[n, k] at delta_star = 1.

    A+_n = delta_star lam**(2n+1) sum_k a[n, k] lam**k and
    B-_n = delta_star lam**(2n) sum_k b[n, k] lam**k.  Matching powers of
    lambda, with h = b/2 the halved B family, gives

        h[n, k] = (1/pi) sum_{m <= (k-1)//2} a[m, k-2m-1] / (n+m+1/2)
        a[n, k] = -1/(2 pi (n+1/2)) [k = 0] + (1/pi) sum_{m <= k//2} h[m, k-2m] / (n+m+1/2)

    filled order by order, the h column first, each sum as one matvec.
    Order K reads rows m <= K // 2.  With fewer rows than that each sum is
    clipped to m < n_rows, which makes the tables exactly those of the
    system truncated to n_rows unknowns per family (_sif_coefficients); with
    n_rows >= K // 2 + 1 nothing is clipped and the tables are the infinite
    system's rows n < n_rows, to order K.
    """
    if n_rows < 1 or K < 1:
        raise ValueError("n_rows and K must be >= 1")
    a = np.zeros((n_rows, K))
    h = np.zeros((n_rows, K))
    a[:, 0] = -1.0 / (2.0 * math.pi * (np.arange(n_rows) + 0.5))
    m = np.arange(min(K // 2 + 1, n_rows))
    inv = 1.0 / (math.pi * (m[:, None] + np.arange(n_rows) + 0.5))
    for k in range(K):
        mb = m[: (k - 1) // 2 + 1]
        h[:, k] += a[mb, k - 2 * mb - 1] @ inv[: mb.size]
        ma = m[: k // 2 + 1]
        a[:, k] += h[ma, k - 2 * ma] @ inv[: ma.size]
    return a, 2.0 * h


# ----------------------------------------------------------------------
# disc model: reduction and recurrence solvers
# ----------------------------------------------------------------------


# Four entries, like _geometry: a sweep case reads one problem of each model,
# so a pass over many problems never reuses an entry from an earlier pass.
@lru_cache(maxsize=4)
def _disc_forcing(p: DiscProblem, N: int) -> np.ndarray:
    """Right-hand side, per n as (B-, A+), of the disc equations; read-only.

    The A+ row is -delta_star lam**(2n+1) / (pi (2n+1)), lam**(2n+1)/pi
    times the disc forcing omega_1^-(s) = -delta_star/s at s = 2n+1.
    """
    column = np.zeros((N, 2))
    column[:, 1] = -p.delta_star / (math.pi * (2.0 * np.arange(N) + 1.0))
    forcing = _weighted(p.lam, None, column)
    forcing.flags.writeable = False
    return forcing


def solve_disc_reduction(p: DiscProblem, N: int = DEFAULT_TRUNCATION) -> CoefficientSetDisc:
    """Solve the truncated 2N x 2N disc system through one capacitance LU for A+ (_solve_interleaved)."""
    x = _solve_model(p.lam, None, _disc_forcing(p, N))
    return CoefficientSetDisc(**_families(x), truncation_N=N)


# Two entries: verification, and a sweep over two truncation orders, each
# solve the disc recurrence at two argument sets.  At N <= 1000 and verify's
# K = 120 one entry is at most about 1.9 MB.  The SIF series keeps its own
# cache (_sif_coefficients, K + 1 floats per entry).
@lru_cache(maxsize=2)
def _disc_table(n_rows: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """_power_table(n_rows, K), read-only.

    The tables depend on neither lambda nor the loading, so every disc
    recurrence solve with these row counts and order reuses them.
    """
    a, b = _power_table(n_rows, K)
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


# Its own cache, apart from _disc_table's two entries: a sweep asks for one
# (N, K) pair, and each entry is K + 1 <= 1025 floats, so 8 entries hold at
# most 66 KB.  Only fields' (3, 5) head is built before the first sweep.
@lru_cache(maxsize=8)
def _sif_coefficients(N: int, K: int) -> np.ndarray:
    """C_q, q <= K, with sum_n A+_n = delta_star sum_q C_q lam**q at truncation N; read-only.

    C_q = sum_n a[n, q - 2n - 1] over the disc's _power_table with
    min(N, K // 2 + 1) rows: the rows past K // 2 carry no power up to K, and
    fewer rows clip the recurrence to the N-truncated system that
    solve_disc_reduction solves.  The vector depends on neither lambda nor
    the loading.
    """
    rows = min(N, K // 2 + 1)
    a, _ = _power_table(rows, K)
    coefficients = np.zeros(K + 1)
    for n in range(rows):
        coefficients[2 * n + 1 :] += a[n, : K - 2 * n]
    coefficients.flags.writeable = False
    return coefficients


def solve_disc_recurrence(
    p: DiscProblem, N: int = DEFAULT_TRUNCATION, K: int = DEFAULT_ORDER
) -> tuple[tuple[np.ndarray, np.ndarray], CoefficientSetDisc]:
    """Solve the disc system through the lambda-power recurrences.

    Returns the read-only unit-loading tables (a, b) of _disc_table and
    the coefficients, the tables' power sums scaled by the loading.  The
    tables are truncated at order K, so the coefficients carry an
    O(lam**K) tail error; rows beyond those requested are filled as far
    as the recurrences need them.
    """
    if N < 1 or K < 1:
        raise ValueError("N and K must be >= 1")
    a, b = table = _disc_table(max(N, K // 2 + 1), K)
    powers = p.lam ** np.arange(K)
    sums = p.delta_star * np.stack([b[:N] @ powers, a[:N] @ powers], axis=1)
    x = _weighted(p.lam, None, sums)
    return table, CoefficientSetDisc(A_plus=x[:, 1], B_minus=x[:, 0], truncation_N=N)


# ----------------------------------------------------------------------
# annulus model
# ----------------------------------------------------------------------


def _omega_tilde_columns(ratio: float, N: int) -> np.ndarray:
    """omega-tilde at the annulus forcing points, shape (N, 3), from one f_m pass.

    Columns: the plus side at s = 2k+1 and at s = -(2k+1), and the minus side
    at s = 2k+2.  The closed forms are, with x = ratio**2,
    plus: 2 (2F1(-s/2, 1/2; 1 - s/2; x) - 1) / (sqrt(pi) s) and
    minus: ratio 2F1((s+1)/2, 1/2; (s+3)/2; x) / (sqrt(pi) (s+1)),
    and at these points their 2F1 values are f_m(x) at m = -k-1, k and k+1,
    so one downward recurrence in m, continued below m = 0, serves all three.
    """
    x = ratio * ratio
    f = _f_family(N + 1, np.array([x]))[:, 0]
    s = 2.0 * np.arange(N) + 1.0
    return np.stack(
        [
            2.0 * (_f_family_below(N, np.array([x]))[:, 0] - 1.0) / (SQRT_PI * s),
            2.0 * (f[:N] - 1.0) / (SQRT_PI * -s),
            ratio * f[1:] / (SQRT_PI * (s + 2.0)),
        ],
        axis=1,
    )


def _annulus_omegas(p: AnnulusProblem, N: int) -> np.ndarray:
    """The annulus forcing functions at their sample points, shape (N, 3).

    Columns: omega_1^- at s = 2k+1, where 1/L+ vanishes; omega_1^+ at
    s = -(2k+1) and omega_2^- at s = 2k+2, whose kernel factors are both
    Gamma(k+3/2)/Gamma(k+1).  In units of delta/(a theta1), with t = lam0/lam1:
        omega_1^+(s) = (2/s) (1/L+(s) - 1/sqrt(pi)) - wt+(s)
        omega_1^-(s) = (2/s) (t**s / L+(s) - 1/sqrt(pi)) - wt+(s)
        omega_2^-(s) = L-(s)/s - wt-(s)
    where wt is omega-tilde (_omega_tilde_columns).  At lam0 = 0 wt vanishes
    and omega_1^- is the disc forcing.
    """
    s = 2.0 * np.arange(N) + 1.0
    g = _gamma_ratios(N)
    wt = _omega_tilde_columns(p.radius_ratio, N)
    scale = 0.5 * p.delta_star * SQRT_PI  # delta / (a theta1)
    return scale * np.stack(
        [
            -2.0 / (s * SQRT_PI) - wt[:, 0],
            (2.0 / -s) * (g - 1.0 / SQRT_PI) - wt[:, 1],
            g / (s + 1.0) - wt[:, 2],
        ],
        axis=1,
    )


@lru_cache(maxsize=4)  # sized as _disc_forcing
def _annulus_forcings(p: AnnulusProblem, N: int) -> np.ndarray:
    """Right-hand side, per n as (B-, A+, A-, B+), of the annulus equations; read-only.

    Rows A+, A- and B+ are omega_1^-, omega_1^+ and 4 omega_2^- over pi.
    """
    column = np.zeros((N, 4))
    column[:, 1:] = _annulus_omegas(p, N) * [1.0, 1.0, 4.0] / math.pi
    forcing = _weighted(p.lam1, p.radius_ratio, column)
    forcing.flags.writeable = False
    return forcing


def solve_annulus_reduction(
    p: AnnulusProblem, N: int = DEFAULT_TRUNCATION
) -> CoefficientSetAnnulus:
    """Solve the truncated 4N x 4N annulus system through one capacitance LU for A+ and A-.

    At lam0 = 0 the A- and B+ rows reduce to the identity and the
    remaining block coincides with the disc system.
    """
    x = _solve_model(p.lam1, p.radius_ratio, _annulus_forcings(p, N))
    return CoefficientSetAnnulus(**_families(x), truncation_N=N)


def system_residual(problem, coefficients) -> float:
    """Max defect of the truncated (unhalved) model equations at either model's coefficients.

    The forcing comes from the model's builder at (problem, N), whose cache
    serves the forcing a solve of an equal problem at that N used, so a fresh
    solve's residual builds none and a reloaded or replaced copy gets the same bits.
    """
    if isinstance(coefficients, CoefficientSetDisc):
        lam, t, forcings = problem.lam, None, _disc_forcing
    elif isinstance(coefficients, CoefficientSetAnnulus):
        lam, t, forcings = problem.lam1, problem.radius_ratio, _annulus_forcings
    else:
        raise TypeError(f"unsupported coefficient set {type(coefficients)!r}")
    forcing = forcings(problem, coefficients.truncation_N)
    scale = _MODEL_SCALE[: forcing.shape[1]]
    return _residual(lam, t, _interleave(coefficients, len(scale)), forcing, scale)
