"""Pole-removal coefficient systems for the two inclusion geometries.

A flat rigid disc (radius b) or flat rigid annulus (radii c < b) wedged
into a penny-shaped crack of radius a leads, after Mellin transformation,
to infinite linear systems for the pole-removal coefficients A and B.
This module assembles and solves those systems, either by truncation to a
dense block ("reduction method", geometric convergence in the truncation
order) or, for the disc, by exact recurrence relations in powers of
lambda = b/a.

The loading enters only through the indentation parameter
delta_star = 2*delta / (a * theta1 * sqrt(pi)), so every coefficient is
linear in delta_star.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import (
    ConvergenceError,
    PoleError,
    SQRT_PI,
    _f_family,
    _f_family_below,
    gauss_2f1,
    l_minus,
    l_plus_reciprocal,
)

__all__ = [
    "SingularSystemError",
    "DiscProblem",
    "AnnulusProblem",
    "CoefficientSetDisc",
    "CoefficientSetAnnulus",
    "RecurrenceTable",
    "omega1_disc",
    "omega_tilde",
    "omega_annulus_flat",
    "recurrence_table",
    "system_matrix",
    "solve_disc_reduction",
    "solve_disc_recurrence",
    "solve_annulus_reduction",
    "system_residual",
    "disc_system_residual",
    "annulus_system_residual",
]

DEFAULT_TRUNCATION = 60
DEFAULT_ORDER = 120

_SERIES_RTOL = 1e-16
_SERIES_MAX_TERMS = 100_000
_POLE_TOL = 1e-9

# omega-tilde branch crossover: series below, hypergeometric above (at small |s|).
_OMEGA_SWITCH_T2 = 0.75


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


@dataclass(frozen=True)
class RecurrenceTable:
    """Triangular lambda-power coefficients a[n, k], b[n, k] for the disc.

    Row seeds: a[n, 0] = -delta_star/(2 pi (n + 1/2)) and b[n, 0] = 0.
    """

    a: np.ndarray
    b: np.ndarray
    order_K: int


# ----------------------------------------------------------------------
# right-hand-side functions
# ----------------------------------------------------------------------


def omega1_disc(side: str, s: float, delta_star: float = 1.0) -> float:
    """Forcing function of the disc system for the flat inclusion.

    The minus branch is -delta_star/s; the plus branch carries the
    kernel-factor correction, whose growth softens the tail to
    O(|s|**-1/2) along the negative axis.
    """
    if s == 0.0:
        raise PoleError("omega1 is singular at s = 0")
    if side == "minus":
        return -delta_star / s
    if side == "plus":
        inv = l_plus_reciprocal(complex(s)).real
        return delta_star * (SQRT_PI * inv - 1.0) / s
    raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")


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
    """Partial-fraction series for the annulus correction term.

    Plus side: poles at s = 2n + 2, c_0 = Gamma(3/2) ratio**2.
    Minus side: poles at s = -(2n + 1), c_0 = Gamma(1/2) ratio.
    """
    t2 = ratio * ratio
    if side == "plus":
        coef = 0.5 * SQRT_PI * ratio * ratio
        return (2.0 / math.pi) * _pole_series(s, 2.0, 2.0, coef, 1.5, t2)
    if side == "minus":
        return _pole_series(s, -1.0, -2.0, SQRT_PI * ratio, 0.5, t2) / math.pi
    raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")


def _omega_tilde_hypergeometric(side: str, s: float, ratio: float) -> float:
    """Closed hypergeometric form of the annulus correction term."""
    t2 = ratio * ratio
    if side == "plus":
        if s == 0.0:
            raise PoleError("omega-tilde+ closed form is singular at s = 0")
        value = gauss_2f1(-s / 2.0, 0.5, 1.0 - s / 2.0, t2)
        return 2.0 * (value - 1.0) / (SQRT_PI * s)
    if side == "minus":
        if s == -1.0:
            raise PoleError("omega-tilde- closed form is singular at s = -1")
        value = gauss_2f1((s + 1.0) / 2.0, 0.5, (s + 3.0) / 2.0, t2)
        return ratio * value / (SQRT_PI * (s + 1.0))
    raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")


def omega_tilde(side: str, s: float, ratio: float, method: str = "auto") -> float:
    """Annulus correction term, by series or equivalent hypergeometric form.

    ratio = lam0/lam1.  The automatic branch takes the hypergeometric form
    only where ratio**2 > 3/4 and |s| (1 - ratio**2) <= 1, the rule by which
    specfun._f_family picks its seed: there the series converges slowly,
    while at larger |s| the 1-x transformation inside gauss_2f1 loses all
    accuracy and the series stays at roundoff.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"ratio must lie in [0, 1), got {ratio!r}")
    if ratio == 0.0:
        return 0.0
    if method == "series":
        return _omega_tilde_series(side, s, ratio)
    if method == "hypergeometric":
        return _omega_tilde_hypergeometric(side, s, ratio)
    if method == "auto":
        t2 = ratio * ratio
        if t2 > _OMEGA_SWITCH_T2 and abs(s) * (1.0 - t2) <= 1.0:
            return _omega_tilde_hypergeometric(side, s, ratio)
        return _omega_tilde_series(side, s, ratio)
    raise ValueError(f"unknown method {method!r}")


def omega_annulus_flat(
    which: int,
    side: str,
    s: float,
    problem: AnnulusProblem,
    method: str = "auto",
) -> float:
    """Forcing functions of the annulus system for a flat inclusion.

    which selects the pair (1 for the outer-edge functions, 2 for the
    inner ones); side picks the half-plane limit.  At lam0 = 0 the
    residual terms vanish and omega_1^- reduces to the disc forcing.
    The solvers evaluate the forcing points as arrays (_annulus_omegas);
    this scalar form is the reference those are tested against.
    """
    if s == 0.0:
        raise PoleError("omega is singular at s = 0")
    t = problem.radius_ratio
    scale = 0.5 * problem.delta_star * SQRT_PI  # delta / (a theta1)
    if which == 1:
        wt = omega_tilde("plus", s, t, method)
        if side == "plus":
            inv = l_plus_reciprocal(complex(s)).real
            return scale * ((2.0 / s) * (inv - 1.0 / SQRT_PI) - wt)
        if side == "minus":
            inv = l_plus_reciprocal(complex(s)).real
            pow_ts = 0.0 if t == 0.0 else t**s
            return scale * (
                -2.0 / (s * SQRT_PI) + (2.0 / s) * inv * pow_ts - wt
            )
    elif which == 2:
        wt = omega_tilde("minus", s, t, method)
        lm = l_minus(complex(s)).real
        if side == "minus":
            return scale * (lm / s - wt)
        if side == "plus":
            if t == 0.0:
                raise ValueError("omega_2^+ is unbounded in the disc limit")
            return scale * (t ** (-s) * lm / s - wt)
    else:
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")


# ----------------------------------------------------------------------
# the truncated operator shared by the model and factor-column systems
# ----------------------------------------------------------------------

# Coefficient families in the per-n slot order of the interleaved unknowns,
# and the factor taking the models' families to the shared operator's,
# which has the B families halved.
_SLOTS = ("B_minus", "A_plus", "A_minus", "B_plus")
_MODEL_SCALE = np.array([0.5, 1.0, 1.0, 0.5])
# The operator is bipartite: B slots couple only to A slots and back.
_B_SLOTS = (0, 3)
_A_SLOTS = (1, 2)
# Unknowns whose row weight is below this stay out of the dense Schur solve:
# their rows, and with the forcings' matching weights the unknowns themselves,
# would otherwise carry subnormal numbers into the gemm and the LU.
_MIN_WEIGHT = 2.0**-1000


def _row_weights(lam: float, t: float | None, N: int) -> np.ndarray:
    """Signed weight, shape (slots, N), that every coupling of row (slot, n) carries.

    -lam**(2n) (B-), -lam**(2n+1) (A+), t**(2n+1) (A-) and t**(2n+2) (B+):
    in magnitude each falls monotonically with n.
    """
    n = np.arange(N)
    weights = [-(lam ** (2 * n)), -(lam ** (2 * n + 1))]
    if t is not None:
        weights += [t ** (2 * n + 1), t ** (2 * n + 2)]
    return np.array(weights)


def _couplings(
    lam: float, t: float | None, N: int
) -> list[tuple[int, int, np.ndarray]]:
    """(row slot, column slot, N x N block) of every off-diagonal coupling.

    Each block is the row weight over pi (n +- m + shift), n being the row
    index, and each joins a B slot to an A slot: the diagonal blocks are the
    identity.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N!r}")
    n, m = np.ogrid[:N, :N]
    shifts = [(0, 1, n + m + 0.5), (1, 0, n + m + 0.5)]
    if t is not None:
        shifts += [
            (1, 3, n - m - 0.5),
            (2, 3, n + m + 1.5),
            (2, 0, n - m + 0.5),
            (3, 2, n + m + 1.5),
        ]
    weight = _row_weights(lam, t, N)[:, :, np.newaxis]
    return [(row, col, weight[row] / (math.pi * den)) for row, col, den in shifts]


def system_matrix(lam: float, t: float | None, N: int) -> np.ndarray:
    """Truncated operator of the disc (t is None) or annulus (inner ratio t) systems.

    Unknowns interleave per index n as (B-, A+) in the 2N x 2N disc block
    and (B-, A+, A-, B+) in the 4N x 4N annulus block, lam being the outer
    ratio.  The B unknowns enter halved, so every coupling is
    lam**p / (pi (n +- m + shift)) and the factor columns share the operator.
    """
    couplings = _couplings(lam, t, N)
    k = 2 if t is None else 4
    matrix = np.eye(k * N)
    for row, col, block in couplings:
        matrix[row::k, col::k] += block
    return matrix


def _solve_dense(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        out = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"truncated system is singular (cond ~ {np.linalg.cond(matrix):.3e})"
        ) from exc
    if not np.all(np.isfinite(out)):
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


def _prefix_blocks(M4: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The leading rows[i] rows and cols[j] columns of each slot of M4 (h, N, h, N).

    The result is one matrix in slot-major order, filled block by block into
    one buffer: np.block's intermediate concatenations raised the
    solve_sweep peak RSS by ~1.2 MiB.
    """
    out = np.empty((rows.sum(), cols.sum()))
    row_starts, col_starts = np.cumsum(rows) - rows, np.cumsum(cols) - cols
    for i, (r0, nr) in enumerate(zip(row_starts, rows)):
        for j, (c0, nc) in enumerate(zip(col_starts, cols)):
            out[r0 : r0 + nr, c0 : c0 + nc] = M4[i, :nr, j, :nc]
    return out


def _schur(Q: np.ndarray, P: np.ndarray) -> np.ndarray:
    """I - Q P, formed in place in the product: no identity or difference matrix."""
    schur = Q @ P
    np.negative(schur, out=schur)
    schur.flat[:: len(schur) + 1] += 1.0
    return schur


def _solve_interleaved(lam: float, t: float | None, rhs: np.ndarray) -> np.ndarray:
    """Solve the shared operator for rhs of shape (N, slots[, columns]).

    The operator is bipartite: with the B unknowns b and the A unknowns a
    grouped, it reads [[I, P], [Q, I]].  So a solves the Schur complement
    (I - Q P) a = r_A - Q r_B, of half the operator's size, and b = r_B - P a.

    The dense solve takes only the unknowns whose row weight is at least
    _MIN_WEIGHT, a prefix in n of every slot.  Every right-hand side carries
    its row's weight, so the terms this drops are below _MIN_WEIGHT relative
    to the entries they would change.  The remaining A unknowns follow by one
    substitution, a_T = (r_A - Q (r_B - P a))_T.
    """
    N, k = rhs.shape[:2]
    h = k // 2
    b_slots, a_slots = list(_B_SLOTS[:h]), list(_A_SLOTS[:h])
    P4 = np.zeros((h, N, h, N))
    Q4 = np.zeros((h, N, h, N))
    for row, col, block in _couplings(lam, t, N):
        if row in b_slots:
            P4[b_slots.index(row), :, a_slots.index(col)] = block
        else:
            Q4[a_slots.index(row), :, b_slots.index(col)] = block
    P = P4.reshape(h * N, h * N)
    Q = Q4.reshape(h * N, h * N)
    r = rhs.reshape(N, k, -1).transpose(1, 0, 2)
    r_a = r[a_slots].reshape(h * N, -1)
    r_b = r[b_slots].reshape(h * N, -1)
    weight = np.abs(_row_weights(lam, t, N))
    if weight[:, -1].min() >= _MIN_WEIGHT:  # the weights fall with n
        a = _solve_dense(_schur(Q, P), r_a - Q @ r_b)
    else:
        kept = weight >= _MIN_WEIGHT
        n_a, n_b = kept[a_slots].sum(axis=1), kept[b_slots].sum(axis=1)
        Q_kept = _prefix_blocks(Q4, n_a, n_b)
        P_kept = _prefix_blocks(P4, n_b, n_a)
        kept_a, kept_b = kept[a_slots].ravel(), kept[b_slots].ravel()
        a = np.zeros_like(r_a)
        rhs_kept = r_a[kept_a] - Q_kept @ r_b[kept_b]
        a[kept_a] = _solve_dense(_schur(Q_kept, P_kept), rhs_kept)
        tail = ~kept_a
        a[tail] = r_a[tail] - Q[tail] @ (r_b - P @ a)
    x = np.empty_like(r)
    x[a_slots] = a.reshape(h, N, -1)
    x[b_slots] = (r_b - P @ a).reshape(h, N, -1)
    return x.transpose(1, 0, 2).reshape(rhs.shape)


def _solve_model(lam: float, t: float | None, forcing: np.ndarray) -> np.ndarray:
    """Model unknowns, shape (N, slots), for the forcing of the original equations."""
    scale = _MODEL_SCALE[: forcing.shape[1]]
    return _solve_interleaved(lam, t, forcing * scale) / scale


def _model_residual(
    lam: float, t: float | None, unknowns: np.ndarray, forcing: np.ndarray
) -> float:
    """Max defect of the original (unhalved) model equations."""
    scale = _MODEL_SCALE[: forcing.shape[1]]
    matrix = system_matrix(lam, t, len(forcing))
    defect = matrix @ (unknowns * scale).ravel() - (forcing * scale).ravel()
    return float(np.abs(defect.reshape(forcing.shape) / scale).max())


def _power_table(
    seed_a, seed_b, n_rows: int, order_K: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lambda-power tables a[n, k], b[n, k] of the shared operator.

    Matching powers of lambda, with b the halved B family, gives

        b[n, k] = seed_b [k = 0] + (1/pi) sum_{m <= (k-1)//2} a[m, k-2m-1] / (n+m+1/2)
        a[n, k] = seed_a [k = 0] + (1/pi) sum_{m <= k//2}     b[m, k-2m]   / (n+m+1/2)

    filled order by order, the b column first, each sum as one matvec.
    """
    if n_rows < 1 or order_K < 1:
        raise ValueError("n_rows and order_K must be >= 1")
    a = np.zeros((n_rows, order_K))
    b = np.zeros((n_rows, order_K))
    a[:, 0] = seed_a
    b[:, 0] = seed_b
    m = np.arange(order_K // 2 + 1)
    inv = 1.0 / (math.pi * (m[:, None] + np.arange(n_rows) + 0.5))
    for k in range(order_K):
        mb = m[: (k - 1) // 2 + 1]
        b[:, k] += a[mb, k - 2 * mb - 1] @ inv[: mb.size]
        ma = m[: k // 2 + 1]
        a[:, k] += b[ma, k - 2 * ma] @ inv[: ma.size]
    return a, b


def _power_sums(
    lam: float, a: np.ndarray, b: np.ndarray, N: int
) -> tuple[np.ndarray, np.ndarray]:
    """lam**(2n+1) sum_k a[n, k] lam**k and lam**(2n) sum_k b[n, k] lam**k, n < N."""
    powers = lam ** np.arange(a.shape[1])
    n = np.arange(N)
    return lam ** (2 * n + 1) * (a[:N] @ powers), lam ** (2 * n) * (b[:N] @ powers)


# ----------------------------------------------------------------------
# disc model: reduction and recurrence solvers
# ----------------------------------------------------------------------


def _disc_forcing(p: DiscProblem, N: int) -> np.ndarray:
    """Right-hand side, per n as (B-, A+), of the disc equations.

    The A+ row is -delta_star lam**(2n+1) / (pi (2n+1)), lam**(2n+1)/pi
    times omega1_disc("minus", 2n+1).
    """
    n = np.arange(N)
    forcing = np.zeros((N, 2))
    forcing[:, 1] = p.lam ** (2 * n + 1) / math.pi * (-p.delta_star / (2.0 * n + 1.0))
    return forcing


def solve_disc_reduction(p: DiscProblem, N: int = DEFAULT_TRUNCATION) -> CoefficientSetDisc:
    """Solve the truncated 2N x 2N disc system by a dense solve for A+ alone."""
    x = _solve_model(p.lam, None, _disc_forcing(p, N))
    return CoefficientSetDisc(**_families(x), truncation_N=N)


def recurrence_table(
    delta_star: float, n_rows: int, order_K: int = DEFAULT_ORDER
) -> RecurrenceTable:
    """Fill the triangular lambda-power table for the disc coefficients.

    A+_n = lam**(2n+1) sum_k a[n, k] lam**k and
    B-_n = lam**(2n) sum_k b[n, k] lam**k, where a and b/2 follow the
    shared recurrence of the halved system seeded by
    a[n, 0] = -delta_star/(2 pi (n+1/2)) and b[n, 0] = 0.
    """
    half = np.arange(n_rows) + 0.5
    a, b_half = _power_table(
        -delta_star / (2.0 * math.pi * half), 0.0, n_rows, order_K
    )
    return RecurrenceTable(a=a, b=2.0 * b_half, order_K=order_K)


def solve_disc_recurrence(
    p: DiscProblem, N: int = DEFAULT_TRUNCATION, K: int = DEFAULT_ORDER
) -> tuple[RecurrenceTable, CoefficientSetDisc]:
    """Solve the disc system through the lambda-power recurrences.

    The table is truncated at order K, so the coefficients carry an
    O(lam**K) tail error; rows beyond those requested are filled as far
    as the recurrences need them.
    """
    if N < 1 or K < 1:
        raise ValueError("N and K must be >= 1")
    table = recurrence_table(p.delta_star, max(N, K // 2 + 1), K)
    A_plus, B_minus = _power_sums(p.lam, table.a, table.b, N)
    return table, CoefficientSetDisc(A_plus=A_plus, B_minus=B_minus, truncation_N=N)


def disc_system_residual(p: DiscProblem, c: CoefficientSetDisc) -> float:
    """Max defect of the truncated disc equations at the given coefficients."""
    forcing = _disc_forcing(p, c.truncation_N)
    return _model_residual(p.lam, None, _interleave(c, 2), forcing)


# ----------------------------------------------------------------------
# annulus model
# ----------------------------------------------------------------------


def _gamma_ratios(N: int) -> np.ndarray:
    """Gamma(k+3/2)/Gamma(k+1) for k < N, one running product from Gamma(3/2).

    At the annulus forcing points this is both 1/L+(-(2k+1)) and L-(2k+2).
    """
    k = np.arange(1.0, N)
    return np.cumprod(np.concatenate([[0.5 * SQRT_PI], (k + 0.5) / k]))[:N]


def _omega_tilde_columns(ratio: float, N: int) -> np.ndarray:
    """omega_tilde at the annulus forcing points, shape (N, 3), from one f_m pass.

    Columns: the plus side at s = 2k+1 and at s = -(2k+1), and the minus side
    at s = 2k+2.  In the closed hypergeometric forms these are f_m(ratio**2)
    at m = -k-1, k and k+1, so one downward recurrence in m, continued below
    m = 0, serves all three.
    """
    x = ratio * ratio
    f = _f_family(N + 1, np.array([x]))[:, 0]
    s = 2.0 * np.arange(N) + 1.0
    return np.stack(
        [
            2.0 * (_f_family_below(N, x) - 1.0) / (SQRT_PI * s),
            2.0 * (f[:N] - 1.0) / (SQRT_PI * -s),
            ratio * f[1:] / (SQRT_PI * (s + 2.0)),
        ],
        axis=1,
    )


def _annulus_omegas(p: AnnulusProblem, N: int) -> np.ndarray:
    """omega_annulus_flat at the forcing points, shape (N, 3), as arrays.

    Columns: omega_1^- at s = 2k+1, where 1/L+ vanishes; omega_1^+ at
    s = -(2k+1) and omega_2^- at s = 2k+2, whose kernel factors are both
    Gamma(k+3/2)/Gamma(k+1).
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


def _annulus_forcings(p: AnnulusProblem, N: int) -> np.ndarray:
    """Right-hand side, per n as (B-, A+, A-, B+), of the annulus equations."""
    t = p.radius_ratio
    n = np.arange(N)
    omega = _annulus_omegas(p, N)
    forcing = np.zeros((N, 4))
    forcing[:, 1] = p.lam1 ** (2 * n + 1) / math.pi * omega[:, 0]
    forcing[:, 2] = t ** (2 * n + 1) / math.pi * omega[:, 1]
    forcing[:, 3] = 4.0 * t ** (2 * n + 2) / math.pi * omega[:, 2]
    return forcing


def solve_annulus_reduction(
    p: AnnulusProblem, N: int = DEFAULT_TRUNCATION
) -> CoefficientSetAnnulus:
    """Solve the truncated 4N x 4N annulus system by a dense solve for A+ and A-.

    At lam0 = 0 the A- and B+ rows reduce to the identity and the
    remaining block coincides with the disc system.
    """
    x = _solve_model(p.lam1, p.radius_ratio, _annulus_forcings(p, N))
    return CoefficientSetAnnulus(**_families(x), truncation_N=N)


def annulus_system_residual(p: AnnulusProblem, c: CoefficientSetAnnulus) -> float:
    """Max defect of the truncated annulus equations at the coefficients."""
    forcing = _annulus_forcings(p, c.truncation_N)
    return _model_residual(p.lam1, p.radius_ratio, _interleave(c, 4), forcing)


def system_residual(problem, coefficients) -> float:
    """Back-substitution residual for either model's coefficient set."""
    if isinstance(coefficients, CoefficientSetDisc):
        return disc_system_residual(problem, coefficients)
    if isinstance(coefficients, CoefficientSetAnnulus):
        return annulus_system_residual(problem, coefficients)
    raise TypeError(f"unsupported coefficient set {type(coefficients)!r}")
