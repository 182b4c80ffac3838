"""Field evaluators for the disc model: stress, intensity factor, displacement.

All positions are nondimensional (r scaled by the crack radius a or the
inclusion radius b); stress values are reported as theta1 * sigma_z, with
theta1 = (1 - nu)/G, and displacements as u_z / a.  These are pure numbers
that depend on lambda and delta/a alone, not on nu or G.  Each stress has two
series representations: stress_contact and stress_outer sum the stable
K column of _hyp_column at every point, and the *_edge forms make the
square-root edge behavior explicit, for cross-checking.  Every sum over
a coefficient family stops at the rounding-level weight cut (_kept).
The stress and displacement evaluators take a float or an array of
positions and return a float or an array of the same shape (specfun._points
and _as_given); an array is evaluated with one recurrence over the series
index for all its points, and a float with the same recurrence on Python
floats (specfun._recurrence).  The displacement evaluates one f_m family
over both of its arguments, (lam/r)**2 and r**2, so a float takes the
two-point paths, which give each point the bits of its one-point call.  The
recurrence gives a point the same bits on either path, but a value need not
have them: the sum over the series index is one matrix product over all the
points, and the displacement's f_m seeds are summed in blocks whose width
depends on how many points are live (specfun._series_blocks).  So on the
figures' grids an array and per-point calls differ in the last bits of many
rows, displacements and stresses alike.  The only scalar f_m call is the
one that seeds the continuity column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .models import (
    CoefficientSetDisc,
    DiscProblem,
    _geometry,
    _sif_coefficients,
    solve_disc_reduction,
)
from .specfun import (
    SQRT_PI, _as_given, _f_family, _f_from_seed, _gamma_ratios, _points, _recurrence, f_m,
)

__all__ = [
    "SifResult",
    "stress_contact",
    "stress_contact_edge",
    "stress_outer",
    "stress_outer_edge",
    "sif_exact",
    "sif_asymptotic",
    "sif_sweep",
    "displacement",
    "continuity_defects",
]

# The small-lambda expansion is the head C_1..C_5 of the series sif_sweep sums
# (models._sif_coefficients), which rows n <= 2 of any truncation N >= 3 give.
_ASYMPTOTIC_COEFFS = tuple(_sif_coefficients(3, 5)[1:].tolist())
# sif_sweep's series order K comes from the lambda grid.  A row is served by
# the series when its relative tail bound lam**K/(1 - lam) is at most
# _SERIES_TOL; K is the smallest order meeting that at the grid's top lambda,
# at most _MAX_SERIES_ORDER.  The coefficients are cached in
# models._sif_coefficients, K + 1 floats per (N, K) entry.  The series is
# summed in blocks of _SERIES_CHUNK rows as q = _SERIES_STEP i + j, so a block
# holds _SERIES_CHUNK (_SERIES_STEP + K/_SERIES_STEP) floats, not count x K.
_SERIES_TOL = 2.0**-53
_MAX_SERIES_ORDER = 1024
_SERIES_CHUNK = 4096
_SERIES_STEP = 32


@dataclass(frozen=True)
class SifResult:
    """Crack-tip intensity factor, and its normalized exact and small-lambda forms.

    k1_exact is theta1 K_I / sqrt(a), with the sign that makes it positive
    for positive indentation; the normalized forms divide it by delta/a.
    """

    k1_exact: float
    normalized: float
    normalized_asymptotic: float


@lru_cache(maxsize=8)
def _edge_weights(count: int) -> np.ndarray:
    """Triangular matrix T[m, j] = (-m)_j / (1/2)_j, zero above the diagonal.

    Cached per count and returned read-only.
    """
    T = np.ones((count, count))
    for j in range(1, count):
        T[:, j] = T[:, j - 1] * (j - 1.0 - np.arange(count)) / (j - 0.5)
    T = np.tril(T)
    T.flags.writeable = False
    return T


def _edge_poly(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_m coeffs[m] sum_j T[m, j] u**j at every point of u."""
    count = len(coeffs)
    powers = u[np.newaxis, :] ** np.arange(count)[:, np.newaxis]
    # einsum, not a BLAS matrix product: the same sums, without a BLAS
    # workspace of ~0.3 MiB peak RSS in verify, the only caller
    return coeffs @ np.einsum("mj,jp->mp", _edge_weights(count), powers)


def _kept(p: DiscProblem, c: CoefficientSetDisc) -> tuple[np.ndarray, np.ndarray]:
    """B- and A+ up to the first row n whose lam**(2n) is below models._MIN_WEIGHT.

    That is the B- prefix the solve keeps (models._kept_counts).  A+, whose
    weights carry one more factor lam, is cut at the same n, so each family
    is cut below 2**-64 relative to its own leading row, and a family the
    solve cut entirely (A+ at lam < 2**-64) is still summed.  A later
    coefficient is its family's leading weight (1 or lam) times lam**(2m)
    times a number no larger than the coefficients' scale Y (about
    delta_star), and the columns it meets here, f_m/(2m+1),
    Gamma(m+1/2)/m!/(m+1/2) and K_m/(m-1/2), are at most 2 in magnitude for
    m >= 1.  So the terms left out move a sum by less than
    2**-63/(1 - lam**2) times the family's scale: under 3e-18 of it wherever
    anything is cut at N <= 1000 (lam < 0.978).
    """
    n = _geometry(p.lam, None, len(c.A_plus))[1][0]
    return c.B_minus[:n], c.A_plus[:n]


def _hyp_column(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_m coeffs[m] * 2F1(3/2, 1/2-m; 3/2-m; x) / (m - 1/2) at every x.

    The column H_m = 2F1(3/2, 1/2-m; 3/2-m; x) follows the forward
    recurrence H_m = (1-x)**-1/2 + x m/(m - 3/2) H_{m-1} from the exact
    H_0 = (1-x)**-1/2; it runs on K_m = sqrt(1-x) H_m, for the same reason
    as the G_m of specfun._f_from_seed, and on floats for one point.
    """
    m = np.arange(1.0, len(coeffs))
    K = _recurrence(1.0, m / (m - 1.5), x)
    return (coeffs / (np.arange(len(coeffs)) - 0.5)) @ K / np.sqrt(1.0 - x)


def stress_contact_edge(
    p: DiscProblem, c: CoefficientSetDisc, r_over_b: float | np.ndarray
) -> float | np.ndarray:
    """Contact stress via the finite double sum with the explicit edge factor."""
    r, shape = _points(r_over_b, float)
    _check_unit_interval(r)
    u = 1.0 - r * r
    poly = _edge_poly(c.B_minus, u)
    value = (-p.delta_star + poly) / (p.lam * np.sqrt(math.pi * u))
    return _as_given(value, shape)


def stress_contact(
    p: DiscProblem, c: CoefficientSetDisc, r_over_b: float | np.ndarray
) -> float | np.ndarray:
    """Nondimensional normal stress theta1*sigma_z under the inclusion.

    Valid for 0 <= r/b < 1, by the series form at every point: its K column
    is stable up to the edge, where the edge form's alternating power sums
    cancel like (lam**2 (2 - r**2))**m and fail at high lam and large N.
    Accepts a float or an array of r/b and returns the same kind.
    """
    r, shape = _points(r_over_b, float)
    _check_unit_interval(r)
    x2 = r * r
    lead = -p.delta_star / (p.lam * np.sqrt(math.pi * (1.0 - x2)))
    tail = -_hyp_column(_kept(p, c)[0], x2) / (2.0 * p.lam * SQRT_PI)
    return _as_given(lead + tail, shape)


def stress_outer_edge(
    p: DiscProblem, c: CoefficientSetDisc, r_over_a: float | np.ndarray
) -> float | np.ndarray:
    """Stress outside the crack with the near-tip edge factor pulled out."""
    r, shape = _points(r_over_a, float)
    _check_outside_crack(r)
    x2 = 1.0 / (r * r)
    u = 1.0 - x2
    poly = _edge_poly(c.A_plus, u)
    return _as_given(-2.0 * x2**1.5 * poly / np.sqrt(math.pi * u), shape)


def stress_outer(
    p: DiscProblem, c: CoefficientSetDisc, r_over_a: float | np.ndarray
) -> float | np.ndarray:
    """Nondimensional normal stress theta1*sigma_z on r > a.

    By the series form at every point, for the reason given in
    stress_contact.  Accepts a float or an array of r/a and returns the
    same kind.
    """
    r, shape = _points(r_over_a, float)
    _check_outside_crack(r)
    x2 = 1.0 / (r * r)
    return _as_given(_hyp_column(_kept(p, c)[1], x2) * x2**1.5 / SQRT_PI, shape)


def sif_asymptotic(lam: float) -> float:
    """Normalized intensity factor from the small-lambda expansion.

    Returns theta1 K_I / (sqrt(a) delta/a), the same for every nu and G,
    summed to lambda**5.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lam must lie in [0, 1), got {lam!r}")
    acc = 0.0
    for coefficient in reversed(_ASYMPTOTIC_COEFFS):
        acc = acc * lam + coefficient
    return (-4.0 / SQRT_PI) * lam * acc


def sif_exact(p: DiscProblem, c: CoefficientSetDisc) -> SifResult:
    """Crack-tip intensity factor from the solved coefficients.

    The raw coefficient sum is negative for positive indentation, so
    k1_exact = -2 * sum comes out positive, matching the sign of the
    asymptotic expansion.
    """
    k1_exact = -2.0 * float(np.sum(c.A_plus))
    delta0 = p.delta_over_a
    normalized = 0.0 if delta0 == 0.0 else k1_exact / delta0
    return SifResult(
        k1_exact=k1_exact,
        normalized=normalized,
        normalized_asymptotic=sif_asymptotic(p.lam),
    )


def _series_order(top: float) -> int:
    """Smallest K with top**K <= _SERIES_TOL (1 - top), within 1.._MAX_SERIES_ORDER."""
    if top == 0.0:
        return 1
    order = math.ceil(math.log(_SERIES_TOL * (1.0 - top)) / math.log(top))
    return min(max(order, 1), _MAX_SERIES_ORDER)


def _series_values(coefficients: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """sum_q C_q lam**q at each lam, blocked as q = _SERIES_STEP i + j.

    Per block of rows, the short sums over j are one matrix product with the
    powers lam**j, and the sum over i weights them by (lam**_SERIES_STEP)**i.
    """
    step = _SERIES_STEP
    padded = np.zeros(-(-len(coefficients) // step) * step)
    padded[: len(coefficients)] = coefficients
    by_block = padded.reshape(-1, step).T  # [j, i] = C_{step i + j}
    giant = np.arange(by_block.shape[1])
    values = np.empty(len(lams))
    for start in range(0, len(lams), _SERIES_CHUNK):
        lam = lams[start : start + _SERIES_CHUNK, np.newaxis]
        inner = (lam ** np.arange(step)) @ by_block
        values[start : start + len(lam)] = np.sum(inner * (lam**step) ** giant, axis=1)
    return values


def sif_sweep(lams: np.ndarray, N: int) -> list[tuple[float, float, float]]:
    """Rows (lam, normalized exact, normalized asymptotic) at each lam in [0, 1).

    The exact value is -4/sqrt(pi) sum_q C_q lam**q, with C the cached series
    of the N-truncated disc system (models._sif_coefficients), so it agrees
    with a solve at each lambda to rounding.  The series stops at an order K
    fixed by the top lambda (_series_order); a row whose tail bound
    lam**K/(1 - lam) exceeds 2**-53 is instead -4/sqrt(pi) sum_n A+_n of a
    solve at its lambda and unit loading.  No row depends on the loading,
    and the lambda = 0 row is all zeros.
    """
    if not np.all((0.0 <= lams) & (lams < 1.0)):
        raise ValueError("lams must lie in [0, 1)")
    order = _series_order(float(lams.max(initial=0.0)))
    served = lams**order <= _SERIES_TOL * (1.0 - lams)
    sums = np.zeros(len(lams))
    if served.any():
        sums[served] = _series_values(_sif_coefficients(N, order), lams[served])
    rows = []
    for lam, from_series, total in zip(lams.tolist(), served.tolist(), sums.tolist()):
        if lam == 0.0:
            rows.append((0.0, 0.0, 0.0))
            continue
        if not from_series:
            total = float(np.sum(solve_disc_reduction(DiscProblem(lam, 1.0), N).A_plus))
        rows.append((lam, (-4.0 / SQRT_PI) * total, sif_asymptotic(lam)))
    return rows


def displacement(
    p: DiscProblem, c: CoefficientSetDisc, r_over_a: float | np.ndarray
) -> float | np.ndarray:
    """Crack-face displacement u_z/a on the open annulus lam < r/a < 1.

    The B- sum meets f_m at (lam/r)**2 and the A+ sum f_m at r**2, both cut
    at the same row (_kept), so one f_m family over both sets of arguments,
    with one seed series and one recurrence, serves both.  Accepts a float
    or an array of r/a and returns the same kind.
    """
    r, shape = _points(r_over_a, float)
    outside = ~((p.lam < r) & (r < 1.0))
    if outside.any():
        raise ValueError(
            f"r_over_a must lie in ({p.lam}, 1), got {float(r[outside][0])!r}"
        )
    lam = p.lam
    B_minus, A_plus = _kept(p, c)
    two_m1 = 2.0 * np.arange(len(A_plus)) + 1.0
    # One family over both arguments.  Each half is copied out contiguous:
    # a product over a strided half sums in another order, and a lone point
    # would lose the bits of its separate family calls.
    F = _f_family(len(A_plus), np.concatenate([(lam / r) ** 2, r * r]))
    g_b = (B_minus / two_m1) @ np.ascontiguousarray(F[:, : len(r)])
    g_a = (A_plus / two_m1) @ np.ascontiguousarray(F[:, len(r) :])
    value = (
        (p.delta_star / SQRT_PI) * np.arcsin(lam / r)
        - (lam / (SQRT_PI * r)) * g_b
        + (2.0 / SQRT_PI) * g_a
    )
    return _as_given(value, shape)


def continuity_defects(p: DiscProblem, c: CoefficientSetDisc) -> tuple[float, float]:
    """Displacement mismatches at the inclusion edge and the crack tip.

    Both limits are evaluated from closed forms, not by sampling the
    displacement nearby: the boundary values of the hypergeometric family
    telescope to Gamma(m+1/2)/m!, taken from the running Gamma product
    (specfun._gamma_ratios), and the column f_m(lam**2) over the kept rows
    comes from one f_m call at the last row, recurred down
    (specfun._f_from_seed).  Exact solutions cancel both defects
    identically; truncated ones leave an O(lam**2N) remainder.
    """
    lam = p.lam
    B_minus, A_plus = _kept(p, c)
    count = len(A_plus)
    # (2/sqrt(pi)) * f_m(1-) / (2m+1) telescopes to Gamma(m+1/2)/m!
    gam = _gamma_ratios(len(c.A_plus))[:count] / (np.arange(count) + 0.5)
    x = np.array([lam * lam])
    f_lam = _f_from_seed(f_m(count - 1, lam * lam), count, x)[:, 0]
    two_m1 = 2.0 * np.arange(count) + 1.0

    delta0 = p.delta_over_a
    chi_b = (
        -delta0
        + 0.5 * float(B_minus @ gam)
        - (2.0 / SQRT_PI) * float(A_plus @ (f_lam / two_m1))
    )
    defect_b = abs(chi_b + delta0)

    chi_a = (
        -(p.delta_star / SQRT_PI) * math.asin(lam)
        + (lam / SQRT_PI) * float(B_minus @ (f_lam / two_m1))
        - float(A_plus @ gam)
    )
    defect_a = abs(chi_a)
    return defect_b, defect_a


def _check_unit_interval(r_over_b: np.ndarray) -> None:
    bad = ~((0.0 <= r_over_b) & (r_over_b < 1.0))
    if bad.any():
        raise ValueError(f"r_over_b must lie in [0, 1), got {float(r_over_b[bad][0])!r}")


def _check_outside_crack(r_over_a: np.ndarray) -> None:
    bad = ~(r_over_a > 1.0)
    if bad.any():
        raise ValueError(f"r_over_a must exceed 1, got {float(r_over_a[bad][0])!r}")
