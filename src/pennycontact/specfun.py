"""Special functions used throughout the package.

Gamma machinery, the half-integer hypergeometric family
f_m = 2F1(1/2, m+1/2; m+3/2; x) on [0, 1), and the Mellin kernel of the
Weber-Sonin integral together with its plus/minus factorization.  f_m gives
one value by its seed series; _f_family gives all indices at once by one
recurrence, and _recurrence, which runs it, also runs the field evaluators'
H_m column: every hypergeometric value in the package comes from these.
Every gamma value comes from the complex log-gamma _log_gamma, except the
real ratios Gamma(k+3/2)/Gamma(k+1) of _gamma_ratios and f_m_limit.
The complex functions (the kernel and its factors, tan_half_pi,
cot_half_pi) take a complex number or an array of them; the real ones
take scalars.  Everything here is a pure function of its arguments; there
is no shared mutable state: the one cache, _gamma_ratios', holds read-only
arrays keyed by N alone.  Small point sets take per-point paths: the f_m
seed series of up to _SERIES_POINTS points runs on 1-D arrays per point
(_series_point), to the bits that the block path (_series_blocks) gives a
one-point array, and a column recurrence of up to _FLOAT_POINTS points runs
on Python floats per point.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "PoleError",
    "ConvergenceError",
    "pochhammer",
    "f_m",
    "f_m_limit",
    "kernel_L",
    "l_plus",
    "l_minus",
    "l_minus_reciprocal",
    "tan_half_pi",
    "cot_half_pi",
]

SQRT_PI = math.sqrt(math.pi)

# Arguments closer than this to a pole raise PoleError instead of
# returning a huge value.
_POLE_TOL = 1e-9

# Positive series seeding the f_m family: relative tolerance, term cap and
# array elements per cumulative-product block.
_FAMILY_RTOL = 1e-17
_SERIES_MAX_TERMS = 100_000
_FAMILY_BLOCK = 1 << 12
# Point sets up to these sizes take the per-point paths: a seed series on
# 1-D arrays (_series_point) and a column recurrence on Python floats
# (_recurrence).  Larger sets run on numpy blocks and rows: the blocks break
# even at about three seed points, the rows at about 20 recurrence points.
_SERIES_POINTS = 2
_FLOAT_POINTS = 16

# exp(i*pi*s) scaling kicks in for tan/cot once the naive evaluation
# would overflow double precision.
_TRIG_SCALE_IM = 20.0


class PoleError(ValueError):
    """Argument is on (or too close to) a pole of the function."""


class ConvergenceError(RuntimeError):
    """A series failed to meet the termination contract."""


# ----------------------------------------------------------------------
# gamma machinery
# ----------------------------------------------------------------------

# Lanczos approximation, g = 607/128, 15 terms.  Relative accuracy is a
# few ulps over the right half-plane, which is ample for the 1e-12
# contracts downstream.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LANCZOS_TAIL = np.array(_LANCZOS_COEFFS[1:])
_LANCZOS_POLES = np.arange(1.0, len(_LANCZOS_COEFFS))
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Array elements per block of the log-gamma downward shift.
_SHIFT_BLOCK = 1 << 12


def _complex_points(z) -> tuple[np.ndarray, tuple]:
    """A complex number or array of them as a flat complex array, and its shape."""
    points = np.asarray(z, dtype=complex)
    return points.reshape(-1), points.shape


def _complex_result(values: np.ndarray, shape: tuple):
    """Values as the caller passed its points: a complex number or an array."""
    return complex(values[0]) if shape == () else values.reshape(shape)


def _check_finite(z: np.ndarray) -> None:
    bad = ~np.isfinite(z)
    if bad.any():
        raise ValueError(f"argument must be finite, got {complex(z[bad][0])!r}")


def _lanczos_log_gamma(z: np.ndarray) -> np.ndarray:
    """Principal log-gamma for Re z >= 0.5 via the Lanczos sum."""
    zm1 = z - 1.0
    acc = _LANCZOS_COEFFS[0] + (
        _LANCZOS_TAIL / (zm1[:, np.newaxis] + _LANCZOS_POLES)
    ).sum(axis=1)
    t = zm1 + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (zm1 + 0.5) * np.log(t) - t + np.log(acc)


def _log_gamma(z: np.ndarray) -> np.ndarray:
    """Principal-branch log-gamma at every point of a flat complex array.

    For Re z < 0.5 the value is continued by the downward recursion
    log_gamma(z) = log_gamma(z + n) - sum log(z + k); every branch cut
    introduced by the logs lies on the negative real axis, so the result
    stays on the principal branch.  The array is rejected whole if any point
    is within 1e-9 of a pole.
    """
    _check_finite(z)
    dist, point = _nearest_lattice_point(z, 0, -1)
    near = dist < _POLE_TOL
    if near.any():
        raise PoleError(f"log-gamma pole at {int(point[near][0])}")
    shift = np.maximum(np.ceil(0.5 - z.real), 0.0)
    return _lanczos_log_gamma(z + shift) - _shift_logs(z, shift)


def _shift_logs(z: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """sum_{k < shift} log(z + k) at every point of z.

    The steps come in blocks over the points still shifting, doubling in
    width up to _SHIFT_BLOCK elements per block, so one far-left point costs
    a few blocks of its own steps, not a pass over the whole array per step.
    """
    acc = np.zeros_like(z)
    live = np.flatnonzero(shift)
    start, width = 0, 1
    while len(live):
        k = np.arange(start, start + width, dtype=float)
        logs = np.log(z[live, np.newaxis] + k)
        acc[live] += np.where(k < shift[live, np.newaxis], logs, 0.0).sum(axis=1)
        start += width
        live = live[shift[live] > start]
        width = min(2 * width, max(1, _SHIFT_BLOCK // max(len(live), 1)))
    return acc


def pochhammer(a: float, m: int) -> float:
    """Rising factorial a (a+1) ... (a+m-1); the empty product is 1."""
    if m < 0 or m != int(m):
        raise ValueError(f"order must be a nonnegative integer, got {m!r}")
    out = 1.0
    for k in range(int(m)):
        out *= a + k
    return out


# ----------------------------------------------------------------------
# the half-integer hypergeometric family f_m
# ----------------------------------------------------------------------


def f_m(m: int, x: float) -> float:
    """The half-integer hypergeometric family 2F1(1/2, m+1/2; m+3/2; x).

    Evaluated by the seed rule of _f_family (_f_seed), whose series have
    positive terms on both sides of its switch, so the value is good to a few
    ulps for every m and x in [0, 1).  One call sums a series of up to a few
    thousand terms, so a column of f_m over m comes from one call and the
    recurrence (_f_family, _f_from_seed), not from a call per m.
    """
    if m < 0 or m != int(m):
        raise ValueError(f"index must be a nonnegative integer, got {m!r}")
    if not 0.0 <= x < 1.0:
        raise ValueError(f"argument must lie in [0, 1), got {x!r}")
    return float(_f_seed(int(m), np.array([float(x)]))[0])


def f_m_limit(m: int) -> float:
    """Limit of f_m at x -> 1-, equal to pi (3/2)_m / (2 m!)."""
    if m < 0 or m != int(m):
        raise ValueError(f"index must be a nonnegative integer, got {m!r}")
    m = int(m)
    if m <= 140:
        return math.pi * pochhammer(1.5, m) / (2.0 * math.factorial(m))
    # for large m, where both floats overflow: (3/2)_m / m! is the exact
    # rational (2m+1) C(2m, m) / 4**m, rounded once by the integer division
    return math.pi / 2.0 * ((2 * m + 1) * math.comb(2 * m, m) / 4**m)


# Keyed by N alone, like models._kernels: a solve and the continuity defects
# at one truncation share an entry, whatever lambda is.  At most 32 KB.
@lru_cache(maxsize=4)
def _gamma_ratios(N: int) -> np.ndarray:
    """Gamma(k+3/2)/Gamma(k+1) for k < N, one running product from Gamma(3/2); read-only.

    This is f_m_limit(k) / sqrt(pi) at every k, without the exact integer
    arithmetic f_m_limit needs past k = 140.  The product runs in k order, so
    the first n entries are _gamma_ratios(n) to the bit.
    """
    k = np.arange(1.0, N)
    ratios = np.cumprod(np.concatenate([[0.5 * SQRT_PI], (k + 0.5) / k]))[:N]
    ratios.flags.writeable = False
    return ratios


# ----------------------------------------------------------------------
# the f_m family over all indices at once, and the column recurrences
# ----------------------------------------------------------------------


def _positive_series(ratio, z: np.ndarray) -> np.ndarray:
    """Sum of t_0 = 1, t_{k+1} = t_k * ratio(k) * z at every point of z.

    ratio(k) maps an array of term indices to positive coefficient ratios,
    so no term cancels another.  Terms come in blocks of a cumulative
    product over the term index, so a single point costs a few numpy calls,
    not one per term.  A point is done once its last term is below the
    tolerance times (1 - z) times its sum.  In the raw f_m series the term
    ratio stays below z, so that bounds the tail; in the edge series the
    term ratio has fallen below 2/3 by the time terms are that small.
    Up to _SERIES_POINTS points take _series_point one by one, so each has
    the bits of its one-point call; more take _series_blocks.
    """
    if len(z) <= _SERIES_POINTS:
        return np.array([_series_point(ratio, point) for point in z.tolist()])
    return _series_blocks(ratio, z)


def _series_blocks(ratio, z: np.ndarray) -> np.ndarray:
    """_positive_series over the points still live, one numpy block at a time.

    A block is 32 terms wide, then doubles up to _FAMILY_BLOCK elements over
    the live points.  So a point's blocks, and with them the bits of its sum,
    depend on how many points are live beside it: once more than 64 are
    still live after the first block, the next block is narrower than a lone
    point's 64 terms.
    """
    total = np.ones_like(z)
    last = np.ones_like(z)
    live = np.arange(len(z))
    start, width = 0, 32
    while len(live):
        if start > _SERIES_MAX_TERMS:
            raise ConvergenceError(f"2F1 family seed did not converge in {start} terms")
        k = np.arange(start, start + width, dtype=float)
        terms = last[live, np.newaxis] * np.cumprod(
            ratio(k)[np.newaxis, :] * z[live, np.newaxis], axis=1
        )
        total[live] += terms.sum(axis=1)
        last[live] = terms[:, -1]
        live = live[last[live] > _FAMILY_RTOL * total[live] * (1.0 - z[live])]
        start += width
        width = min(2 * width, max(32, _FAMILY_BLOCK // max(len(live), 1)))
    return total


def _series_point(ratio, x: float) -> float:
    """_positive_series at one point, its blocks on 1-D arrays.

    The blocks are those _series_blocks gives a lone point, 32 terms doubling
    up to _FAMILY_BLOCK, and each takes the same operations in the same
    order: the sequential cumulative product, and np.add.reduce of the
    block, the same pairwise sum as the block's row sum there.  So the value
    has the bits of _series_blocks on a one-point array, without its
    indexing of the live points.
    """
    total = last = 1.0
    start, width = 0, 32
    while True:
        if start > _SERIES_MAX_TERMS:
            raise ConvergenceError(f"2F1 family seed did not converge in {start} terms")
        terms = last * np.cumprod(ratio(np.arange(start, start + width, dtype=float)) * x)
        total += np.add.reduce(terms)
        last = terms[-1]
        if not last > _FAMILY_RTOL * total * (1.0 - x):
            return total
        start += width
        width = min(2 * width, _FAMILY_BLOCK)


def _recurrence(first, steps: np.ndarray, x: np.ndarray, downward: bool = False) -> np.ndarray:
    """y_0 = first, y_{k+1} = 1 + (x steps[k]) y_k at every point of x.

    Shape (len(steps) + 1, len(x)), C-contiguous: row k holds y_k, or,
    downward, row -1-k does, so a family recurred down from its last index
    comes out in index order.  Each step is a Python-level loop iteration,
    so up to _FLOAT_POINTS points run one by one on floats, where a step
    costs a tenth of one on a numpy row of size 1; more points run on numpy
    rows.  Both paths take the same IEEE operations in the same order,
    (x * steps[k]) * y_k and then 1 + that, so a point gives the same bits
    either way, alone or beside any other points.
    """
    if len(x) <= _FLOAT_POINTS:
        factors = steps.tolist()
        firsts = np.ravel(first).tolist()
        if len(firsts) == 1:
            firsts *= len(x)
        values = []
        for point, y in zip(x.tolist(), firsts):
            values += _float_column(point, y, factors, downward)
        return np.ascontiguousarray(np.array(values).reshape(len(x), len(steps) + 1).T)
    Y = np.empty((len(steps) + 1, len(x)))
    rows = range(len(steps), -1, -1) if downward else range(len(steps) + 1)
    Y[rows[0]] = first
    for prev, row, c in zip(rows, rows[1:], steps.tolist()):
        Y[row] = 1.0 + x * c * Y[prev]
    return Y


def _float_column(point: float, y: float, factors: list, downward: bool) -> list:
    """_recurrence at one point, on Python floats: the column as a list."""
    column = [y]
    for c in factors:
        y = 1.0 + point * c * y
        column.append(y)
    if downward:
        column.reverse()
    return column


def _f_seed(top: int, x: np.ndarray) -> np.ndarray:
    """f_top(x) at every point of x, from a series with positive terms.

    The raw power series where max(top, 2) (1-x) > 1, and otherwise the edge
    form f_limit x**-(top+1/2) - (2 top+1) sqrt(1-x) 2F1(top+1, 1; 3/2; 1-x),
    whose series in 1-x has positive terms as well.
    """

    def far_ratio(k):
        return (k + 0.5) * (top + 0.5 + k) / ((top + 1.5 + k) * (k + 1.0))

    near = (1.0 - x) * max(top, 2) <= 1.0
    if not near.any():
        return _positive_series(far_ratio, x)
    seed = np.empty_like(x)
    far = ~near
    if far.any():
        seed[far] = _positive_series(far_ratio, x[far])
    u = 1.0 - x[near]
    tail = _positive_series(lambda k: (top + 1.0 + k) / (k + 1.5), u)
    seed[near] = (
        f_m_limit(top) * x[near] ** -(top + 0.5)
        - (2 * top + 1) * np.sqrt(u) * tail
    )
    return seed


def _f_from_seed(seed, count: int, x: np.ndarray) -> np.ndarray:
    """F[m, i] = f_m(x[i]) for m < count, down from the seed F[count-1] = seed.

    Downward recurrence f_m = sqrt(1-x) + x (m+1)/(m+3/2) f_{m+1}, from the
    Euler integral; its multiplier is below 1, so errors in the seed shrink
    on the way down.  It runs on G_m = f_m / sqrt(1-x) = 1 + x (m+1)/(m+3/2)
    G_{m+1}: adding the exact 1 rounds without bias, where adding the same
    sqrt(1-x) at every step would repeat one rounding error down the whole
    family.
    """
    root = np.sqrt(1.0 - x)
    m = np.arange(count - 2, -1, -1.0)
    F = _recurrence(seed / root, (m + 1.0) / (m + 1.5), x, downward=True)
    F *= root
    return F


def _f_family(count: int, x: np.ndarray) -> np.ndarray:
    """F[m, i] = f_m(x[i]) = 2F1(1/2, m+1/2; m+3/2; x[i]) for m < count.

    The downward recurrence of _f_from_seed, seeded at m = count-1 by
    _f_seed.  One point costs one seed series and count float steps, and
    so does each point of a set up to the per-point sizes (_SERIES_POINTS
    seeds, _FLOAT_POINTS recurrence columns).  A point's column has the bits
    of its one-point call wherever its seed does; the seed can differ by an
    ulp or two once more than 64 points are still summing after the first
    block (_series_blocks), as in 29, 49 and 110 of the 796 seeds of the
    figures' displacement families at lambda = 0.3, 0.5 and 0.7.
    """
    return _f_from_seed(_f_seed(count - 1, x), count, x)


def _f_family_below(count: int, x: np.ndarray) -> np.ndarray:
    """F[j, i] = f_{-1-j}(x[i]) for j < count: the f_m family continued below m = 0.

    The recurrence of _f_from_seed, run on from f_{-1} = 2F1(1/2, -1/2; 1/2;
    x) = sqrt(1-x): G_m = f_m / sqrt(1-x) = 1 + x (m+1)/(m+3/2) G_{m+1} from
    G_{-1} = 1.  For m <= -2 the multiplier is positive, so every step adds
    positive terms and a relative error cannot grow.
    """
    j = np.arange(count - 1.0)
    return _recurrence(1.0, (j + 1.0) / (j + 0.5), x) * np.sqrt(1.0 - x)


# ----------------------------------------------------------------------
# Mellin kernel of the Weber-Sonin integral and its factorization
# ----------------------------------------------------------------------


def _nearest_lattice_point(z: np.ndarray, offset: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each z to the nearest lattice point offset + step*n, n >= 0, and that point."""
    n = np.maximum(np.rint((z.real - offset) / step), 0.0)
    point = offset + step * n
    return np.abs(z - point), point


def _guard_pole(z: np.ndarray, offset: int, step: int, label: str) -> None:
    dist, point = _nearest_lattice_point(z, offset, step)
    near = dist < _POLE_TOL
    if near.any():
        first = int(point[near][0])
        raise PoleError(f"{label} pole at s = {first} (index {(first - offset) // step})")


def _gamma_ratio_complex(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Gamma(num)/Gamma(den); a pole of the denominator gives an exact 0."""
    out = np.zeros_like(num)
    finite = _nearest_lattice_point(den, 0, -1)[0] >= _POLE_TOL
    logs = _log_gamma(np.concatenate([num[finite], den[finite]]))
    half = len(logs) // 2
    out[finite] = np.exp(logs[:half] - logs[half:])
    return out


# The kernel factors and the scaled tangents below take a complex number or
# an array of them and return the same kind.  An array is rejected whole if
# any point is within 1e-9 of a pole.


def l_plus(s):
    """Plus factor of the kernel: Gamma(1/2 - s/2) / Gamma(1 - s/2).

    Analytic and zero-free in Re s < 1; simple poles at s = 2n + 1 and
    zeros at s = 2n + 2 for n >= 0.
    """
    s, shape = _complex_points(s)
    _check_finite(s)
    _guard_pole(s, 1, 2, "L+")
    return _complex_result(_gamma_ratio_complex(0.5 - s / 2.0, 1.0 - s / 2.0), shape)


def l_minus(s):
    """Minus factor of the kernel: Gamma(1/2 + s/2) / Gamma(s/2).

    Analytic and zero-free in Re s > 0; simple poles at s = -2n - 1 and
    zeros at s = -2n for n >= 0.
    """
    s, shape = _complex_points(s)
    _check_finite(s)
    _guard_pole(s, -1, -2, "L-")
    return _complex_result(_gamma_ratio_complex(0.5 + s / 2.0, s / 2.0), shape)


def l_minus_reciprocal(s):
    """1 / l_minus, returning an exact 0 at the poles s = -2n - 1 of l_minus."""
    s, shape = _complex_points(s)
    _check_finite(s)
    _guard_pole(s, 0, -2, "1/L-")
    return _complex_result(_gamma_ratio_complex(s / 2.0, 0.5 + s / 2.0), shape)


def kernel_L(s):
    """Mellin transform of the Weber-Sonin kernel on the strip 0 < Re s < 1.

    Gamma(s/2) Gamma(1/2 - s/2) / (2 Gamma(1 - s/2) Gamma(1/2 + s/2)),
    continued off the strip; poles sit at s = 0, -2, -4, ... and
    s = 1, 3, 5, ...  The zeros at s = 2, 4, ... and s = -1, -3, ...
    come out exact.
    """
    s, shape = _complex_points(s)
    _check_finite(s)
    _guard_pole(s, 0, -2, "L")
    _guard_pole(s, 1, 2, "L")
    return _complex_result(0.5 * l_plus(s) * l_minus_reciprocal(s), shape)


def _half_pi_ratio(s, sign: float):
    """tan(pi s / 2) (sign +1) or cot(pi s / 2) (sign -1) at every point of s.

    Past |Im s| = _TRIG_SCALE_IM both are written in q = exp(+-i pi s), with
    the sign of Im s chosen so that |q| < 1, and cannot overflow.
    """
    s, shape = _complex_points(s)
    out = np.empty_like(s)
    near = np.abs(s.imag) <= _TRIG_SCALE_IM
    tan = np.tan(math.pi * s[near] / 2.0)
    out[near] = tan if sign > 0 else 1.0 / tan
    side = np.where(s.imag[~near] > 0, 1.0, -1.0)
    q = np.exp(side * 1j * math.pi * s[~near])
    num, den = (1.0 - q, 1.0 + q) if sign > 0 else (1.0 + q, 1.0 - q)
    out[~near] = sign * side * 1j * num / den
    return _complex_result(out, shape)


def tan_half_pi(s):
    """tan(pi s / 2), exponentially scaled so large |Im s| cannot overflow."""
    return _half_pi_ratio(s, 1.0)


def cot_half_pi(s):
    """cot(pi s / 2) with the same exponential scaling as tan_half_pi."""
    return _half_pi_ratio(s, -1.0)
