"""Special functions used throughout the package.

Real and complex gamma machinery, the Gauss hypergeometric function on
[0, 1), the half-integer family f_m evaluated over all indices at once
(private: the field evaluators and the annulus forcing build on it), and
the Mellin kernel of the Weber-Sonin integral together with its
plus/minus factorization.  Everything here is a pure function of its
arguments; there is no shared mutable state.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "PoleError",
    "ConvergenceError",
    "gamma",
    "log_gamma_complex",
    "pochhammer",
    "gauss_2f1",
    "f_m",
    "f_m_limit",
    "kernel_L",
    "l_plus",
    "l_minus",
    "l_plus_reciprocal",
    "l_minus_reciprocal",
    "tan_half_pi",
    "cot_half_pi",
]

SQRT_PI = math.sqrt(math.pi)

# Series termination contract: stop when the last term is below
# _SERIES_RTOL times the partial sum, give up past _SERIES_MAX_TERMS.
_SERIES_RTOL = 1e-16
_SERIES_MAX_TERMS = 100_000

# Arguments closer than this to a pole raise PoleError instead of
# returning a huge value.
_POLE_TOL = 1e-9

# Threshold for the 1-x transformed hypergeometric expansion.
_HYP_SWITCH_X = 0.75

# Positive series seeding the array f_m recurrence: relative tolerance and
# array elements per cumulative-product block (the term cap is shared).
_FAMILY_RTOL = 1e-17
_FAMILY_BLOCK = 1 << 12

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
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _check_finite(z: complex) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"argument must be finite, got {z!r}")


def _nearest_nonpositive_integer_distance(z: complex) -> tuple[float, int]:
    """Distance from z to the nearest nonpositive integer and its value."""
    n = round(z.real)
    if n > 0:
        n = 0
    return abs(z - n), int(n)


def gamma(x: float) -> float:
    """Gamma function of a real argument.

    Raises PoleError within 1e-9 of a nonpositive integer.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x!r}")
    if x <= 0.5:
        dist, n = _nearest_nonpositive_integer_distance(complex(x))
        if dist < _POLE_TOL:
            raise PoleError(f"gamma pole at {n}")
    try:
        return math.gamma(x)
    except ValueError as exc:  # pragma: no cover - guarded above
        raise PoleError(f"gamma pole at {round(x)}") from exc


def _lanczos_log_gamma(z: complex) -> complex:
    """Principal log-gamma for Re z >= 0.5 via the Lanczos sum."""
    zm1 = z - 1.0
    acc = _LANCZOS_COEFFS[0]
    for k in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[k] / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (zm1 + 0.5) * cmath.log(t) - t + cmath.log(acc)


def log_gamma_complex(z: complex) -> complex:
    """Principal-branch log-gamma of a complex argument.

    For Re z < 0.5 the value is continued by the downward recursion
    log_gamma(z) = log_gamma(z + n) - sum log(z + k); every branch cut
    introduced by the logs lies on the negative real axis, so the result
    stays on the principal branch.
    """
    z = complex(z)
    _check_finite(z)
    dist, n = _nearest_nonpositive_integer_distance(z)
    if dist < _POLE_TOL:
        raise PoleError(f"log-gamma pole at {n}")
    if z.real >= 0.5:
        return _lanczos_log_gamma(z)
    shift = int(math.ceil(0.5 - z.real))
    acc = 0.0 + 0.0j
    for k in range(shift):
        acc += cmath.log(z + k)
    return _lanczos_log_gamma(z + shift) - acc


def pochhammer(a: float, m: int) -> float:
    """Rising factorial a (a+1) ... (a+m-1); the empty product is 1."""
    if m < 0 or m != int(m):
        raise ValueError(f"order must be a nonnegative integer, got {m!r}")
    out = 1.0
    for k in range(int(m)):
        out *= a + k
    return out


def _gamma_sign(x: float) -> float:
    """Sign of Gamma at a real non-pole argument."""
    if x > 0.0:
        return 1.0
    return 1.0 if math.floor(x) % 2 == 0 else -1.0


def _gamma_quotient(numerators, denominators) -> float:
    """prod Gamma(numerators) / prod Gamma(denominators) via lgamma.

    A pole in a denominator zeroes the quotient; a pole in a numerator
    raises, since no caller has a finite limit there.
    """
    for x in denominators:
        if _nearest_nonpositive_integer_distance(complex(x))[0] < _POLE_TOL:
            return 0.0
    log_acc = 0.0
    sign = 1.0
    for x in numerators:
        dist, n = _nearest_nonpositive_integer_distance(complex(x))
        if x <= 0.5 and dist < _POLE_TOL:
            raise PoleError(f"gamma pole at {n}")
        log_acc += math.lgamma(x)
        sign *= _gamma_sign(x)
    for x in denominators:
        log_acc -= math.lgamma(x)
        sign *= _gamma_sign(x)
    return sign * math.exp(log_acc)


# ----------------------------------------------------------------------
# Gauss hypergeometric function
# ----------------------------------------------------------------------


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.5 and abs(x - round(x)) < _POLE_TOL


def _hyp_series(a: float, b: float, c: float, x: float) -> float:
    """Raw hypergeometric power series at 0 <= x < 1.

    Terminates exactly when a or b is a nonpositive integer; otherwise
    stops on the relative-tolerance contract.
    """
    if _is_nonpositive_integer(a) or _is_nonpositive_integer(b):
        n_terms = int(-min(round(a), round(b)))
        term = 1.0
        total = 1.0
        for k in range(n_terms):
            term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
            total += term
        return total
    total = 1.0
    term = 1.0
    for k in range(_SERIES_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        total += term
        if abs(term) < _SERIES_RTOL * abs(total):
            return total
    raise ConvergenceError(
        f"2F1 series did not converge for a={a}, b={b}, c={c}, x={x}"
    )


def _hyp_transformed(a: float, b: float, c: float, x: float) -> float:
    """Hypergeometric value via the two-term expansion around x = 1.

    Requires c - a - b non-integer (all parameter families used here
    have c - a - b = +-1/2).  Coefficients where 1/Gamma hits a pole
    drop out, which covers the terminating edge representations.
    """
    s = c - a - b
    if abs(s - round(s)) < _POLE_TOL:
        raise ValueError(
            f"1-x expansion needs non-integer c-a-b, got {s!r}"
        )
    u = 1.0 - x
    coef1 = _gamma_quotient((c, s), (c - a, c - b))
    coef2 = _gamma_quotient((c, -s), (a, b))
    total = 0.0
    if coef1 != 0.0:
        total += coef1 * _hyp_series(a, b, 1.0 - s, u)
    if coef2 != 0.0:
        total += coef2 * u**s * _hyp_series(c - a, c - b, 1.0 + s, u)
    return total


def gauss_2f1(a: float, b: float, c: float, x: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; x) for real x in [0, 1).

    Uses the raw power series up to x = 0.75 and the transformed
    expansion in powers of 1 - x above that, where the raw series
    degrades.
    """
    if _is_nonpositive_integer(c):
        raise PoleError(f"2F1 parameter c at pole {round(c)}")
    if not 0.0 <= x < 1.0:
        raise ValueError(f"argument must lie in [0, 1), got {x!r}")
    if x == 0.0:
        return 1.0
    if a == c:
        return (1.0 - x) ** (-b)
    if b == c:
        return (1.0 - x) ** (-a)
    if x <= _HYP_SWITCH_X or _is_nonpositive_integer(a) or _is_nonpositive_integer(b):
        return _hyp_series(a, b, c, x)
    return _hyp_transformed(a, b, c, x)


def f_m(m: int, x: float) -> float:
    """The half-integer hypergeometric family 2F1(1/2, m+1/2; m+3/2; x)."""
    if m < 0 or m != int(m):
        raise ValueError(f"index must be a nonnegative integer, got {m!r}")
    return gauss_2f1(0.5, m + 0.5, m + 1.5, x)


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


# ----------------------------------------------------------------------
# the f_m family over all indices at once
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


def _f_family(count: int, x: np.ndarray) -> np.ndarray:
    """F[m, i] = f_m(x[i]) = 2F1(1/2, m+1/2; m+3/2; x[i]) for m < count.

    Downward recurrence f_m = sqrt(1-x) + x (m+1)/(m+3/2) f_{m+1}, from the
    Euler integral; its multiplier is below 1, so errors in the seed at
    m = count-1 shrink on the way down.  The seed is the raw power series
    (positive terms) where max(count-1, 2) (1-x) > 1, and otherwise the edge
    form f_limit x**-(m+1/2) - (2m+1) sqrt(1-x) 2F1(m+1, 1; 3/2; 1-x), whose
    series in 1-x has positive terms as well.
    """
    top = count - 1
    root = np.sqrt(1.0 - x)
    seed = np.empty_like(x)
    near = (1.0 - x) * max(top, 2) <= 1.0
    far = ~near
    if far.any():
        seed[far] = _positive_series(
            lambda k: (k + 0.5) * (top + 0.5 + k) / ((top + 1.5 + k) * (k + 1.0)),
            x[far],
        )
    if near.any():
        u = 1.0 - x[near]
        tail = _positive_series(lambda k: (top + 1.0 + k) / (k + 1.5), u)
        seed[near] = (
            f_m_limit(top) * x[near] ** -(top + 0.5)
            - (2 * top + 1) * root[near] * tail
        )
    # Recur on G_m = f_m / sqrt(1-x) = 1 + x (m+1)/(m+3/2) G_{m+1}: adding the
    # exact 1 rounds without bias, where adding the same sqrt(1-x) at every
    # step would repeat one rounding error down the whole family.
    G = np.empty((count, len(x)))
    G[top] = seed / root
    for m in range(top - 1, -1, -1):
        G[m] = 1.0 + x * ((m + 1.0) / (m + 1.5)) * G[m + 1]
    G *= root
    return G


def _f_family_below(count: int, x: float) -> np.ndarray:
    """f_{-1-j}(x) for j < count: the f_m family continued below m = 0.

    The recurrence of _f_family, run on from f_{-1} = 2F1(1/2, -1/2; 1/2; x)
    = sqrt(1-x): G_m = f_m / sqrt(1-x) = 1 + x (m+1)/(m+3/2) G_{m+1} from
    G_{-1} = 1.  For m <= -2 the multiplier is positive, so every step adds
    positive terms and a relative error cannot grow.
    """
    G = np.empty(count)
    acc = 1.0
    for j in range(count):
        G[j] = acc
        acc = 1.0 + x * ((j + 1.0) / (j + 0.5)) * acc
    return G * math.sqrt(1.0 - x)


# ----------------------------------------------------------------------
# Mellin kernel of the Weber-Sonin integral and its factorization
# ----------------------------------------------------------------------


def _nearest_lattice_distance(z: complex, offset: int, step: int) -> tuple[float, int]:
    """Distance from z to the nearest point offset + step*n with n >= 0."""
    n = round((z.real - offset) / step)
    if n < 0:
        n = 0
    point = offset + step * n
    return abs(z - point), int(n)


def _guard_pole(z: complex, offset: int, step: int, label: str) -> None:
    dist, n = _nearest_lattice_distance(z, offset, step)
    if dist < _POLE_TOL:
        raise PoleError(f"{label} pole at s = {offset + step * n} (index {n})")


def _gamma_ratio_complex(num: complex, den: complex) -> complex:
    """Gamma(num)/Gamma(den); a pole of the denominator gives an exact 0."""
    try:
        log_den = log_gamma_complex(den)
    except PoleError:
        return 0.0 + 0.0j
    return cmath.exp(log_gamma_complex(num) - log_den)


def l_plus(s: complex) -> complex:
    """Plus factor of the kernel: Gamma(1/2 - s/2) / Gamma(1 - s/2).

    Analytic and zero-free in Re s < 1; simple poles at s = 2n + 1 and
    zeros at s = 2n + 2 for n >= 0.
    """
    s = complex(s)
    _check_finite(s)
    _guard_pole(s, 1, 2, "L+")
    return _gamma_ratio_complex(0.5 - s / 2.0, 1.0 - s / 2.0)


def l_minus(s: complex) -> complex:
    """Minus factor of the kernel: Gamma(1/2 + s/2) / Gamma(s/2).

    Analytic and zero-free in Re s > 0; simple poles at s = -2n - 1 and
    zeros at s = -2n for n >= 0.
    """
    s = complex(s)
    _check_finite(s)
    _guard_pole(s, -1, -2, "L-")
    return _gamma_ratio_complex(0.5 + s / 2.0, s / 2.0)


def l_plus_reciprocal(s: complex) -> complex:
    """1 / l_plus, returning an exact 0 at the poles s = 2n + 1 of l_plus."""
    s = complex(s)
    _check_finite(s)
    _guard_pole(s, 2, 2, "1/L+")
    return _gamma_ratio_complex(1.0 - s / 2.0, 0.5 - s / 2.0)


def l_minus_reciprocal(s: complex) -> complex:
    """1 / l_minus, returning an exact 0 at the poles s = -2n - 1 of l_minus."""
    s = complex(s)
    _check_finite(s)
    _guard_pole(s, 0, -2, "1/L-")
    return _gamma_ratio_complex(s / 2.0, 0.5 + s / 2.0)


def kernel_L(s: complex) -> complex:
    """Mellin transform of the Weber-Sonin kernel on the strip 0 < Re s < 1.

    Gamma(s/2) Gamma(1/2 - s/2) / (2 Gamma(1 - s/2) Gamma(1/2 + s/2)),
    continued off the strip; poles sit at s = 0, -2, -4, ... and
    s = 1, 3, 5, ...  The zeros at s = 2, 4, ... and s = -1, -3, ...
    come out exact.
    """
    s = complex(s)
    _check_finite(s)
    _guard_pole(s, 0, -2, "L")
    _guard_pole(s, 1, 2, "L")
    return 0.5 * l_plus(s) * l_minus_reciprocal(s)


def tan_half_pi(s: complex) -> complex:
    """tan(pi s / 2), exponentially scaled so large |Im s| cannot overflow."""
    s = complex(s)
    if abs(s.imag) <= _TRIG_SCALE_IM:
        return cmath.tan(math.pi * s / 2.0)
    if s.imag > 0:
        q = cmath.exp(1j * math.pi * s)
        return 1j * (1.0 - q) / (1.0 + q)
    q = cmath.exp(-1j * math.pi * s)
    return -1j * (1.0 - q) / (1.0 + q)


def cot_half_pi(s: complex) -> complex:
    """cot(pi s / 2) with the same exponential scaling as tan_half_pi."""
    s = complex(s)
    if abs(s.imag) <= _TRIG_SCALE_IM:
        return 1.0 / cmath.tan(math.pi * s / 2.0)
    if s.imag > 0:
        q = cmath.exp(1j * math.pi * s)
        return -1j * (1.0 + q) / (1.0 - q)
    q = cmath.exp(-1j * math.pi * s)
    return 1j * (1.0 + q) / (1.0 - q)
