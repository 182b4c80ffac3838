"""Extended-precision oracles shared by the test modules.

These are deliberately independent of the library under test: gamma via
an upward product into the Stirling region, log-gamma via recursion, and
the hypergeometric function as a brute-force raw series, all in mpmath
working precision; the annulus forcing columns come from their definitions,
with mpmath's own hyp2f1 and gamma.  The truncated coefficient systems are re-derived term
by term in their original scaling, so a wrong block in the library's
shared operator cannot cancel out of the check, and the lambda-power
tables are filled by the plain double loop over orders and terms.

system_matrix is the one exception: it assembles the couplings from the
library's row weights into the dense operator, the reference that the
eliminated solves are checked against.  Its couplings divide each weight by
its denominator (_couplings), where the library multiplies kernel products by
the weights, so the two constructions differ; test_operator_reuse checks it
entry by entry against a fresh build.

solve_artifact is not an oracle: it reads a `solve` artifact back with
json.loads and the library's dataclass constructors, under the key names the
README gives, so a test of the writer (cli.coefficients_to_json) shares no
code with it.
"""

import json
import math

import mpmath as mp
import numpy as np

from pennycontact.models import (
    _B_SLOTS,
    AnnulusProblem,
    CoefficientSetAnnulus,
    CoefficientSetDisc,
    DiscProblem,
    _row_weights,
)

# Hand-derived small-lambda expansion of the normalized intensity factor:
# the coefficient of lambda**(j+1) is SIF_SERIES_COEFFS[j], the whole series
# carrying a 4/pi**(3/2) prefactor.  The library takes these from the head of
# its lambda-power series (fields.sif_asymptotic); this closed form checks it.
SIF_SERIES_COEFFS = (
    1.0,
    4.0 / math.pi**2,
    16.0 / math.pi**4 + 1.0 / 3.0,
    (4.0 / math.pi**2) * (16.0 / math.pi**4 + 5.0 / 9.0),
    256.0 / math.pi**8 + 112.0 / (9.0 * math.pi**4) + 1.0 / 5.0,
)


def solve_artifact(text):
    """The problem and coefficient set that a `solve` artifact holds."""
    doc = json.loads(text)
    if doc["model"] == "disc":
        problem = DiscProblem(lam=doc["lambda"], delta_star=doc["delta_star"])
        kind, families = CoefficientSetDisc, ("A_plus", "B_minus")
    else:
        problem = AnnulusProblem(
            lam0=doc["lambda0"], lam1=doc["lambda1"], delta_star=doc["delta_star"]
        )
        kind, families = CoefficientSetAnnulus, ("A_plus", "A_minus", "B_plus", "B_minus")
    arrays = {name: np.array(doc[name]) for name in families}
    return problem, kind(**arrays, truncation_N=doc["truncation_N"])


def gamma_product_oracle(x, dps=50, shift=50):
    """Gamma via a 50-term upward product plus the Stirling series."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        prod = mp.mpf(1)
        for k in range(shift):
            prod *= x + k
        z = x + shift
        lg = (z - mp.mpf(1) / 2) * mp.log(z) - z + mp.log(2 * mp.pi) / 2
        for j in range(1, 31):
            lg += mp.bernoulli(2 * j) / (2 * j * (2 * j - 1) * z ** (2 * j - 1))
        return mp.e**lg / prod


def loggamma_recursion_oracle(z, dps=50, shift=None):
    """Principal log-gamma by recursing into the Stirling region."""
    with mp.workdps(dps):
        z = mp.mpc(z)
        if shift is None:
            shift = max(20, int(25 - z.real))
        acc = mp.mpc(0)
        for k in range(shift):
            acc += mp.log(z + k)
        w = z + shift
        lg = (w - mp.mpf(1) / 2) * mp.log(w) - w + mp.log(2 * mp.pi) / 2
        for j in range(1, 31):
            lg += mp.bernoulli(2 * j) / (2 * j * (2 * j - 1) * w ** (2 * j - 1))
        return lg - acc


def hyp2f1_raw_series_oracle(a, b, c, x, dps=40):
    """Brute-force raw hypergeometric series summed in extended precision."""
    with mp.workdps(dps):
        a, b, c, x = mp.mpf(a), mp.mpf(b), mp.mpf(c), mp.mpf(x)
        term = mp.mpf(1)
        total = mp.mpf(1)
        for k in range(200_000):
            term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * x
            total += term
            if abs(term) < mp.mpf("1e-35") * abs(total):
                return total
        raise RuntimeError("oracle series did not converge")


def disc_equation_defect(lam, forcing, A_plus, B_minus):
    """Max defect of the truncated disc equations, summed term by term.

        B-_n = (2/pi) lam^(2n) sum_m A+_m / (n+m+1/2)
        A+_n = lam^(2n+1)/pi [ (1/2) sum_m B-_m / (n+m+1/2) + forcing_n ]
    """
    N = len(A_plus)
    worst = 0.0
    for n in range(N):
        sum_a = sum(A_plus[m] / (n + m + 0.5) for m in range(N))
        sum_b = sum(B_minus[m] / (n + m + 0.5) for m in range(N))
        res_b = B_minus[n] - 2.0 / math.pi * lam ** (2 * n) * sum_a
        res_a = A_plus[n] - lam ** (2 * n + 1) / math.pi * (0.5 * sum_b + forcing[n])
        worst = max(worst, abs(res_b), abs(res_a))
    return worst


def annulus_equation_defect(lam1, t, w1m, w1p, w2m, A_plus, A_minus, B_plus, B_minus):
    """Max defect of the truncated annulus equations, summed term by term.

        B-_n = (2/pi) lam1^(2n) sum_m A+_m / (n+m+1/2)
        A+_n = lam1^(2n+1)/pi [ (1/2) sum_m (B-_m / (n+m+1/2) + B+_m / (n-m-1/2)) + w1m_n ]
        A-_n = t^(2n+1)/pi [ -(1/2) sum_m (B+_m / (n+m+3/2) + B-_m / (n-m+1/2)) + w1p_n ]
        B+_n = t^(2n+2)/pi [ -2 sum_m A-_m / (n+m+3/2) + 4 w2m_n ]
    """
    N = len(A_plus)
    worst = 0.0
    for n in range(N):
        sum_ap = sum(A_plus[m] / (n + m + 0.5) for m in range(N))
        sum_am = sum(A_minus[m] / (n + m + 1.5) for m in range(N))
        sum_b_outer = sum(
            B_minus[m] / (n + m + 0.5) + B_plus[m] / (n - m - 0.5) for m in range(N)
        )
        sum_b_inner = sum(
            B_plus[m] / (n + m + 1.5) + B_minus[m] / (n - m + 0.5) for m in range(N)
        )
        outer = lam1 ** (2 * n + 1) / math.pi
        inner = t ** (2 * n + 1) / math.pi
        inner_b = t ** (2 * n + 2) / math.pi
        residuals = (
            B_minus[n] - 2.0 / math.pi * lam1 ** (2 * n) * sum_ap,
            A_plus[n] - outer * (0.5 * sum_b_outer + w1m[n]),
            A_minus[n] - inner * (-0.5 * sum_b_inner + w1p[n]),
            B_plus[n] - inner_b * (-2.0 * sum_am + 4.0 * w2m[n]),
        )
        worst = max(worst, *(abs(r) for r in residuals))
    return worst


def disc_column_defect(lam, column_index, A_plus, B_minus):
    """Max defect of one disc factor-column system, summed term by term.

        A+_n = lam^(2n+1)/pi [ sum_m B-_m / (n+m+1/2) + 2 d_{l2} ]
        B-_n = lam^(2n)/pi   [ sum_m A+_m / (n+m+1/2) - 2 d_{l1} ]
    """
    d1 = 1.0 if column_index == 1 else 0.0
    d2 = 1.0 if column_index == 2 else 0.0
    N = len(A_plus)
    worst = 0.0
    for n in range(N):
        sum_a = sum(A_plus[m] / (n + m + 0.5) for m in range(N))
        sum_b = sum(B_minus[m] / (n + m + 0.5) for m in range(N))
        res_a = A_plus[n] - lam ** (2 * n + 1) / math.pi * (sum_b + 2.0 * d2)
        res_b = B_minus[n] - lam ** (2 * n) / math.pi * (sum_a - 2.0 * d1)
        worst = max(worst, abs(res_a), abs(res_b))
    return worst


def annulus_column_defect(lam0, lam1, column_index, A_plus, A_minus, B_plus, B_minus):
    """Max defect of one annulus factor-column system, summed term by term.

        B-_n = (2/pi) lam1^(2n)   [ sum_m A+_m / (2n+2m+1) - d_{l1} ]
        A+_n = (2/pi) lam1^(2n+1) [ sum_m (B-_m / (2n+2m+1) + B+_m / (2n-2m-1)) + d_{l2} ]
        A-_n = -(2/pi) t^(2n+1)   [ sum_m (B+_m / (2n+2m+3) + B-_m / (2n-2m+1)) - d_{l2} ]
        B+_n = -(2/pi) t^(2n+2)   [ sum_m A-_m / (2n+2m+3) + d_{l3} ]
    """
    t = lam0 / lam1
    d1, d2, d3 = (1.0 if column_index == l else 0.0 for l in (1, 2, 3))
    N = len(A_plus)
    worst = 0.0
    for n in range(N):
        sum_ap = sum(A_plus[m] / (2 * n + 2 * m + 1) for m in range(N))
        sum_am = sum(A_minus[m] / (2 * n + 2 * m + 3) for m in range(N))
        sum_b_outer = sum(
            B_minus[m] / (2 * n + 2 * m + 1) + B_plus[m] / (2 * n - 2 * m - 1)
            for m in range(N)
        )
        sum_b_inner = sum(
            B_plus[m] / (2 * n + 2 * m + 3) + B_minus[m] / (2 * n - 2 * m + 1)
            for m in range(N)
        )
        residuals = (
            B_minus[n] - 2.0 / math.pi * lam1 ** (2 * n) * (sum_ap - d1),
            A_plus[n] - 2.0 / math.pi * lam1 ** (2 * n + 1) * (sum_b_outer + d2),
            A_minus[n] + 2.0 / math.pi * t ** (2 * n + 1) * (sum_b_inner - d2),
            B_plus[n] + 2.0 / math.pi * t ** (2 * n + 2) * (sum_am + d3),
        )
        worst = max(worst, *(abs(r) for r in residuals))
    return worst


def _couplings(lam: float, t: float | None, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The couplings P (B rows on A unknowns) and Q (A rows on B unknowns).

    With the B unknowns (B-, B+) and the A unknowns (A+, A-) grouped, the
    operator reads [[I, P], [Q, I]].  P is block-diagonal, B- to A+ and B+ to
    A-, and holds its h diagonal blocks, shape (h, N, N); Q, shape
    (h, N, h, N), reshapes to its (hN, hN) matrix without a copy.  Each entry
    is the row weight over pi (n +- m + shift), n being the row.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N!r}")
    # Every denominator is pi (j + 1/2) for an integer j in [-N, 2N): one
    # vector, viewed read-only as windows[i, m] = den[i + m], gives the N x N
    # Hankel (n + m) blocks and, with the columns reversed, the Toeplitz
    # (n - m) ones.  The view is a direct strided ndarray because numpy's
    # sliding_window_view and as_strided go through __array_interface__,
    # which held ~1 MiB more resident over many calls (numpy 2.4).
    den = math.pi * (np.arange(-N, 2 * N) + 0.5)
    windows = np.ndarray((2 * N + 1, N), den.dtype, den, strides=den.strides * 2)
    windows.flags.writeable = False
    weight = _row_weights(lam, t, N)[:, :, np.newaxis]  # B-, A+[, A-, B+]
    h = len(weight) // 2
    P = np.empty((h, N, N))
    Q = np.empty((h, N, h, N))
    plus = windows[N : 2 * N]  # pi (n + m + 1/2)
    np.divide(weight[0], plus, out=P[0])
    np.divide(weight[1], plus, out=Q[0, :, 0])
    if t is not None:
        plus_one = windows[N + 1 : 2 * N + 1]  # pi (n + m + 3/2)
        np.divide(weight[3], plus_one, out=P[1])
        np.divide(weight[1], windows[:N, ::-1], out=Q[0, :, 1])  # pi (n - m - 1/2)
        np.divide(weight[2], windows[1 : N + 1, ::-1], out=Q[1, :, 0])  # pi (n - m + 1/2)
        np.divide(weight[2], plus_one, out=Q[1, :, 1])
    return P, Q


def system_matrix(lam, t, N):
    """Truncated operator of the disc (t is None) or annulus (inner ratio t) systems.

    Unknowns interleave per index n as (B-, A+) in the 2N x 2N disc block
    and (B-, A+, A-, B+) in the 4N x 4N annulus block, lam being the outer
    ratio.  The B unknowns enter halved, so every coupling is
    lam**p / (pi (n +- m + shift)) and the factor columns share the operator.
    """
    P, Q = _couplings(lam, t, N)
    h = len(P)
    k = 2 * h
    matrix = np.eye(k * N)
    for j, b in enumerate(_B_SLOTS[:h]):
        matrix[b::k, j + 1 :: k] += P[j]
        for i in range(h):
            matrix[i + 1 :: k, b::k] += Q[i, :, j]
    return matrix


def power_table_oracle(seed_a, seed_b, n_rows, order_K):
    """Lambda-power tables of the operator truncated to n_rows, one term at a time.

        b[n, k] = seed_b [k = 0] + (1/pi) sum_{m < n_rows, 2m+1 <= k} a[m, k-2m-1] / (n+m+1/2)
        a[n, k] = seed_a [k = 0] + (1/pi) sum_{m < n_rows, 2m <= k}   b[m, k-2m]   / (n+m+1/2)

    With n_rows > order_K // 2 no sum reaches the last row, so the tables
    are the infinite system's first n_rows rows.
    """
    a = np.zeros((n_rows, order_K))
    b = np.zeros((n_rows, order_K))
    a[:, 0] = seed_a
    b[:, 0] = seed_b
    den = math.pi * (np.arange(n_rows)[:, None] + np.arange(n_rows) + 0.5)
    for k in range(order_K):
        for m in range(n_rows):
            if 2 * m + 1 <= k:
                b[:, k] += a[m, k - 2 * m - 1] / den[m]
        for m in range(n_rows):
            if 2 * m <= k:
                a[:, k] += b[m, k - 2 * m] / den[m]
    return a, b


def dense_power_table(n_rows, order_K):
    """The disc's tables of power_table_oracle, one matvec per order, b unhalved.

    a[n, k] and b[n, k] are the coefficients of lam**(2n+1+k) in A+_n and of
    lam**(2n+k) in B-_n at delta_star = 1, k < order_K: the layout by order
    relative to each row's leading power, with the dense window
    1/(pi (n+m+1/2)) and index gathers, as the library built it before it
    stored the tables by total power.
    """
    a = np.zeros((n_rows, order_K))
    h = np.zeros((n_rows, order_K))
    a[:, 0] = -1.0 / (2.0 * math.pi * (np.arange(n_rows) + 0.5))
    m = np.arange(min(order_K // 2 + 1, n_rows))
    inv = 1.0 / (math.pi * (m[:, None] + np.arange(n_rows) + 0.5))
    for k in range(order_K):
        mb = m[: (k - 1) // 2 + 1]
        h[:, k] += a[mb, k - 2 * mb - 1] @ inv[: mb.size]
        ma = m[: k // 2 + 1]
        a[:, k] += h[ma, k - 2 * ma] @ inv[: ma.size]
    return a, 2.0 * h


def dense_sif_coefficients(N, order_K):
    """C_q = sum_n a[n, q - 2n - 1], q <= order_K, over dense_power_table clipped to N rows."""
    rows = min(N, order_K // 2 + 1)
    a, _ = dense_power_table(rows, order_K)
    coefficients = np.zeros(order_K + 1)
    for n in range(rows):
        coefficients[2 * n + 1 :] += a[n, : order_K - 2 * n]
    return coefficients


def by_total_power(a, b, K):
    """Relative-order tables as A[n, 2n+1+k] = a[n, k] and B[n, 2n+k] = b[n, k], q <= K.

    The layout of models._power_table: rows n with 2n + 1 <= K, zero below
    each row's leading power.  a needs K columns and b needs K + 1.
    """
    rows = min(len(a), (K + 1) // 2)
    A = np.zeros((rows, K + 1))
    B = np.zeros((rows, K + 1))
    for n in range(rows):
        A[n, 2 * n + 1 :] = a[n, : K - 2 * n]
        B[n, 2 * n :] = b[n, : K + 1 - 2 * n]
    return A, B


def power_sums(lam, a, b, N):
    """lam**(2n+1) sum_k a[n, k] lam**k and lam**(2n) sum_k b[n, k] lam**k, n < N."""
    powers = lam ** np.arange(a.shape[1])
    n = np.arange(N)
    return lam ** (2 * n + 1) * (a[:N] @ powers), lam ** (2 * n) * (b[:N] @ powers)


def exact_omegas(ratio: float, delta_star: float, count: int) -> np.ndarray:
    """The annulus forcing from its definitions, in 40-digit arithmetic.

    Columns omega_1^-(2k+1), omega_1^+(-(2k+1)) and omega_2^-(2k+2), k < count,
    for inner-to-outer radius ratio `ratio`.
    """
    out = np.empty((count, 3))
    with mp.workdps(40):
        t = mp.mpf(ratio)
        x = t * t
        rpi = mp.sqrt(mp.pi)
        scale = delta_star * rpi / 2

        def wt_plus(s):
            return 2 * (mp.hyp2f1(-s / 2, 0.5, 1 - s / 2, x) - 1) / (rpi * s)

        def inv_l_plus(s):
            return mp.gamma(1 - s / 2) * mp.rgamma(mp.mpf(1) / 2 - s / 2)

        for k in range(count):
            s = mp.mpf(2 * k + 1)
            kernel_term = (2 / s) * inv_l_plus(s) * t**s
            out[k, 0] = scale * (-2 / (s * rpi) + kernel_term - wt_plus(s))
            out[k, 1] = scale * ((2 / -s) * (inv_l_plus(-s) - 1 / rpi) - wt_plus(-s))
            s = mp.mpf(2 * k + 2)
            l_minus = mp.gamma(mp.mpf(1) / 2 + s / 2) * mp.rgamma(s / 2)
            wt_minus = t * mp.hyp2f1((s + 1) / 2, 0.5, (s + 3) / 2, x) / (rpi * (s + 1))
            out[k, 2] = scale * (l_minus / s - wt_minus)
    return out
