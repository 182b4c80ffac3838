"""Special-function layer: frozen extended-precision oracles and identities."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    gamma_product_oracle,
    hyp2f1_raw_series_oracle,
    loggamma_recursion_oracle,
)

from pennycontact import specfun
from pennycontact.fields import _hyp_column
from pennycontact.specfun import (
    ConvergenceError,
    PoleError,
    cot_half_pi,
    f_m,
    f_m_limit,
    gamma,
    kernel_L,
    l_minus,
    l_plus,
    log_gamma_complex,
    pochhammer,
    tan_half_pi,
)

SQRT_PI = math.sqrt(math.pi)


# Frozen from gamma_product_oracle("0.25", dps=60); see also mp.gamma.
GAMMA_QUARTER = 3.625609908221908311930685
# Frozen from loggamma_recursion_oracle(1 + 5j, dps=60).
LOGGAMMA_1_5J = complex(-6.130324144552748811570557, 3.81589857461492447779955)
# Frozen: L(1/2) = Gamma(1/4)^2 / (2 Gamma(3/4)^2) via the product oracle.
KERNEL_L_HALF = 4.37687923045295327767354


class TestGamma:
    def test_trivial_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_quarter_against_frozen_oracle(self):
        assert gamma(0.25) == pytest.approx(GAMMA_QUARTER, rel=1e-12)
        # provenance: the frozen literal reproduces from the oracle
        assert float(gamma_product_oracle("0.25")) == pytest.approx(
            GAMMA_QUARTER, rel=1e-15
        )

    def test_pole_guard(self):
        for bad in (0.0, -1.0, -2.0, -5.0 + 1e-12):
            with pytest.raises(PoleError):
                gamma(bad)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=80, deadline=None)
    def test_reflection_sanity(self, x):
        value = gamma(x) * gamma(1.0 - x) * math.sin(math.pi * x) / math.pi
        assert value == pytest.approx(1.0, rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=40.0))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


class TestLogGammaComplex:
    def test_trivial_values(self):
        assert abs(log_gamma_complex(2.0 + 0.0j)) < 1e-14
        assert log_gamma_complex(0.5 + 0.0j).real == pytest.approx(
            math.log(SQRT_PI), rel=1e-13
        )
        assert abs(log_gamma_complex(0.5 + 0.0j).imag) < 1e-14

    def test_1_plus_5j_against_frozen_oracle(self):
        got = log_gamma_complex(1 + 5j)
        assert got.real == pytest.approx(LOGGAMMA_1_5J.real, rel=1e-12)
        assert got.imag == pytest.approx(LOGGAMMA_1_5J.imag, rel=1e-12)
        oracle = loggamma_recursion_oracle(1 + 5j, shift=20)
        assert float(oracle.real) == pytest.approx(LOGGAMMA_1_5J.real, rel=1e-15)
        assert float(oracle.imag) == pytest.approx(LOGGAMMA_1_5J.imag, rel=1e-15)

    def test_grid_against_recursion_oracle(self):
        rng = np.random.default_rng(20240811)
        for _ in range(40):
            z = complex(rng.uniform(-80, 80), rng.uniform(-80, 80))
            if abs(z) > 100 or z.real <= 0 and abs(z.imag) < 0.3:
                continue
            want = loggamma_recursion_oracle(z)
            got = log_gamma_complex(z)
            scale = max(1.0, abs(got))
            assert abs(got - complex(want)) <= 1e-12 * scale

    def test_left_half_plane_is_principal_branch(self):
        # straddle the real axis far left of the cut origin: the branch
        # must be continuous off the cut and conjugate-symmetric
        z = -7.3 + 0.4j
        a = log_gamma_complex(z)
        b = log_gamma_complex(z.conjugate())
        assert a.conjugate() == pytest.approx(b, rel=1e-12)

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            log_gamma_complex(0.0 + 0.0j)
        with pytest.raises(PoleError):
            log_gamma_complex(-3.0 + 0.0j)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(1.5, 0) == 1.0

    def test_single(self):
        assert pochhammer(1.5, 1) == 1.5

    def test_pair(self):
        assert pochhammer(1.5, 2) == pytest.approx(3.75, rel=1e-15)

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, a, m):
        assert pochhammer(a, m + 1) == pytest.approx(
            pochhammer(a, m) * (a + m), rel=1e-12, abs=1e-12
        )


def h_m(m, x):
    """H_m = 2F1(3/2, 1/2-m; 3/2-m; x), read out of the field evaluators' column."""
    # Row m of the identity picks H_m / (m - 1/2) out of the column sum.
    return float(_hyp_column(np.eye(m + 1), np.array([x]))[m, 0]) * (m - 0.5)


class TestGauss2F1:
    """The two half-integer 2F1 families the package evaluates.

    f_m = 2F1(1/2, m+1/2; m+3/2; x) and H_m = 2F1(3/2, 1/2-m; 3/2-m; x).
    """

    def test_arcsine_value(self):
        # f_0(1/4) = asin(1/2)/(1/2), on the family recurrence
        assert specfun._f_family(1, np.array([0.25]))[0, 0] == pytest.approx(
            math.pi / 3.0, rel=1e-13
        )

    def test_zero_argument(self):
        for m in (0, 1, 7, 30):
            assert f_m(m, 0.0) == 1.0
            assert h_m(m, 0.0) == 1.0

    def test_frozen_oracle_values(self):
        # frozen from hyp2f1_raw_series_oracle at dps=60
        cases = [
            ((0.5, 10.5, 11.5, 0.9), f_m(10, 0.9), 2.487200636593844303250062),
            ((1.5, -9.5, -8.5, 0.8), h_m(10, 0.8), 13.51350596566666265965242),
            ((0.5, 5.5, 6.5, 0.99), f_m(5, 0.99), 3.34859965539105752759119),
        ]
        for args, got, want in cases:
            assert got == pytest.approx(want, rel=1e-11), args

    def test_field_parameter_families_against_oracle(self):
        # the families used by the field evaluators: a in {1/2, 3/2},
        # half-integer b and c
        xs = np.linspace(0.05, 0.95, 10)
        for m in (0, 1, 2, 5, 12, 30):
            for x in xs:
                for (a, b, c), got in [
                    ((0.5, m + 0.5, m + 1.5), f_m(m, float(x))),
                    ((1.5, 0.5 - m, 1.5 - m), h_m(m, float(x))),
                ]:
                    want = float(hyp2f1_raw_series_oracle(a, b, c, x))
                    assert got == pytest.approx(want, rel=1e-10), (a, b, c, x)

    def test_arcsine_identity_sample(self):
        for x in np.linspace(0.01, 0.99, 50):
            got = f_m(0, float(x) ** 2)
            want = math.asin(x) / x
            assert abs(got - want) <= 1e-11 * abs(want)


class TestFm:
    def test_f0_arcsine(self):
        assert f_m(0, 0.25) == pytest.approx(math.pi / 3.0, rel=1e-13)

    def test_limits(self):
        assert f_m_limit(0) == pytest.approx(math.pi / 2.0, rel=1e-15)
        assert f_m_limit(1) == pytest.approx(3.0 * math.pi / 4.0, rel=1e-15)

    def test_limit_closed_form(self):
        for m in range(25):
            want = math.pi * pochhammer(1.5, m) / (2.0 * math.factorial(m))
            assert f_m_limit(m) == pytest.approx(want, rel=1e-13)

    def test_fm_approaches_limit(self):
        for m in (0, 3, 10):
            assert f_m(m, 1.0 - 1e-12) == pytest.approx(f_m_limit(m), rel=1e-5)


class TestKernel:
    def strip_samples(self, count=100):
        rng = np.random.default_rng(7121)
        re = rng.uniform(0.02, 0.98, count)
        im = rng.uniform(-20.0, 20.0, count)
        return [complex(a, b) for a, b in zip(re, im)]

    def test_factorization_identity(self):
        for s in self.strip_samples():
            lhs = kernel_L(s)
            rhs = l_plus(s) / (2.0 * l_minus(s))
            assert abs(lhs - rhs) <= 1e-11 * abs(lhs)

    def test_tangent_identity(self):
        for s in self.strip_samples():
            prod = l_plus(s) * l_minus(s)
            want = tan_half_pi(s)
            assert abs(prod - want) <= 1e-10 * max(1.0, abs(want))

    def test_tangent_identity_at_half(self):
        assert l_plus(0.5) * l_minus(0.5) == pytest.approx(1.0, rel=1e-12)

    def test_value_at_half_against_frozen_oracle(self):
        got = kernel_L(0.5)
        assert got.real == pytest.approx(KERNEL_L_HALF, rel=1e-12)
        assert abs(got.imag) < 1e-12
        want = gamma_product_oracle("0.25") ** 2 / (
            2 * gamma_product_oracle("0.75") ** 2
        )
        assert float(want) == pytest.approx(KERNEL_L_HALF, rel=1e-15)

    def test_asymptotic_orders(self):
        # L+(-t) (t/2)^(1/2) -> 1 and L-(t) (t/2)^(-1/2) -> 1
        for t in (1e3, 1e4, 1e6):
            plus = l_plus(complex(-t)) * math.sqrt(t / 2.0)
            minus = l_minus(complex(t)) / math.sqrt(t / 2.0)
            tol = 0.01 if t == 1e6 else 0.05
            assert abs(plus - 1.0) < tol
            assert abs(minus - 1.0) < tol

    def test_pole_errors_carry_index(self):
        with pytest.raises(PoleError, match="s = 3"):
            l_plus(3.0 + 0.0j)
        with pytest.raises(PoleError, match="s = -5"):
            l_minus(-5.0 + 0.0j)
        with pytest.raises(PoleError):
            kernel_L(0.0)
        with pytest.raises(PoleError):
            kernel_L(1.0)

    def test_kernel_zeros_exact(self):
        assert kernel_L(2.0) == 0.0
        assert kernel_L(-3.0) == 0.0


class TestScaledTrig:
    def test_matches_cmath_moderate(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            s = complex(rng.uniform(-5, 5), rng.uniform(-15, 15))
            assert tan_half_pi(s) == pytest.approx(
                cmath.tan(math.pi * s / 2.0), rel=1e-12
            )

    def test_no_overflow_large_imag(self):
        for im in (50.0, 500.0, -500.0):
            t = tan_half_pi(0.5 + 1j * im)
            c = cot_half_pi(0.5 + 1j * im)
            assert cmath.isfinite(t) and cmath.isfinite(c)
            want = 1j if im > 0 else -1j
            assert t == pytest.approx(want, abs=1e-15)
            assert c == pytest.approx(-want, abs=1e-15)

    def test_tan_cot_product(self):
        for s in (0.3 + 2j, -1.4 - 7j, 0.5 + 25j):
            assert tan_half_pi(s) * cot_half_pi(s) == pytest.approx(1.0, rel=1e-12)


def test_series_convergence_guard():
    # terms that never shrink at z = 1: the family seed's series gives up
    with pytest.raises(ConvergenceError):
        specfun._positive_series(np.ones_like, np.array([1.0]))
