"""Array forms: the fields, X+-(s), G0(s) and the complex kernel functions over many points."""

import math
import re

import mpmath
import numpy as np
import pytest

from pennycontact import fields, specfun
from pennycontact.factorization import (
    boundary_residual,
    contour_samples,
    eval_X_annulus,
    eval_X_disc,
    g0_annulus,
    g0_disc,
    solve_factor_columns_annulus,
    solve_factor_columns_disc,
)
from pennycontact.models import DiscProblem, solve_disc_reduction
from pennycontact.specfun import PoleError

COMPLEX_FUNCTIONS = (
    "l_plus",
    "l_minus",
    "l_minus_reciprocal",
    "kernel_L",
    "tan_half_pi",
    "cot_half_pi",
)


def strip_samples(count=100):
    rng = np.random.default_rng(7121)
    return rng.uniform(0.02, 0.98, count) + 1j * rng.uniform(-20.0, 20.0, count)


# Points off every pole, on both sides of Re s = 0.5, with |Im s| beyond the
# tan/cot scaling switch and one far-left point that needs a long shift.
MIXED = np.concatenate(
    [
        strip_samples(20),
        [-3.3 + 0.7j, -0.4 - 2j, 2.5 + 1j, 7.3 - 4j, 0.5 + 80j, 0.5 - 500j, -250.6 + 0.3j],
    ]
)


@pytest.fixture(scope="module")
def disc_columns():
    return solve_factor_columns_disc(0.5, 60)


@pytest.fixture(scope="module")
def annulus_columns():
    return solve_factor_columns_annulus(0.2, 0.5, 60)


def assert_stacks_agree(stack, scalars, rtol=1e-14):
    scale = np.abs(scalars).reshape(len(scalars), -1).max(axis=1)
    defect = np.abs(stack - scalars).reshape(len(scalars), -1).max(axis=1)
    assert np.all(defect <= rtol * scale), (defect / scale).max()


# Each field evaluator with 20 points inside its domain at lam = 0.5.
FIELD_POINTS = {
    "stress_contact": np.linspace(0.0, 0.95, 20),
    "stress_contact_edge": np.linspace(0.0, 0.95, 20),
    "stress_outer": np.linspace(1.05, 4.0, 20),
    "stress_outer_edge": np.linspace(1.05, 4.0, 20),
    "displacement": np.linspace(0.55, 0.95, 20),
}


@pytest.mark.parametrize("name", sorted(FIELD_POINTS))
def test_field_keeps_the_callers_shape(name):
    p = DiscProblem(lam=0.5, delta_star=0.1 / math.sqrt(math.pi))
    c = solve_disc_reduction(p, 60)
    fn, points = getattr(fields, name), FIELD_POINTS[name]
    grid = fn(p, c, points.reshape(4, 5))
    assert grid.shape == (4, 5)
    assert np.array_equal(grid, fn(p, c, points).reshape(4, 5))
    assert type(fn(p, c, float(points[0]))) is float


class TestFactorMatrices:
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_disc_array_matches_scalar_calls(self, side, disc_columns):
        s = np.array(contour_samples(20) + [0.3 + 45j, -0.4 - 2j])
        stack = eval_X_disc(side, s, disc_columns)
        assert stack.shape == (len(s), 2, 2)
        assert_stacks_agree(stack, np.array([eval_X_disc(side, z, disc_columns) for z in s]))

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_annulus_array_matches_scalar_calls(self, side, annulus_columns):
        s = np.array(contour_samples(20) + [0.3 + 45j, -0.4 - 2j])
        stack = eval_X_annulus(side, s, annulus_columns)
        assert stack.shape == (len(s), 3, 3)
        scalars = np.array([eval_X_annulus(side, z, annulus_columns) for z in s])
        assert_stacks_agree(stack, scalars)

    def test_g0_array_matches_scalar_calls(self):
        s = np.array(contour_samples(20) + [0.5 + 80j])
        assert_stacks_agree(g0_disc(s, 0.37), np.array([g0_disc(z, 0.37) for z in s]))
        assert_stacks_agree(
            g0_annulus(s, 0.2, 0.5), np.array([g0_annulus(z, 0.2, 0.5) for z in s])
        )

    def test_scalar_keeps_one_matrix(self, disc_columns, annulus_columns):
        for value in (eval_X_disc("plus", 0.5 + 1j, disc_columns), g0_disc(0.5 + 1j, 0.5)):
            assert isinstance(value, np.ndarray)
            assert value.shape == (2, 2) and value.dtype == complex
        for value in (eval_X_annulus("minus", 0.5 + 1j, annulus_columns), g0_annulus(0.5, 0.2, 0.5)):
            assert value.shape == (3, 3) and value.dtype == complex

    def test_one_near_integer_point_rejects_the_array(self, disc_columns, annulus_columns):
        s = np.array(contour_samples(6) + [3.0 + 1e-12j])
        with pytest.raises(PoleError, match="s = 3"):
            eval_X_disc("plus", s, disc_columns)
        with pytest.raises(PoleError, match="s = 3"):
            eval_X_annulus("minus", s, annulus_columns)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [complex(math.nan), complex(math.inf), complex(0.5, -math.inf)])
    def test_one_non_finite_point_rejects_the_array(self, bad, disc_columns, annulus_columns):
        s = np.array([0.5 + 1j, bad])
        message = re.escape(f"must be finite, got {bad!r}")
        for call in (
            lambda z: eval_X_disc("plus", z, disc_columns),
            lambda z: eval_X_annulus("minus", z, annulus_columns),
            lambda z: g0_disc(z, 0.5),
            lambda z: g0_annulus(z, 0.2, 0.5),
        ):
            with pytest.raises(ValueError, match=message):
                call(s)
            with pytest.raises(ValueError, match=message):
                call(bad)

    def test_boundary_residual_of_no_samples_is_zero(self, disc_columns, annulus_columns):
        assert boundary_residual(disc_columns, []) == 0.0
        assert boundary_residual(annulus_columns, []) == 0.0


class TestComplexSpecfun:
    @pytest.mark.parametrize("name", COMPLEX_FUNCTIONS)
    def test_array_matches_scalar_calls(self, name):
        fn = getattr(specfun, name)
        stack = fn(MIXED)
        scalars = np.array([fn(z) for z in MIXED])
        assert stack.shape == MIXED.shape
        assert np.all(np.abs(stack - scalars) <= 1e-14 * np.abs(scalars))

    @pytest.mark.parametrize("name", COMPLEX_FUNCTIONS)
    def test_scalar_returns_complex(self, name):
        assert type(getattr(specfun, name)(0.3 + 2j)) is complex

    def test_array_shape_is_kept(self):
        grid = MIXED[:20].reshape(4, 5)
        assert specfun.l_plus(grid).shape == (4, 5)
        assert np.array_equal(specfun.l_plus(grid).ravel(), specfun.l_plus(MIXED[:20]))

    def test_one_pole_rejects_the_array(self):
        with pytest.raises(PoleError, match="s = 3"):
            specfun.l_plus(np.array([0.5 + 1j, 3.0 + 0j]))
        with pytest.raises(PoleError):
            specfun._log_gamma(np.array([0.5 + 1j, -4.0 + 0j]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [complex(math.nan), complex(math.inf), complex(0.5, -math.inf)])
    @pytest.mark.parametrize("name", COMPLEX_FUNCTIONS)
    def test_one_non_finite_point_rejects_the_array(self, name, bad):
        fn = getattr(specfun, name)
        message = re.escape(f"must be finite, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            fn(np.array([0.5 + 1j, bad]))
        with pytest.raises(ValueError, match=message):
            fn(bad)

    def test_denominator_poles_give_exact_zeros_in_an_array(self):
        values = specfun.kernel_L(np.array([2.0, -3.0, 0.5]))
        assert values[0] == 0.0 and values[1] == 0.0 and values[2] != 0.0


MPMATH_FORMS = {
    "l_plus": lambda s: mpmath.gamma(0.5 - s / 2) * mpmath.rgamma(1 - s / 2),
    "l_minus": lambda s: mpmath.gamma(0.5 + s / 2) * mpmath.rgamma(s / 2),
    "tan_half_pi": lambda s: mpmath.tan(mpmath.pi * s / 2),
    "cot_half_pi": lambda s: mpmath.cot(mpmath.pi * s / 2),
}


@pytest.mark.parametrize("name", sorted(MPMATH_FORMS))
def test_array_values_against_mpmath(name):
    got = getattr(specfun, name)(MIXED)
    with mpmath.workdps(30):
        want = np.array([complex(MPMATH_FORMS[name](mpmath.mpc(s))) for s in MIXED])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


class TestLogGammaAgainstMpmath:
    def check(self, z):
        got = specfun._log_gamma(z)
        want = np.array([complex(mpmath.loggamma(mpmath.mpc(x))) for x in z])
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_strip_samples(self):
        self.check(strip_samples())

    def test_points_that_need_the_downward_shift(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-60.0, 0.5, 40) + 1j * rng.uniform(-30.0, 30.0, 40)
        self.check(np.concatenate([z, [-250.6 + 0.3j, -7.3 - 0.4j, 0.2 + 0.1j]]))

    def test_array_matches_one_point_calls(self):
        # the downward shift runs in blocks over the points still shifting,
        # so a point must get the same value alone as inside an array
        stack = specfun._log_gamma(MIXED)
        points = np.array([specfun._log_gamma(MIXED[i : i + 1])[0] for i in range(len(MIXED))])
        assert np.all(np.abs(stack - points) <= 1e-14 * np.abs(points))
