"""Peak memory of the kernel and power tables and of large field grids, as tracemalloc sees numpy's buffers."""

import tracemalloc

import numpy as np
import pytest

from pennycontact import fields, models
from pennycontact.models import DiscProblem, solve_disc_reduction

MiB = 2**20


def peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / MiB


def test_kernel_build_holds_its_two_tables_and_no_temporary():
    # the two (1000, 1001) tables are 15.3 MiB
    assert peak_mib(lambda: models._build_kernels(1000)) <= 16.5


@pytest.mark.parametrize("N", [1, 240, 1000])
def test_kernel_tables_built_in_place_have_the_bits_of_their_formula(N):
    n = np.arange(N)[:, np.newaxis]
    m = np.arange(N + 1)
    hankel, toeplitz = models._build_kernels(N)
    assert np.array_equal(hankel, 1.0 / (np.pi * (n + m + 0.5)))
    assert np.array_equal(toeplitz, 1.0 / (np.pi * (n - m + 0.5)))
    assert not hankel.flags.writeable and not toeplitz.flags.writeable


def test_power_table_holds_its_two_tables_and_no_third():
    # the two (512, 1025) tables are 8.0 MiB; the N = 512 kernels are built first
    models._kernels(512)
    assert peak_mib(lambda: models._power_table(512, 1024)) <= 8.5


@pytest.fixture(scope="module")
def solved_1000():
    p = DiscProblem(lam=0.99, delta_star=1.0)
    return p, solve_disc_reduction(p, 1000)


GRIDS_20000 = {
    "displacement": np.linspace(0.99, 1.0, 20002)[1:-1],
    "stress_outer": np.linspace(1.001, 6.0, 20000),
}


@pytest.mark.parametrize("name", sorted(GRIDS_20000))
def test_a_20000_point_grid_at_n_1000_is_bounded_by_its_chunk(solved_1000, name):
    # one unchunked family of 1000 rows would be 305 MiB, one column 153 MiB
    p, c = solved_1000
    fn, points = getattr(fields, name), GRIDS_20000[name]
    fn(p, c, points[:8])
    assert peak_mib(lambda: fn(p, c, points)) <= 40.0
