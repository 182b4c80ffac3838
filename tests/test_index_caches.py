"""The lambda-independent vectors, each built once per index count in a bounded cache.

Every cached vector must have the bits of the formula it replaces and be
read-only; a solve_sweep case must give the same bits with every cache
cleared as with warm ones; a sweep over fresh seeds must hit the caches;
and what the caches hold must stay under the bound the models docstring
states.  The formulas below are written out here, apart from the library's.
"""

import ast
import gc
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pennycontact import fields, models, specfun, verify

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import workloads  # noqa: E402

# Every cache of a lambda-independent vector, and the bound on what they hold
# together at N <= 1000 (the models docstring).
INDEX_CACHES = (
    specfun._ratio_slot,
    specfun._down_steps,
    specfun._below_steps,
    fields._hyp_steps,
    fields._family_weights,
    models._weight_exponents,
    models._odd_divisors,
    models._annulus_columns,
    models._power_range,
    models._windows,
    verify._strip_samples,
    verify._constancy_draws,
)
BOUND_BYTES = 1.5 * 2**20
COUNTS = [1, 2, 3, 61, 241, 1001]


def _far(top, k):
    return (k + 0.5) * (top + 0.5 + k) / ((top + 1.5 + k) * (k + 1.0))


def _near(top, k):
    return (top + 1.0 + k) / (k + 1.5)


def _read_only(*arrays):
    return all(not array.flags.writeable for array in arrays)


def _same(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and np.array_equal(got, want)


def _clear(monkeypatch):
    """Empty every cache of the library, the kernel table included."""
    for module in (specfun, fields, models, verify):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    monkeypatch.setattr(models, "_kernel_table", [])


@pytest.mark.parametrize("near, formula", [(False, _far), (True, _near)])
@pytest.mark.parametrize("top", [0, 2, 60, 240, 999])
def test_served_term_ratios_have_the_bits_of_their_formula(near, formula, top):
    specfun._ratio_slot.cache_clear()
    ratio = specfun._series_ratio(near, top)
    # the blocks of one point, then blocks that straddle the table's end and the cap
    for start, width in [(0, 32), (32, 64), (96, 128), (224, 256), (200, 700), (2016, 2048), (4000, 200), (9000, 4096)]:
        k = np.arange(start, start + width, dtype=float)
        got = ratio(k)
        assert _same(got, formula(top, k)), (start, width)
    table = specfun._ratio_slot(near, top)[0]
    assert len(table) == specfun._FAMILY_BLOCK and _read_only(table)
    assert _same(table, formula(top, np.arange(float(len(table)))))


def test_a_series_that_outgrows_its_table_keeps_the_bits_handed_out():
    # 999 (1 - x) = 1.05: the raw series, which runs to about 37 000 terms,
    # past the 4096 of a full table
    top, x = 999, 1.0 - 1.05 / 999
    specfun._ratio_slot.cache_clear()
    ratio = specfun._series_ratio(False, top)
    head = ratio(np.arange(0.0, 32.0))
    first = specfun._ratio_slot(False, top)[0]
    ends = []
    specfun._series_point(lambda k: ends.append(k[-1]) or _far(top, k), x)
    assert ends[-1] > 4096
    seed = specfun._f_seed(top, np.array([x]))[0]
    table = specfun._ratio_slot(False, top)[0]
    assert table is not first and len(table) == specfun._FAMILY_BLOCK
    assert _same(head, _far(top, np.arange(0.0, 32.0))) and _read_only(head, first, table)
    assert _same(table[: len(first)], first)
    assert seed == specfun._series_point(lambda k: _far(top, k), x)


@pytest.mark.parametrize("top", [0, 2, 59, 60, 239, 240, 999])
def test_seeds_have_the_bits_of_the_uncached_series(top):
    switch = 1.0 - 1.0 / max(top, 2)
    x = np.array([0.0, 1e-40, 0.25, 0.81, np.nextafter(switch, 0.0), switch, 0.9801, 1.0 - 1e-12])
    specfun._ratio_slot.cache_clear()
    for points in [x[i : i + 1] for i in range(len(x))] + [x[:2], x]:
        near = (1.0 - points) * max(top, 2) <= 1.0
        want = np.empty_like(points)
        if (~near).any():
            want[~near] = specfun._positive_series(lambda k: _far(top, k), points[~near])
        u = 1.0 - points[near]
        tail = specfun._positive_series(lambda k: _near(top, k), u)
        want[near] = specfun.f_m_limit(top) * points[near] ** -(top + 0.5) - (2 * top + 1) * np.sqrt(u) * tail
        assert _same(specfun._f_seed(top, points), want)


@pytest.mark.parametrize("count", COUNTS)
def test_recurrence_steps_have_the_bits_of_their_formula(count):
    m = np.arange(count - 2, -1, -1.0)
    j = np.arange(count - 1.0)
    h = np.arange(1.0, count)
    steps, halves = fields._hyp_steps(count)
    two_m1, gam = fields._family_weights(count)
    pairs = [
        (specfun._down_steps(count), (m + 1.0) / (m + 1.5)),
        (specfun._below_steps(count), (j + 1.0) / (j + 0.5)),
        (steps, h / (h - 1.5)),
        (halves, np.arange(count) - 0.5),
        (two_m1, 2.0 * np.arange(count) + 1.0),
        (gam, specfun._gamma_ratios(count + 7)[:count] / (np.arange(count) + 0.5)),
    ]
    for got, want in pairs:
        assert _same(got, want) and _read_only(got)


@pytest.mark.parametrize("N", [1, 2, 60, 240, 1000])
def test_forcing_columns_and_exponents_have_the_bits_of_their_formula(N):
    s = 2.0 * np.arange(N) + 1.0
    g = specfun._gamma_ratios(N)
    rt = math.sqrt(math.pi)
    divisors, terms = models._annulus_columns(N)
    power, power_plus_1 = models._weight_exponents(N)
    pairs = [
        (models._odd_divisors(N), math.pi * (2.0 * np.arange(N) + 1.0)),
        (divisors, np.array([rt * s, rt * -s, rt * (s + 2.0)])),
        (terms, np.array([-2.0 / (s * rt), (2.0 / -s) * (g - 1.0 / rt), g / (s + 1.0)])),
        (power, np.arange(2 * N).reshape(N, 2).T),
        (power_plus_1, np.arange(2 * N).reshape(N, 2).T + 1),
        (models._power_range(N), np.arange(N + 1)),
    ]
    for got, want in pairs:
        assert _same(got, want) and _read_only(got)


@pytest.mark.parametrize("N", [1, 7, 60])
@pytest.mark.parametrize("h", [1, 2])
def test_coupling_windows_are_the_kernel_slices(monkeypatch, N, h):
    monkeypatch.setattr(models, "_kernel_table", [])
    hankel, toeplitz = models._kernels(N)
    windows = models._coupling_kernels(N, h)
    assert windows is models._coupling_kernels(N, h)
    for i in range(h):
        for j in range(h):
            want = (hankel if i == j else toeplitz)[:, j : j + N]
            assert _same(windows[i][j], want) and _read_only(windows[i][j])
            assert windows[i][j].base is models._kernel_table[0 if i == j else 1]


def test_a_grown_kernel_table_drops_the_windows_of_the_old_one(monkeypatch):
    monkeypatch.setattr(models, "_kernel_table", [])
    old = models._coupling_kernels(8, 2)
    models._coupling_kernels(16, 2)
    new = models._coupling_kernels(8, 2)
    assert new is not old and new[0][0].base is models._kernel_table[0]
    assert all(_same(a, b) for a, b in zip(sum(old, []), sum(new, [])))


def test_verify_point_sets_are_drawn_once_and_read_only():
    rng = np.random.default_rng(7121)
    strip = rng.uniform(0.02, 0.98, 100)
    strip = strip + 1j * rng.uniform(-20.0, 20.0, 100)
    draws = np.random.default_rng(314).uniform((-0.4, -30.0), (0.49, 30.0), (50, 2))
    assert _same(verify._strip_samples(), strip) and _read_only(verify._strip_samples())
    assert _same(verify._constancy_draws(), draws[:, 0] + 1j * draws[:, 1])
    assert _read_only(verify._constancy_draws())
    assert verify._strip_samples() is verify._strip_samples()


def test_no_index_cache_is_filled_at_import():
    names = [f"{cache.__module__}.{cache.__name__}" for cache in INDEX_CACHES]
    code = (
        "import importlib, sys\n"
        "import pennycontact.cli\n"
        "sizes = {}\n"
        "for name in sys.argv[1:]:\n"
        "    module, attr = name.rsplit('.', 1)\n"
        "    sizes[name] = getattr(importlib.import_module(module), attr).cache_info().currsize\n"
        "print(sizes, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *names],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": str(ROOT / "src")},
    )
    sizes, random_imported = proc.stdout.rsplit(" ", 1)
    assert ast.literal_eval(sizes) == dict.fromkeys(names, 0)
    assert random_imported.strip() == "False"


@pytest.mark.parametrize("seed", [401, 409])
def test_a_sweep_case_has_the_same_bits_cold_and_warm(monkeypatch, seed):
    cases = workloads.solve_sweep_inputs(seed)
    cold = []
    for case in cases:
        _clear(monkeypatch)
        cold.append(workloads.run_case(case))
    warm = [workloads.run_case(case) for case in cases]
    assert [list(map(repr, c.values())) for c in cold] == [list(map(repr, w.values())) for w in warm]


def _held_bytes() -> int:
    """What the index caches hold: the traced memory their clearing frees."""
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]
    for cache in INDEX_CACHES:
        cache.cache_clear()
    gc.collect()
    return held - tracemalloc.get_traced_memory()[0]


def test_fresh_seeds_hit_the_caches_and_stay_under_the_bound():
    for cache in INDEX_CACHES:
        cache.cache_clear()
    tracemalloc.start()
    try:
        for case in workloads.solve_sweep_inputs(401):
            workloads.run_case(case)
        first = {cache: cache.cache_info().hits for cache in INDEX_CACHES}
        for seed in (402, 403, 404):
            for case in workloads.solve_sweep_inputs(seed):
                workloads.run_case(case)
        held = _held_bytes()
    finally:
        tracemalloc.stop()
    read = [cache for cache in INDEX_CACHES if cache.__module__ != verify.__name__]
    assert [cache for cache in read if cache.cache_info().hits == first[cache]] == []
    assert 0 < held <= BOUND_BYTES


def test_the_caches_at_their_worst_at_n_1000_stay_under_the_bound():
    # every cache full of its largest entries at N <= 1000: ratio tables at
    # their cap, counts up to N + 1, the annulus' four slots, order K = 2000
    for cache in INDEX_CACHES:
        cache.cache_clear()
    models._kernels(1000)
    tracemalloc.start()
    try:
        for top in range(1000, 1000 - specfun._RATIO_TABLES, -1):
            ratio = specfun._series_ratio(top % 2 == 0, top)
            ratio(np.arange(0.0, specfun._FAMILY_BLOCK))
        for cache in (specfun._down_steps, specfun._below_steps, fields._hyp_steps, fields._family_weights):
            for count in range(1001, 1001 - cache.cache_parameters()["maxsize"], -1):
                cache(count)
        for cache in (models._weight_exponents, models._odd_divisors, models._annulus_columns):
            for N in range(1000, 1000 - cache.cache_parameters()["maxsize"], -1):
                cache(N)
        for K in (2000, 1999):
            models._power_range(K)
        for N in (1000, 999):
            for h in (1, 2):
                models._coupling_kernels(N, h)
        verify._strip_samples()
        verify._constancy_draws()
        assert all(cache.cache_info().currsize == cache.cache_parameters()["maxsize"] for cache in INDEX_CACHES)
        held = _held_bytes()
    finally:
        tracemalloc.stop()
    assert held <= BOUND_BYTES
