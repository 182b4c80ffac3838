"""Field grids in chunks: the same values, the same contract, one domain check first."""

import math

import numpy as np
import pytest

from pennycontact import fields
from pennycontact.models import DiscProblem, solve_disc_reduction

DELTA_STAR = 0.1 / math.sqrt(math.pi)
# Chunk limits small enough that every grid below runs in many chunks: at
# N = 240, lam = 0.5 keeps 33 rows and lam = 0.7 keeps 63, so a chunk holds
# one to nine points.
SMALL_BLOCKS = (100, 300)
CHUNKED = ("displacement", "stress_contact", "stress_outer")


def grid(name, lam, count):
    """count points inside the evaluator's domain, up to close to its edges."""
    if name == "displacement":
        return np.linspace(lam, 1.0, count + 2)[1:-1]
    if name == "stress_contact":
        return np.linspace(0.0, 0.999, count)
    return np.linspace(1.001, 6.0, count)


@pytest.fixture(scope="module", params=(0.5, 0.7))
def solved(request):
    p = DiscProblem(lam=request.param, delta_star=DELTA_STAR)
    return p, solve_disc_reduction(p, 240)


def counted(monkeypatch, name):
    """Replace fields.<name> by a wrapper that counts its calls."""
    calls = []
    real = getattr(fields, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fields, name, wrapper)
    return calls


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@pytest.mark.parametrize("name", CHUNKED)
def test_chunks_agree_with_one_chunk(monkeypatch, solved, name, block):
    # a chunk's seeds and sums over the series index may round apart from
    # the whole grid's: 4e-16 absolute, relative past magnitude 1
    p, c = solved
    points = grid(name, p.lam, 2000)
    whole = getattr(fields, name)(p, c, points)
    monkeypatch.setattr(fields, "_GRID_BLOCK", block)
    chunked = getattr(fields, name)(p, c, points)
    assert chunked.shape == whole.shape
    assert np.all(np.abs(chunked - whole) <= 4e-16 * np.maximum(1.0, np.abs(whole)))


@pytest.mark.parametrize("name", CHUNKED)
def test_chunks_keep_the_point_contract(monkeypatch, solved, name):
    p, c = solved
    monkeypatch.setattr(fields, "_GRID_BLOCK", SMALL_BLOCKS[0])
    fn, points = getattr(fields, name), grid(name, p.lam, 6)
    value = fn(p, c, float(points[0]))
    assert isinstance(value, float)
    empty = fn(p, c, np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    table = fn(p, c, points.reshape(2, 3))
    assert table.shape == (2, 3)
    assert np.array_equal(table.reshape(-1), fn(p, c, points))


@pytest.mark.parametrize("name", CHUNKED)
def test_a_bad_last_point_refuses_the_grid_before_any_chunk(monkeypatch, solved, name):
    p, c = solved
    monkeypatch.setattr(fields, "_GRID_BLOCK", SMALL_BLOCKS[0])
    family = counted(monkeypatch, "_f_family")
    recurrence = counted(monkeypatch, "_recurrence")
    points = grid(name, p.lam, 200)
    points[-1] = 1.0
    with pytest.raises(ValueError, match="must"):
        getattr(fields, name)(p, c, points)
    assert family == [] and recurrence == []


@pytest.fixture(scope="module")
def solved_1000():
    p = DiscProblem(lam=0.99, delta_star=DELTA_STAR)
    return p, solve_disc_reduction(p, 1000)


@pytest.mark.parametrize(
    "name, evaluated", [("displacement", "_f_family"), ("stress_contact", "_recurrence"), ("stress_outer", "_recurrence")]
)
def test_a_default_grid_at_n_1000_is_one_chunk(monkeypatch, solved_1000, name, evaluated):
    p, c = solved_1000
    assert len(fields._kept(p, c)[0]) == 1000
    calls = counted(monkeypatch, evaluated)
    getattr(fields, name)(p, c, grid(name, p.lam, 400))
    assert len(calls) == 1


@pytest.mark.parametrize("count, chunks", [(524, 1), (525, 2)])
def test_the_displacement_splits_past_524_points_at_n_1000(monkeypatch, solved_1000, count, chunks):
    # 1000 kept rows and both arguments: 2000 family elements a point
    p, c = solved_1000
    calls = counted(monkeypatch, "_f_family")
    fields.displacement(p, c, grid("displacement", p.lam, count))
    assert len(calls) == chunks
