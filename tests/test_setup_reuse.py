"""A solve pays its geometry's set-up once, and its residual reuses it.

The forcing of each (problem, N) comes from one cache of four entries per
model (models._disc_forcing, models._annulus_forcings), which a solve and its
system_residual share; another problem gets its own entry, and coefficients
read back from a `solve` artifact get the same bits as a forcing built afresh.  The
results carry nothing but their dataclass fields.  The row weights and kept
counts of each (lambda, t, N) come from one cache of four entries
(models._geometry), and the Gamma ratios (specfun._gamma_ratios) are one
running product, whose prefixes have the bits of shorter products.
"""

import dataclasses
import json

import numpy as np
import pytest

from pennycontact import models
from pennycontact.cli import coefficients_to_json
from pennycontact.models import (
    _MODEL_SCALE,
    AnnulusProblem,
    DiscProblem,
    _annulus_forcings,
    _disc_forcing,
    _geometry,
    _interleave,
    _kept_counts,
    _residual,
    _row_weights,
    solve_annulus_reduction,
    solve_disc_reduction,
    system_residual,
)
from pennycontact.specfun import _gamma_ratios

from oracles import solve_artifact

N = 40
DISC = DiscProblem(lam=0.6, delta_star=0.7)
ANNULUS = AnnulusProblem(lam0=0.3, lam1=0.6, delta_star=0.7)
SOLVES = {
    "disc": (DISC, solve_disc_reduction, "_disc_forcing"),
    "annulus": (ANNULUS, solve_annulus_reduction, "_annulus_forcings"),
}


def _rebuilt_residual(problem, coefficients):
    """system_residual with the forcing built afresh, past its cache."""
    if isinstance(coefficients, models.CoefficientSetDisc):
        lam, t = problem.lam, None
        forcing = _disc_forcing.__wrapped__(problem, coefficients.truncation_N)
    else:
        lam, t = problem.lam1, problem.radius_ratio
        forcing = _annulus_forcings.__wrapped__(problem, coefficients.truncation_N)
    scale = _MODEL_SCALE[: forcing.shape[1]]
    return _residual(lam, t, _interleave(coefficients, len(scale)), forcing, scale)


@pytest.mark.parametrize("model", SOLVES)
def test_one_forcing_build_per_solve_and_its_residual(model):
    problem, solve, builder = SOLVES[model]
    cached = getattr(models, builder)
    cached.cache_clear()
    coefficients = solve(problem, N)
    residual = system_residual(problem, coefficients)
    info = cached.cache_info()
    # one build (a miss) by the solve, which its residual reads (a hit)
    assert (info.misses, info.hits) == (1, 1)
    assert residual == _rebuilt_residual(problem, coefficients)


@pytest.mark.parametrize("model", SOLVES)
def test_another_problem_gets_its_own_forcing(monkeypatch, model):
    problem, solve, builder = SOLVES[model]
    coefficients = solve(problem, N)
    built = getattr(models, builder)
    calls = []
    monkeypatch.setattr(models, builder, lambda p, n: calls.append(p) or built(p, n))
    other = dataclasses.replace(problem, delta_star=0.8)
    residual = system_residual(other, coefficients)
    assert calls == [other]
    monkeypatch.setattr(models, builder, built)
    assert residual == _rebuilt_residual(other, coefficients)
    assert residual > 1e-3


@pytest.mark.parametrize("model", SOLVES)
def test_a_reloaded_or_replaced_result_builds_no_forcing(model):
    problem, solve, builder = SOLVES[model]
    coefficients = solve(problem, N)
    reloaded_problem, reloaded = solve_artifact(
        json.dumps(coefficients_to_json(problem, coefficients))
    )
    cached = getattr(models, builder)
    before = cached.cache_info()
    residuals = [
        system_residual(reloaded_problem, reloaded),
        system_residual(problem, dataclasses.replace(coefficients)),
    ]
    after = cached.cache_info()
    # an equal problem at the same N is the solve's cache entry, however it was made
    assert (after.misses - before.misses, after.hits - before.hits) == (0, 2)
    assert residuals == [_rebuilt_residual(problem, coefficients)] * 2


def test_results_hold_only_their_dataclass_fields():
    disc = solve_disc_reduction(DISC, N)
    annulus = solve_annulus_reduction(ANNULUS, N)
    assert [f.name for f in dataclasses.fields(disc)] == ["A_plus", "B_minus", "truncation_N"]
    assert [f.name for f in dataclasses.fields(annulus)] == [
        "A_plus", "A_minus", "B_plus", "B_minus", "truncation_N",
    ]
    assert list(coefficients_to_json(DISC, disc)) == [
        "model", "lambda", "delta_star", "truncation_N",
        "A_plus", "B_minus", "code_version",
    ]
    assert list(coefficients_to_json(ANNULUS, annulus)) == [
        "model", "lambda0", "lambda1", "delta_star", "truncation_N",
        "A_plus", "A_minus", "B_plus", "B_minus", "code_version",
    ]
    for result in (disc, annulus):
        assert list(vars(result)) == [f.name for f in dataclasses.fields(result)]


def test_geometry_cache_holds_four_read_only_entries():
    assert _geometry.cache_info().maxsize == 4
    for lam, t in ((0.6, None), (0.6, 0.5), (0.01, 0.3)):
        weights, kept = _geometry(lam, t, N)
        assert not weights.flags.writeable
        assert np.array_equal(weights, _row_weights(lam, t, N))
        assert list(kept) == _kept_counts(_row_weights(lam, t, N))


def test_forcing_caches_hold_four_read_only_entries():
    for problem, _, builder in SOLVES.values():
        cached = getattr(models, builder)
        assert cached.cache_info().maxsize == 4
        forcing = cached(problem, N)
        assert not forcing.flags.writeable
        assert np.array_equal(forcing, cached.__wrapped__(problem, N))


def test_a_solve_and_its_residual_build_the_weights_once(monkeypatch):
    built = []
    original = models._row_weights
    monkeypatch.setattr(models, "_row_weights", lambda *args: built.append(args) or original(*args))
    _geometry.cache_clear()
    problem = AnnulusProblem(lam0=0.25, lam1=0.55, delta_star=0.7)
    disc = DiscProblem(lam=0.55, delta_star=0.7)
    system_residual(problem, solve_annulus_reduction(problem, N))
    system_residual(disc, solve_disc_reduction(disc, N))
    assert built == [(0.55, problem.radius_ratio, N), (0.55, None, N)]


@pytest.mark.parametrize("count", [0, 1, 2, 33, 239])
def test_gamma_ratios_are_a_read_only_prefix_of_any_longer_run(count):
    longer = _gamma_ratios(240)
    assert not longer.flags.writeable
    assert np.array_equal(longer[:count], _gamma_ratios(count))
