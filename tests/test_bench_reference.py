"""The benchmark's pinned data matches what the package computes.

``bench/reference.json`` pins the flag of each ``solve`` config and each
``sweep-fine`` case that ``bench/workloads.py`` builds, and the lambda of
each sweep case; a change that flips a flag, or loses accuracy on the
fine sweep grid, would otherwise only show when the benchmark runs.
"""

import json

import pytest

from meltfront import DEFAULT_GRID_N, certify, solve_lambda
from meltfront.cli import build_problem

from conftest import BENCH, bench_workloads, full_bracket_lambda

WORKLOADS = bench_workloads()
REFERENCE = json.loads((BENCH / "reference.json").read_text())
PINNED = REFERENCE["solve"]


@pytest.mark.parametrize("name", WORKLOADS.solve_names())
def test_bench_solve_config_certified_flag_matches_the_reference(tmp_path, name):
    table = WORKLOADS.write_table(tmp_path / WORKLOADS.TABLE_NAME)
    problem = build_problem(WORKLOADS.solve_config(name, table))
    assert certify(problem.prob, problem.settings).certified is PINNED[name]["certified"]


def _sweep_problems():
    base = WORKLOADS.sweep_config()
    del base["sweep"]
    for row in REFERENCE["sweep-fine"]:
        for name in ("alpha", "beta", "Pe"):
            base["coefficients"][name] = row[name]
        yield row, build_problem(base, WORKLOADS.SWEEP_GRID)


def test_bench_sweep_cases_certified_flags_match_the_reference():
    flags = {}
    for row, problem in _sweep_problems():
        flags[WORKLOADS.sweep_key(row["alpha"], row["beta"], row["Pe"])] = certify(problem.prob, problem.settings).certified
    assert sorted(flags) == sorted(WORKLOADS.sweep_cases())
    assert flags == {WORKLOADS.sweep_key(r["alpha"], r["beta"], r["Pe"]): r["certified"] for r in REFERENCE["sweep-fine"]}


def test_bench_sweep_cases_at_the_fine_grid_stay_within_the_reference_error():
    # the bracketed search on the fine grid itself came within 1.5077e-10 of
    # every reference lambda; solving from the default-grid root must not lose that
    errors = []
    for row, problem in _sweep_problems():
        settings = problem.settings
        report = solve_lambda(problem.prob, settings)
        errors.append(abs(report.lambda_tilde - row["lambda"]) / abs(row["lambda"]))
        assert report.outer_residual <= settings.outer_tol * (DEFAULT_GRID_N / settings.n) ** 2
    assert len(errors) == 40 and max(errors) <= 1.51e-10


@pytest.mark.parametrize("name", WORKLOADS.solve_names())
def test_bench_solve_config_at_4096_agrees_with_the_bracketed_search(tmp_path, name):
    table = WORKLOADS.write_table(tmp_path / WORKLOADS.TABLE_NAME)
    problem = build_problem(WORKLOADS.solve_config(name, table), 4096)
    lam = solve_lambda(problem.prob, problem.settings).lambda_tilde
    assert lam == pytest.approx(full_bracket_lambda(problem.prob, problem.settings), rel=1e-10, abs=0.0)
