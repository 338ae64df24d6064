"""The benchmark's pinned ``certified`` flags match what the package certifies.

``bench/reference.json`` pins the flag of each ``solve`` config and each
``sweep-fine`` case that ``bench/workloads.py`` builds; a change that flips
one would otherwise only show when the benchmark runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from meltfront import certify
from meltfront.cli import build_problem

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
REFERENCE = json.loads((BENCH / "reference.json").read_text())
PINNED = REFERENCE["solve"]


@pytest.mark.parametrize("name", WORKLOADS.solve_names())
def test_bench_solve_config_certified_flag_matches_the_reference(tmp_path, name):
    table = WORKLOADS.write_table(tmp_path / WORKLOADS.TABLE_NAME)
    problem = build_problem(WORKLOADS.solve_config(name, table))
    assert certify(problem.prob, problem.settings).certified is PINNED[name]["certified"]


def test_bench_sweep_cases_certified_flags_match_the_reference():
    base = WORKLOADS.sweep_config()
    del base["sweep"]
    flags = {}
    for row in REFERENCE["sweep-fine"]:
        for name in ("alpha", "beta", "Pe"):
            base["coefficients"][name] = row[name]
        problem = build_problem(base, WORKLOADS.SWEEP_GRID)
        flags[WORKLOADS.sweep_key(row["alpha"], row["beta"], row["Pe"])] = certify(problem.prob, problem.settings).certified
    assert sorted(flags) == sorted(WORKLOADS.sweep_cases())
    assert flags == {WORKLOADS.sweep_key(r["alpha"], r["beta"], r["Pe"]): r["certified"] for r in REFERENCE["sweep-fine"]}
