"""The benchmark's pinned ``certified`` flags match what the package certifies.

``bench/reference.json`` pins the flag of each ``solve`` config that
``bench/workloads.py`` builds; a change that flips one would otherwise only
show when the benchmark runs.
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
PINNED = json.loads((BENCH / "reference.json").read_text())["solve"]


@pytest.mark.parametrize("name", WORKLOADS.solve_names())
def test_bench_solve_config_certified_flag_matches_the_reference(tmp_path, name):
    table = WORKLOADS.write_table(tmp_path / WORKLOADS.TABLE_NAME)
    problem = build_problem(WORKLOADS.solve_config(name, table))
    assert certify(problem.prob, problem.settings).certified is PINNED[name]["certified"]
