"""Tests of the benchmark itself; run with ``python3 -m pytest bench``.

They sit outside the package's test suite on purpose: they exercise the
benchmark's checks, counters and output format, not meltfront.
"""

from __future__ import annotations

import csv
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from run import BENCH_DIR, Client, load_meltfront
import checks
import tracing
import workloads

meltfront = load_meltfront()
from meltfront import cli  # noqa: E402

REFERENCE = checks.load_reference()


def _solve(tmp_path: Path, name: str) -> Path:
    table = workloads.write_table(tmp_path / workloads.TABLE_NAME)
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(workloads.solve_config(name, table)))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    return out


def _write_sweep_csv(path: Path, rows: list[dict]) -> None:
    fields = ["case", "coefficients.Pe", "coefficients.alpha", "coefficients.beta", "lambda",
              "outer_residual", "inner_iterations", "front_flux_residual", "certified", "status"]
    with (path / "sweep.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for i, ref in enumerate(rows):
            writer.writerow({
                "case": i, "coefficients.Pe": ref["Pe"], "coefficients.alpha": ref["alpha"],
                "coefficients.beta": ref["beta"], "lambda": ref["lambda"], "outer_residual": 1e-10,
                "inner_iterations": 1, "front_flux_residual": 1e-6, "certified": ref["certified"],
                "status": "ok",
            })


def test_reference_covers_every_operation():
    assert sorted(REFERENCE["solve"]) == sorted(workloads.solve_names())
    assert len(REFERENCE["solve"]) == 11
    assert sorted(REFERENCE["sweep-fine"]) == sorted(workloads.sweep_cases())
    assert len(REFERENCE["sweep-fine"]) == 40
    assert sum(r["certified"] for r in REFERENCE["sweep-fine"].values()) == 7


def test_solve_output_passes_and_injected_wrong_lambda_fails(tmp_path):
    out = _solve(tmp_path, "dirichlet-linear")
    ref = REFERENCE["solve"]["dirichlet-linear"]
    good = checks.check_solve(out, 0, ref, "dirichlet-linear")
    assert (good.attempted, good.failed) == (1, 0)
    assert 1e-8 < good.rel_errors[0] < 1e-6

    report = json.loads((out / "report.json").read_text())
    report["lambda"] += 2e-6
    (out / "report.json").write_text(json.dumps(report))
    bad = checks.check_solve(out, 0, ref, "dirichlet-linear")
    assert bad.failed == 1
    assert any("off the reference" in reason for _, reason in bad.failures)


def test_flipped_certificate_and_exit_code_fail(tmp_path):
    out = _solve(tmp_path, "dirichlet-constant")
    ref = dict(REFERENCE["solve"]["dirichlet-constant"])
    assert checks.check_solve(out, 2, ref, "x").failed == 1
    ref["certified"] = not ref["certified"]
    assert checks.check_solve(out, 0, ref, "x").failed == 1


def test_reordered_sweep_csv_passes(tmp_path):
    rows = list(REFERENCE["sweep-fine"].values())
    random.Random(3).shuffle(rows)
    _write_sweep_csv(tmp_path, rows)
    checked = checks.check_sweep(tmp_path, 0, REFERENCE["sweep-fine"])
    assert (checked.attempted, checked.failed) == (40, 0)


def test_missing_duplicated_and_wrong_sweep_rows_fail(tmp_path):
    rows = list(REFERENCE["sweep-fine"].values())
    wrong = dict(rows[5], **{"lambda": rows[5]["lambda"] + 1e-5})
    _write_sweep_csv(tmp_path, rows[1:5] + [wrong] + rows[6:] + [rows[7]])
    checked = checks.check_sweep(tmp_path, 2, REFERENCE["sweep-fine"])
    assert checked.failed == 3  # row 0 missing, row 5 wrong, row 7 twice
    assert checks.check_sweep(tmp_path / "absent", 3, REFERENCE["sweep-fine"]).failed == 40


def test_exception_escaping_the_cli_is_a_failed_operation(tmp_path):
    class Broken:
        @staticmethod
        def main(argv):
            raise ValueError("could not convert string to float: 'np.float64(0.5)'")

    client = Client(Broken, REFERENCE, tmp_path / "ops")
    client.configs = workloads.write_inputs(tmp_path / "inputs", "solve", random.Random(0))
    client.run("dirichlet-table")
    assert (client.attempted, client.failed) == (1, 1)
    assert "ValueError" in client.failures[0]


def _traced_counts(run) -> dict:
    with tracing.Tracer() as tracer:
        tracer.new_pass()
        run()
        return {**tracer.calls, **tracer.counts}


def test_counters_repeat_exactly(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(workloads.solve_config("dirichlet-linear", Path())))

    def solve():
        assert cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "o1"), "--quiet"]) == 0

    first, second = _traced_counts(solve), _traced_counts(solve)
    assert first == second
    assert first["lambda_solver.outer_steps"] == 30
    assert first["kernels.eval_kernels"] == 124
    # wrappers are removed again
    assert cli.solve_lambda is meltfront.lambda_solver.solve_lambda


def test_pde_steps_counter(tmp_path):
    config = tmp_path / "v.json"
    config.write_text(json.dumps(workloads.VERIFY_CONFIG))
    counts = _traced_counts(
        lambda: cli.main(["verify-pde", "--config", str(config), "--out", str(tmp_path / "v"), "--quiet"])
    )
    assert counts["pde_verifier.steps"] == 80195


def test_cross_thread_child_time_is_not_self_time():
    assert tracing._covered_ns([(0, 10), (5, 20), (30, 40)]) == 30


def _bench(*args: str) -> dict:
    done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_matches_benchmark_json(trace):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    result = _bench("--workload", "solve", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_per_layer_counters_are_identical_across_seeds():
    counters = [name for name, unit in tracing.PER_LAYER if unit == "count"]
    a, b = (_bench("--workload", "solve", "--seed", seed, "--seconds", "1", "--trace", "1") for seed in "12")
    assert {n: a["metrics"][n]["value"] for n in counters} == {n: b["metrics"][n]["value"] for n in counters}
