import copy
import csv
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

from meltfront import ConvergenceError, cli, dirichlet_constant, existence, pde_verifier
from meltfront.cli import main


def write_config(path, **overrides):
    cfg = {
        "bc": {"kind": "dirichlet", "T_star": 2.0},
        "coefficients": {"family": "constant", "Pe": 0.0},
        "reference": {"k0": 1.0, "rho0": 1.0, "c0": 1.0, "ell": 1.0, "T_m": 1.0},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_solve_matches_oracle(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["lambda"] - dirichlet_constant(1.0, 0.0).lam) <= 1e-6
    assert report["existence"]["certified"] is True
    profile = (out / "profile.csv").read_text().splitlines()
    assert profile[0] == "xi,f"
    assert (out / "field.csv").read_text().splitlines()[0] == "x,t,T"
    assert (out / "front.csv").read_text().splitlines()[0] == "t,s"
    assert (out / "run_meta.json").exists()


def test_solve_reports_are_deterministic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_certify_failing_flag_still_exits_zero(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        coefficients={"family": "linear", "alpha": 0.0, "beta": 0.5, "Pe": 0.1},
    )
    out = tmp_path / "out"
    assert main(["certify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    cert = json.loads((out / "existence.json").read_text())
    assert cert["certified"] is False
    assert cert["hypothesis_flags"]["extra_contraction"] == "fails"


def test_invalid_configs_exit_3(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["solve", "--config", str(empty), "--quiet"]) == 3
    missing = tmp_path / "missing.json"
    assert main(["solve", "--config", str(missing), "--quiet"]) == 3
    unknown = write_config(tmp_path / "unknown.json")
    cfg = json.loads(unknown.read_text())
    cfg["typo_block"] = {}
    unknown.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(unknown), "--quiet"]) == 3
    small_grid = write_config(tmp_path / "grid.json", numerics={"n": 8})
    assert main(["solve", "--config", str(small_grid), "--quiet"]) == 3


RADIATIVE = {"kind": "radiative", "h": 0.1, "sigma": 1.0, "epsilon": 0.25}
NAN, INF = float("nan"), float("inf")

# (id, command, config overrides, text the error must contain): each must
# exit 3 with a message naming the value, never with a traceback, and
# leave no result file behind
UNREADABLE_CONFIGS = [
    ("bc-not-object", "solve", {"bc": "dirichlet"}, "bc must be a JSON object"),
    ("T_star-text", "solve", {"bc": {"kind": "dirichlet", "T_star": "hot"}}, "bc.T_star must be a finite number"),
    ("T_star-null", "solve", {"bc": {"kind": "dirichlet", "T_star": None}}, "bc.T_star must be a finite number"),
    ("T_star-missing", "solve", {"bc": {"kind": "dirichlet"}}, "missing key bc.T_star"),
    ("n-text", "solve", {"numerics": {"n": "big"}}, "numerics.n must be a finite integer"),
    ("outer_tol-nan", "solve", {"numerics": {"outer_tol": NAN}}, "numerics.outer_tol must be a finite number"),
    ("lambda_max-inf", "solve", {"numerics": {"lambda_max": INF}}, "numerics.lambda_max must be a finite number"),
    ("times-text", "solve", {"outputs": {"times": ["x"]}}, "outputs.times must be a list of finite numbers"),
    ("times-number", "solve", {"outputs": {"times": 1.0}}, "outputs.times must be a list of finite numbers"),
    ("times-negative", "solve", {"outputs": {"times": [1.0, -1.0]}}, "outputs.times must all be positive"),
    ("nx-negative", "solve", {"outputs": {"nx": -1}}, "nx must be non-negative"),
    # s(t) = 2 lambda sqrt(alpha0 t) would be inf, or 0 with xi = 0/0 along the field
    (
        "times-alpha0-t-overflow",
        "solve",
        {"outputs": {"times": [1e308]}, "reference": {"k0": 10.0, "rho0": 1.0, "c0": 1.0, "ell": 1.0, "T_m": 1.0}},
        "outputs.times must all be positive with finite, non-zero alpha0*t (alpha0 = 10.0), got [1e+308]",
    ),
    (
        "times-alpha0-t-underflow",
        "solve",
        {"outputs": {"times": [1.0, 5e-324]}, "reference": {"k0": 0.1, "rho0": 1.0, "c0": 1.0, "ell": 1.0, "T_m": 1.0}},
        "outputs.times must all be positive with finite, non-zero alpha0*t (alpha0 = 0.1), got [1.0, 5e-324]",
    ),
    # the PDE march starts from s(t0) and the similarity field at t0 and t1
    (
        "pde-t0-alpha0-t-overflow",
        "verify-pde",
        {"pde": {"t0": 1e308, "t1": 1e308}, "reference": {"k0": 10.0, "rho0": 1.0, "c0": 1.0, "ell": 1.0, "T_m": 1.0}},
        "pde.t0 must be positive with finite, non-zero alpha0*t (alpha0 = 10.0), got 1e+308",
    ),
    (
        "pde-t1-alpha0-t-overflow",
        "verify-pde",
        {"pde": {"t0": 1.0, "t1": 1e308}, "reference": {"k0": 10.0, "rho0": 1.0, "c0": 1.0, "ell": 1.0, "T_m": 1.0}},
        "pde.t1 must be positive with finite, non-zero alpha0*t (alpha0 = 10.0), got 1e+308",
    ),
    (
        "pde-t0-alpha0-t-underflow",
        "verify-pde",
        {"pde": {"t0": 5e-324, "t1": 1.0}, "reference": {"k0": 0.1, "rho0": 1.0, "c0": 1.0, "ell": 1.0, "T_m": 1.0}},
        "pde.t0 must be positive with finite, non-zero alpha0*t (alpha0 = 0.1), got 5e-324",
    ),
    # an int is never truncated from a float, and a JSON boolean is not a number
    ("n-fraction", "solve", {"numerics": {"n": 64.7}}, "numerics.n must be a finite integer, got 64.7"),
    ("nx-fraction", "solve", {"outputs": {"nx": 3.9}}, "outputs.nx must be a finite integer, got 3.9"),
    ("n-text-fraction", "solve", {"numerics": {"n": "64.7"}}, "numerics.n must be a finite integer, got '64.7'"),
    ("nx-text-fraction", "solve", {"outputs": {"nx": "3.5"}}, "outputs.nx must be a finite integer, got '3.5'"),
    ("n-text-inf", "solve", {"numerics": {"n": "inf"}}, "numerics.n must be a finite integer, got 'inf'"),
    ("n-true", "solve", {"numerics": {"n": True}}, "numerics.n must be a finite integer, got True"),
    ("nodes-fraction", "verify-pde", {"pde": {"nodes": 40.5}}, "pde.nodes must be a finite integer, got 40.5"),
    ("Pe-true", "solve", {"coefficients": {"family": "constant", "Pe": True}}, "coefficients.Pe must be a finite number, got True"),
    ("T_star-false", "solve", {"bc": {"kind": "dirichlet", "T_star": False}}, "bc.T_star must be a finite number, got False"),
    ("times-true", "solve", {"outputs": {"times": [1.0, True]}}, "outputs.times must be a list of finite numbers, got [1.0, True]"),
    # sizes above MAX_NODES = 2**20 would ask for arrays of that many nodes
    ("n-1e300", "solve", {"numerics": {"n": 1e300}}, "grid must have at most 1048576 intervals"),
    ("nodes-1e300", "verify-pde", {"pde": {"nodes": 1e300}}, "need at most 1048576 space intervals"),
    ("nx-1e300", "solve", {"outputs": {"nx": 1e300}}, "outputs.nx must be at most 1048576"),
    ("nx-1e9", "solve", {"outputs": {"nx": 1e9}}, "outputs.nx must be at most 1048576, got 1000000000"),
    ("Pe-text", "solve", {"coefficients": {"family": "constant", "Pe": "x"}}, "coefficients.Pe must be a finite"),
    ("coefficients-list", "solve", {"coefficients": []}, "coefficients must be a JSON object"),
    ("table-missing", "solve", {"coefficients": {"family": "table", "path": "no.csv"}}, "no.csv does not exist"),
    ("table-directory", "solve", {"coefficients": {"family": "table", "path": "."}}, "is not a file"),
    ("radiative-T_star-1e80", "solve", {"bc": dict(RADIATIVE, T_star=1e80)}, "T_star^4"),
    ("radiative-T_star-1e200", "solve", {"bc": dict(RADIATIVE, T_star=1e200)}, "T_star^4"),
    ("nodes-text", "verify-pde", {"pde": {"nodes": "x"}}, "pde.nodes must be a finite integer"),
    ("pde-safety", "verify-pde", {"pde": {"safety": 0.4}}, "unknown key(s) ['safety'] in pde block"),
    ("pde-dt", "verify-pde", {"pde": {"dt": 1e-4}}, "unknown key(s) ['dt'] in pde block"),
    ("pde-sample_every", "verify-pde", {"pde": {"sample_every": 16}}, "unknown key(s) ['sample_every'] in pde block"),
    ("numerics-scan_points", "solve", {"numerics": {"scan_points": 128}}, "unknown key(s) ['scan_points'] in numerics"),
    ("pde-n_space", "verify-pde", {"pde": {"n_space": 40}}, "unknown key(s) ['n_space'] in pde block"),
    # the lowest search point, lambda_max * 1e-17, would underflow to 0
    (
        "lambda_max-5e-324",
        "solve",
        {
            "bc": dict(RADIATIVE, T_star=2.0),
            "coefficients": {"family": "linear", "alpha": 0.1, "beta": 0.1, "Pe": 0.5},
            "numerics": {"lambda_max": 5e-324},
        },
        "lambda_max must be finite and at least 1e-290, got 5e-324",
    ),
    ("lambda_max-1e-310", "certify", {"numerics": {"lambda_max": 1e-310}}, "lambda_max must be finite and at least"),
    (
        "radiative-r-divisor-underflow",
        "certify",
        {"bc": dict(RADIATIVE, T_star=1.5), "reference": {"k0": 5e-324, "rho0": 1.0, "c0": 1.0, "ell": 1.0, "T_m": 1.0}},
        "r divisor k0*(T_star-T_m) underflows",
    ),
]


@pytest.mark.parametrize(
    "command, overrides, message",
    [pytest.param(*case[1:], id=case[0]) for case in UNREADABLE_CONFIGS],
)
def test_unreadable_config_values_exit_3(tmp_path, monkeypatch, capsys, command, overrides, message):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error [config]: ") and message in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("k0", [1.0, 1e10, 1e300])
@pytest.mark.parametrize("t0", [5e-324, 1e-320, 1e-310, 3e-308])
def test_a_subnormal_pde_t0_is_a_config_error(tmp_path, capsys, t0, k0):
    # 0 < alpha0*t0 < inf holds for each, but from a subnormal t0 the first
    # step dt = dy * t0 rounds to 0 or a few ulps and the march formed 0/0
    reference = {"k0": k0, "rho0": 1.0, "c0": 1.0, "ell": 1.0, "T_m": 1.0}
    cfg = write_config(tmp_path / "cfg.json", reference=reference, pde={"nodes": 40, "t0": t0, "t1": 6e-308})
    out = tmp_path / "out"
    rc = main(["verify-pde", "--config", str(cfg), "--out", str(out), "--quiet"])
    if t0 >= sys.float_info.min:
        assert rc == 0 and (out / "verify.json").exists()
        return
    assert rc == 3
    assert f"(t0 a normal float), got t0={t0}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "n, nx",
    [(64.0, 3.0), ("64.0", "3.0"), ("64", "3"), ("6.4e1", "3e0")],
    ids=["numbers", "decimal-strings", "integer-strings", "exponent-strings"],
)
def test_integral_floats_are_read_as_integers(tmp_path, n, nx):
    cfg = write_config(tmp_path / "cfg.json", numerics={"n": n}, outputs={"times": [1.0], "nx": nx})
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert len((out / "profile.csv").read_text().splitlines()) == 1 + 65
    assert len((out / "field.csv").read_text().splitlines()) == 1 + 3


LINEAR = {"family": "linear", "alpha": 0.1, "beta": 0.1, "Pe": 0.5}
# base configs whose numeric bc, coefficients and reference keys are perturbed one at a time
EXTREME_BASES = {
    "dirichlet-linear": {"bc": {"kind": "dirichlet", "T_star": 2.0}, "coefficients": LINEAR},
    "neumann-constant": {"bc": {"kind": "neumann", "q": 0.5}, "coefficients": {"family": "constant", "Pe": 0.5}},
    "robin-linear": {"bc": {"kind": "robin", "h": 0.7, "T_star": 2.0}, "coefficients": LINEAR},
    "radiative-linear": {"bc": dict(RADIATIVE, h=0.05, sigma=0.05, epsilon=0.05, T_star=2.0), "coefficients": LINEAR},
}
EXTREME_REFERENCE = {"k0": 1.0, "rho0": 1.0, "c0": 1.0, "ell": 1.0, "T_m": 1.0}
EXTREME_KEYS = [
    (base, block, key)
    for base, cfg in EXTREME_BASES.items()
    for block, keys in (("bc", cfg["bc"]), ("coefficients", cfg["coefficients"]), ("reference", EXTREME_REFERENCE))
    for key, value in keys.items()
    if isinstance(value, float)
]


@pytest.mark.parametrize("value", [0.0, -1.0, 5e-324, 1e-300, 1e-12, 1e12, 1e300])
@pytest.mark.parametrize("base, block, key", EXTREME_KEYS, ids=[f"{b}-{k}" for b, _, k in EXTREME_KEYS])
def test_extreme_finite_values_end_in_an_exit_code(tmp_path, base, block, key, value):
    cfg = copy.deepcopy(EXTREME_BASES[base])
    cfg["reference"] = dict(EXTREME_REFERENCE)
    cfg[block][key] = value
    path = write_config(tmp_path / "cfg.json", **cfg)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out"), "--grid", "32", "--quiet"]) in (
        0, 2, 3, 4,
    )


# pairs of reference constants whose products or quotients underflow or overflow
REFERENCE_PAIRS = [
    (base, key_a, key_b)
    for base in ("dirichlet-linear", "neumann-constant", "robin-linear")
    for key_a, key_b in itertools.combinations(EXTREME_REFERENCE, 2)
]


@pytest.mark.parametrize("value_a, value_b", list(itertools.product([5e-324, 1e-300, 1e300], repeat=2)))
@pytest.mark.parametrize("base, key_a, key_b", REFERENCE_PAIRS, ids=["-".join(case) for case in REFERENCE_PAIRS])
def test_extreme_reference_pairs_end_in_an_exit_code(tmp_path, base, key_a, key_b, value_a, value_b):
    cfg = copy.deepcopy(EXTREME_BASES[base])
    cfg["reference"] = dict(EXTREME_REFERENCE, **{key_a: value_a, key_b: value_b})
    path = write_config(tmp_path / "cfg.json", **cfg)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out"), "--grid", "32", "--quiet"]) in (
        0, 2, 3, 4,
    )


def test_sweep_value_that_cannot_be_read_becomes_an_error_row(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", sweep={"coefficients.Pe": [0.5, "x"]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] == "error: coefficients.Pe must be a finite number, got 'x'"


TABLE_HEADER = "T,k,rho_c,mu\n"
GOOD_ROWS = "0.5,1.0,1.0,0.3\n1.0,1.0,1.0,0.3\n"


@pytest.mark.parametrize(
    "rows",
    [
        GOOD_ROWS + "np.float64(2.0),1.0,1.0,0.3\n",  # a numpy repr instead of a number
        GOOD_ROWS + "2.0,1.0,1.0\n",  # a missing cell
        GOOD_ROWS + "2.0,1.0,1.0,0.3,7.0\n",  # an extra cell
    ],
    ids=["non-numeric", "short-row", "long-row"],
)
def test_malformed_coefficient_tables_exit_3(tmp_path, rows, capsys):
    table = tmp_path / "table.csv"
    table.write_text(TABLE_HEADER + rows)
    cfg = write_config(tmp_path / "cfg.json", coefficients={"family": "table", "path": str(table)})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert f"{table} line 4" in capsys.readouterr().err


def test_neumann_table_solves_inside_its_sandwich(tmp_path):
    # rho_c doubles over the table while k stays 1: the Neumann sandwich needs N_m and N_M in their places
    table = tmp_path / "table.csv"
    table.write_text(TABLE_HEADER + "0.5,1,1,0\n1,1,1,0\n2,1,2,0\n3,1,2,0\n")
    cfg = write_config(
        tmp_path / "cfg.json", bc={"kind": "neumann", "q": 0.5}, coefficients={"family": "table", "path": str(table)}
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0


def test_certify_with_overflowing_contraction_bound_exits_0(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", coefficients=dict(LINEAR, Pe=400.0))
    out = tmp_path / "out"
    assert main(["certify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    cert = json.loads((out / "existence.json").read_text())
    assert cert["certified"] is False
    assert "overflows" in cert["lambda_bar_note"]


def test_oracle_commands(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", coefficients={"family": "constant", "Pe": 0.5})
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    payload = json.loads((out / "oracle.json").read_text())
    assert payload["bc_kind"] == "dirichlet"
    assert payload["unique"] is True
    ncfg = write_config(
        tmp_path / "ncfg.json",
        bc={"kind": "neumann", "q": 0.5},
        coefficients={"family": "constant", "Pe": 0.0},
    )
    assert main(["oracle", "--config", str(ncfg), "--out", str(out), "--quiet"]) == 0
    npayload = json.loads((out / "oracle.json").read_text())
    assert npayload["load"] == pytest.approx(0.5)
    assert npayload["lambda"] == pytest.approx(0.419364824019131, abs=1e-10)
    # no closed form for Robin
    rcfg = write_config(tmp_path / "rcfg.json", bc={"kind": "robin", "h": 1.0, "T_star": 2.0})
    assert main(["oracle", "--config", str(rcfg), "--out", str(out), "--quiet"]) == 3


def test_neumann_oracle_past_exp_pe_squared_overflow(tmp_path):
    # load 5e-7 at Pe = 30: exp(Pe^2) overflows, the profile does not
    cfg = write_config(
        tmp_path / "cfg.json",
        bc={"kind": "neumann", "q": 0.5},
        coefficients={"family": "constant", "Pe": 30.0},
        reference={"k0": 1.0, "rho0": 1.0, "c0": 1.0, "ell": 1e6, "T_m": 1.0},
    )
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    rows = list(csv.reader((out / "oracle_profile.csv").open()))
    f = [float(v) for _, v in rows[1:]]
    assert all(map(math.isfinite, f))
    assert f[0] == pytest.approx(5.0002e-7, rel=1e-4)
    assert f[-1] == 0.0


def test_sweep_runs_all_tuples(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        sweep={"reference.ell": [0.5, 1.0, 2.0], "coefficients.Pe": [0.0, 0.5]},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "3", "--quiet"]) == 0
    serial = tmp_path / "serial"
    assert main(["sweep", "--config", str(cfg), "--out", str(serial), "--workers", "1", "--quiet"]) == 0
    # rows come out in case order whatever the number of workers
    assert (out / "sweep.csv").read_bytes() == (serial / "sweep.csv").read_bytes()
    rows = (out / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == [str(i) for i in range(6)]
    assert rows[0].startswith("case,")
    assert len(rows) == 1 + 6
    lambdas = {}
    for row in rows[1:]:
        cells = row.split(",")
        lambdas[(cells[1], cells[2])] = float(cells[3])
    # lambda grows with Ste = 1/ell at fixed Pe
    assert lambdas[("0.0", "0.5")] > lambdas[("0.0", "1.0")] > lambdas[("0.0", "2.0")]


def test_sweep_cases_run_on_the_main_thread(tmp_path, monkeypatch):
    threads = []
    solve_lambda = cli.solve_lambda

    def recording(*args):
        threads.append(threading.current_thread())
        return solve_lambda(*args)

    monkeypatch.setattr(cli, "solve_lambda", recording)
    cfg = write_config(tmp_path / "cfg.json", sweep={"coefficients.Pe": [0.0, 0.5, 1.0]})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "--workers", "3", "--quiet"]) == 0
    assert threads == [threading.main_thread()] * 3


def test_sweep_unknown_parameter_exits_3(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", sweep={"reference.bogus": [1.0]})
    assert main(["sweep", "--config", str(cfg), "--quiet"]) == 3


def test_verify_pde_quick_run(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        reference={"k0": 1.0, "rho0": 1.0, "c0": 1.0, "ell": 2.0, "T_m": 1.0},
        pde={"nodes": 40, "t0": 1.0, "t1": 1.02},
    )
    out = tmp_path / "out"
    assert main(["verify-pde", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["discrepancy"]["s_rel_max"] <= 5e-3
    assert payload["discrepancy"]["steps"] > 0


def test_verify_pde_without_pde_block_uses_the_scheme_defaults(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", reference={"k0": 1.0, "rho0": 1.0, "c0": 1.0, "ell": 2.0, "T_m": 1.0})
    out = tmp_path / "out"
    assert main(["verify-pde", "--config", str(cfg), "--out", str(out), "--grid", "64", "--quiet"]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["scheme"] == {"nodes": 200, "t0": 1.0, "t1": 2.0}


def test_grid_override(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--grid", "64", "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["grid_n"] == 64
    profile = (out / "profile.csv").read_text().splitlines()
    assert len(profile) == 1 + 65


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    coarse, default = tmp_path / "coarse", tmp_path / "default"
    assert main(["solve", "--config", str(cfg), "--out", str(coarse), "--grid", "64", "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["solve", "--config", str(cfg), "--out", str(default)]) == 0
    assert "lambda =" in capsys.readouterr().out
    assert cli.build_parser() is cli.build_parser()
    assert json.loads((coarse / "report.json").read_text())["grid_n"] == 64
    assert json.loads((default / "report.json").read_text())["grid_n"] == 512


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter that imports meltfront from this source tree; return its stdout."""
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    return done.stdout.strip()


LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"


@pytest.mark.parametrize("module", ["meltfront", "meltfront.cli"])
def test_importing_meltfront_loads_no_scipy(module):
    assert run_fresh(f"import sys, {module}; {LOADED_SCIPY}") == "[]"


def test_solve_loads_no_scipy(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text(TABLE_HEADER + "0.5,1.0,1.0,0.2\n1.0,1.1,0.9,0.3\n2.0,1.3,1.0,0.4\n")
    dirichlet = write_config(tmp_path / "dirichlet.json",
                             coefficients={"family": "linear", "alpha": 0.1, "beta": 0.1, "Pe": 0.5})
    robin = write_config(tmp_path / "robin.json", bc={"kind": "robin", "h": 0.7, "T_star": 2.0},
                         coefficients={"family": "table", "path": str(table)})
    code = ("import sys; from meltfront.cli import main\n"
            "for cfg, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
            "    assert main(['solve', '--config', cfg, '--out', out, '--quiet']) == 0\n"
            + LOADED_SCIPY)
    assert run_fresh(code, dirichlet, tmp_path / "d", robin, tmp_path / "r") == "[]"


@pytest.mark.parametrize("command, output", [("oracle", "oracle.json"), ("verify-pde", "verify.json")])
def test_commands_that_need_scipy_import_it_when_run(tmp_path, command, output):
    cfg = write_config(tmp_path / "cfg.json", pde={"nodes": 40, "t0": 1.0, "t1": 1.2})
    code = ("import sys; from meltfront.cli import main\n"
            "print(main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3], '--grid', '64', '--quiet']))")
    assert run_fresh(code, command, cfg, tmp_path / "out") == "0"
    assert (tmp_path / "out" / output).exists()


def test_singular_pde_step_exits_2(tmp_path, monkeypatch, capsys):
    # LAPACK reports a zero pivot through info > 0
    monkeypatch.setattr(pde_verifier, "dgtsv", lambda dl, d, du, b, **kwargs: (dl, d, du, b, 1))
    cfg = write_config(tmp_path / "cfg.json", pde={"nodes": 40, "t0": 1.0, "t1": 1.2})
    assert main(["verify-pde", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert "unstable at step 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "verify.json").exists()


# hypotheses hold (small Stefan number keeps the bracket inside the
# contraction region) but the iteration budget is too small: exit 2
STARVED = {
    "coefficients": {"family": "linear", "alpha": 0.0, "beta": 0.3, "Pe": 0.05},
    "reference": {"k0": 1.0, "rho0": 1.0, "c0": 1.0, "ell": 500.0, "T_m": 1.0},
    "numerics": {"max_iter": 1},
}
# zero-exchange radiative condition: no front equation root, hypotheses fail: exit 4
VOID = {"bc": {"kind": "radiative", "h": 0.0, "sigma": 1.0, "epsilon": 0.0, "T_star": 2.0}, "numerics": {"n": 64}}


def test_nonconvergence_exit_codes(tmp_path):
    starved = write_config(tmp_path / "starved.json", **STARVED)
    assert main(["solve", "--config", str(starved), "--quiet"]) == 2
    void = write_config(tmp_path / "void.json", **VOID)
    assert main(["solve", "--config", str(void), "--quiet"]) == 4


# the fallback bracket starts at 1e-6, or where the V2 scan starts when lambda_max is below that
@pytest.mark.parametrize("lambda_max", [1e-20, 1e-7, 5e-7])
def test_lambda_max_below_the_fallback_start_fails_the_bracket(tmp_path, capsys, lambda_max):
    # Pe > 0 puts the root lambda1 of V1 above 1e-6
    cfg = write_config(
        tmp_path / "cfg.json", coefficients={"family": "constant", "Pe": 0.5}, numerics={"lambda_max": lambda_max}
    )
    out = tmp_path / "out"
    assert main(["certify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "existence.json").read_text())["hypothesis_flags"]["analytic_bracket"] == "fails"
    for command in ("solve", "verify-pde"):
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 4
        assert "no sign change over the fallback bracket" in capsys.readouterr().err


def count_certify(monkeypatch) -> list:
    """Count the certify calls of the package, at both bindings callers use."""
    calls = []
    certify = existence.certify

    def counting(*args):
        calls.append(args)
        return certify(*args)

    monkeypatch.setattr(existence, "certify", counting)
    monkeypatch.setattr(cli, "certify", counting)
    return calls


@pytest.mark.parametrize("command", ["solve", "verify-pde"])
@pytest.mark.parametrize("overrides, code", [(STARVED, 2), (VOID, 4)], ids=["starved", "void"])
def test_failed_solve_certifies_once(tmp_path, monkeypatch, command, overrides, code):
    calls = count_certify(monkeypatch)
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == code
    assert len(calls) == 1


@pytest.mark.parametrize(
    "coefficients, code",
    [({"family": "constant", "Pe": 0.0}, 2), ({"family": "linear", "alpha": 0.0, "beta": 0.5, "Pe": 0.1}, 4)],
    ids=["certified", "uncertified"],
)
def test_verify_pde_failure_after_the_solve_reads_its_certificate(tmp_path, monkeypatch, coefficients, code):
    calls = count_certify(monkeypatch)

    def unstable(*args):
        raise ConvergenceError("front-fixed scheme unstable")

    monkeypatch.setattr(cli, "verify", unstable)
    cfg = write_config(tmp_path / "cfg.json", coefficients=coefficients)
    assert main(["verify-pde", "--config", str(cfg), "--out", str(tmp_path / "out"), "--grid", "64", "--quiet"]) == code
    assert len(calls) == 1


def test_verify_pde_blow_up_prints_only_its_error_line(tmp_path, capsys):
    # a melting temperature near the float maximum overflows the march at its first step;
    # any numpy floating-point warning on the way is raised here instead of printed
    cfg = write_config(
        tmp_path / "cfg.json",
        bc={"kind": "neumann", "q": 0.5},
        coefficients={"family": "constant", "Pe": 0.5},
        reference={"k0": 1.0, "rho0": 1.0, "c0": 1.0, "ell": 1.0, "T_m": 1.5e308},
    )
    argv = ["verify-pde", "--config", str(cfg), "--out", str(tmp_path / "out"), "--grid", "32", "--quiet"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error [verify-pde]: front-fixed scheme unstable at step 1 "), lines
