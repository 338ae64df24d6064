import copy
import csv
import json

import pytest

from meltfront import dirichlet_constant
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


def test_grid_override(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--grid", "64", "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["grid_n"] == 64
    profile = (out / "profile.csv").read_text().splitlines()
    assert len(profile) == 1 + 65


def test_nonconvergence_exit_codes(tmp_path):
    # hypotheses hold (small Stefan number keeps the bracket inside the
    # contraction region) but the iteration budget is too small: exit 2
    starved = write_config(
        tmp_path / "starved.json",
        coefficients={"family": "linear", "alpha": 0.0, "beta": 0.3, "Pe": 0.05},
        reference={"k0": 1.0, "rho0": 1.0, "c0": 1.0, "ell": 500.0, "T_m": 1.0},
        numerics={"max_iter": 1},
    )
    assert main(["solve", "--config", str(starved), "--quiet"]) == 2
    # zero-exchange radiative condition: no front equation root, hypotheses fail: exit 4
    void = write_config(
        tmp_path / "void.json",
        bc={"kind": "radiative", "h": 0.0, "sigma": 1.0, "epsilon": 0.0, "T_star": 2.0},
        numerics={"n": 64},
    )
    assert main(["solve", "--config", str(void), "--quiet"]) == 4
