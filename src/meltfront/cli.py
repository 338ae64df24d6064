"""Batch front-end: JSON config in, JSON/CSV results out.

Commands
--------
solve       front coefficient + profile + field/front CSVs
certify     existence certificate only
oracle      constant-coefficient closed form (Dirichlet or Neumann)
sweep       Cartesian parameter sweep, one CSV row per tuple
verify-pde  front-fixed finite-difference cross-check

Exit codes: 0 success, 2 non-convergence, 3 invalid config,
4 non-convergence on a problem whose existence hypotheses failed.

Result payloads are deterministic (no timestamps); run metadata goes to a
separate ``run_meta.json`` sidecar.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .closed_form import dirichlet_constant, neumann_constant
from .coefficients import (
    BCKind,
    BoundaryCondition,
    Dirichlet,
    Neumann,
    Radiative,
    Robin,
    ThermalModel,
    build_dimensionless,
    constant_model,
    linear_model,
    table_model_from_csv,
)
from .errors import ConfigError, MeltfrontError
from .existence import certify, report_as_dict as existence_as_dict
from .lambda_solver import SolverSettings, report_as_dict, solve_lambda
from .pde_verifier import FrontFixedScheme, verify
from .reconstruct import export_field_csv, export_front_csv, physical_solution

_TOP_KEYS = {"bc", "coefficients", "reference", "numerics", "outputs", "sweep", "pde"}
_BC_KEYS = {
    "dirichlet": {"T_star"},
    "neumann": {"q"},
    "robin": {"h", "T_star"},
    "radiative": {"h", "sigma", "epsilon", "T_star"},
}
_COEF_KEYS = {"constant": {"Pe"}, "linear": {"alpha", "beta", "Pe"}, "table": {"path"}}
_REFERENCE_KEYS = {"k0", "rho0", "c0", "ell", "T_m"}
_NUMERICS_KEYS = {"n", "inner_tol", "outer_tol", "max_iter", "lambda_max"}
_OUTPUTS_KEYS = {"dir", "times", "nx"}
_PDE_KEYS = {"nodes", "t0", "t1", "safety", "dt", "sample_every"}


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def _require(block: dict, keys: set[str], where: str) -> None:
    missing = keys - set(block)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")


@dataclass
class Problem:
    model: ThermalModel
    bc: BoundaryCondition
    prob: object
    settings: SolverSettings
    config: dict


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict) or not cfg:
        raise ConfigError(f"config file {path} must hold a non-empty JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    return cfg


def _build_bc(cfg: dict) -> BoundaryCondition:
    _require(cfg, {"bc", "reference"}, "config")
    bc_block = cfg["bc"]
    ref = cfg["reference"]
    _check_keys(ref, _REFERENCE_KEYS, "reference block")
    _require(ref, _REFERENCE_KEYS, "reference block")
    kind = bc_block.get("kind")
    if kind not in _BC_KEYS:
        raise ConfigError(f"bc.kind must be one of {sorted(_BC_KEYS)}, got {kind!r}")
    _check_keys(bc_block, _BC_KEYS[kind] | {"kind"}, "bc block")
    _require(bc_block, _BC_KEYS[kind], "bc block")
    T_m = float(ref["T_m"])
    if kind == "dirichlet":
        return Dirichlet(T_star=float(bc_block["T_star"]), T_m=T_m)
    if kind == "neumann":
        return Neumann(q=float(bc_block["q"]), T_m=T_m)
    if kind == "robin":
        return Robin(h=float(bc_block["h"]), T_star=float(bc_block["T_star"]), T_m=T_m)
    return Radiative(
        h=float(bc_block["h"]),
        sigma=float(bc_block["sigma"]),
        epsilon=float(bc_block["epsilon"]),
        T_star=float(bc_block["T_star"]),
        T_m=T_m,
    )


def _build_model(cfg: dict, bc: BoundaryCondition) -> ThermalModel:
    _require(cfg, {"coefficients"}, "config")
    block = cfg["coefficients"]
    ref = cfg["reference"]
    family = block.get("family")
    if family not in _COEF_KEYS:
        raise ConfigError(f"coefficients.family must be one of {sorted(_COEF_KEYS)}, got {family!r}")
    _check_keys(block, _COEF_KEYS[family] | {"family"}, "coefficients block")
    k0, rho0, c0, ell = (float(ref[k]) for k in ("k0", "rho0", "c0", "ell"))
    if family == "constant":
        return constant_model(k0, rho0, c0, ell, Pe=float(block.get("Pe", 0.0)))
    if family == "linear":
        _require(block, {"alpha", "beta", "Pe"}, "coefficients block")
        if not hasattr(bc, "T_star"):
            raise ConfigError("the linear coefficient family needs a boundary condition providing T_star")
        return linear_model(
            k0, rho0, c0, ell,
            alpha=float(block["alpha"]), beta=float(block["beta"]), Pe=float(block["Pe"]),
            T_star=bc.T_star, T_m=bc.T_m,
        )
    _require(block, {"path"}, "coefficients block")
    return table_model_from_csv(block["path"], k0, rho0, c0, ell)


def _build_settings(cfg: dict, grid_override: int | None) -> SolverSettings:
    block = cfg.get("numerics", {})
    _check_keys(block, _NUMERICS_KEYS, "numerics block")
    kwargs = {}
    if "n" in block:
        kwargs["n"] = int(block["n"])
    if "inner_tol" in block:
        kwargs["inner_tol"] = float(block["inner_tol"])
    if "outer_tol" in block:
        kwargs["outer_tol"] = float(block["outer_tol"])
    if "max_iter" in block:
        kwargs["max_iter"] = int(block["max_iter"])
    if "lambda_max" in block:
        kwargs["lambda_max"] = float(block["lambda_max"])
    if grid_override is not None:
        kwargs["n"] = grid_override
    return SolverSettings(**kwargs)


def build_problem(cfg: dict, grid_override: int | None = None) -> Problem:
    """Validate a config dict and construct the solvable problem."""
    _check_keys(cfg.get("outputs", {}), _OUTPUTS_KEYS, "outputs block")
    bc = _build_bc(cfg)
    model = _build_model(cfg, bc)
    settings = _build_settings(cfg, grid_override)
    prob = build_dimensionless(model, bc)
    return Problem(model=model, bc=bc, prob=prob, settings=settings, config=cfg)


def _out_dir(cfg: dict, args) -> Path:
    out = args.out or cfg.get("outputs", {}).get("dir", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_sidecar(outdir: Path, command: str) -> None:
    _dump_json(outdir / "run_meta.json", {
        "command": command,
        "package_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    })


def _write_profile_csv(path: Path, xi: np.ndarray, f: np.ndarray) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["xi", "f"])
        for x, v in zip(xi, f):
            writer.writerow([repr(float(x)), repr(float(v))])


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _fail(stage: str, exc: Exception) -> None:
    print(f"error [{stage}]: {exc}", file=sys.stderr)


def _failure_exit_code(problem: Problem) -> int:
    # 4 when existence hypotheses also failed, 2 otherwise
    try:
        cert = certify(problem.prob, problem.settings)
    except MeltfrontError:
        return 2
    return 4 if any(v == "fails" for v in cert.hypothesis_flags.values()) else 2


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg, args.grid)
    outdir = _out_dir(cfg, args)
    try:
        report = solve_lambda(problem.prob, problem.settings)
    except MeltfrontError as exc:
        _fail("solve", exc)
        return _failure_exit_code(problem)
    _dump_json(outdir / "report.json", report_as_dict(report))
    _write_profile_csv(outdir / "profile.csv", report.profile.xi, report.profile.f)
    sol = physical_solution(report, problem.model, problem.bc)
    outputs = cfg.get("outputs", {})
    times = [float(t) for t in outputs.get("times", [1.0])]
    nx = int(outputs.get("nx", 101))
    export_field_csv(sol, outdir / "field.csv", times, nx)
    export_front_csv(sol, outdir / "front.csv", times)
    _write_sidecar(outdir, "solve")
    _say(args, f"lambda = {report.lambda_tilde:.9f}  (outer residual {report.outer_residual:.2e}, "
               f"certified={report.existence.certified})")
    _say(args, f"artifacts written to {outdir}")
    return 0


def _cmd_certify(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg, args.grid)
    cert = certify(problem.prob, problem.settings)
    outdir = _out_dir(cfg, args)
    _dump_json(outdir / "existence.json", existence_as_dict(cert))
    _write_sidecar(outdir, "certify")
    _say(args, f"certified = {cert.certified} (basis {cert.basis}); flags: {cert.hypothesis_flags}")
    return 0


def _cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg, args.grid)
    family = cfg["coefficients"].get("family")
    if family != "constant":
        raise ConfigError(f"the oracle covers constant coefficients only, got family {family!r}")
    Pe = float(cfg["coefficients"].get("Pe", 0.0))
    ref = cfg["reference"]
    model, bc = problem.model, problem.bc
    if bc.kind is BCKind.DIRICHLET:
        Ste = (bc.T_star - bc.T_m) * model.c0 / model.ell
        sol = dirichlet_constant(Ste, Pe, lambda_max=problem.settings.lambda_max)
        payload = {"bc_kind": "dirichlet", "Ste": Ste, "Pe": Pe}
    elif bc.kind is BCKind.NEUMANN:
        load = bc.q / (model.rho0 * model.ell * np.sqrt(model.alpha0))
        q_star = 2.0 * bc.q * np.sqrt(model.alpha0) / (model.k0 * bc.T_m)
        sol = neumann_constant(load, Pe, q_star=q_star, lambda_max=problem.settings.lambda_max)
        payload = {"bc_kind": "neumann", "load": load, "Pe": Pe}
    else:
        raise ConfigError(f"no closed form for a {bc.kind.value} condition; use `solve`")
    payload.update({"lambda": sol.lam, "unique": sol.unique, "roots": list(sol.roots)})
    outdir = _out_dir(cfg, args)
    _dump_json(outdir / "oracle.json", payload)
    xi = np.linspace(0.0, sol.lam, problem.settings.n + 1)
    _write_profile_csv(outdir / "oracle_profile.csv", xi, sol.profile(xi))
    _write_sidecar(outdir, "oracle")
    _say(args, f"lambda = {sol.lam:.9f} (unique={sol.unique})")
    return 0


def _dotted_parent(cfg: dict, dotted: str) -> dict:
    parts = dotted.split(".")
    node = cfg
    for p in parts[:-1]:
        if not isinstance(node, dict) or p not in node:
            raise ConfigError(f"sweep parameter {dotted!r} does not exist in the config")
        node = node[p]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(f"sweep parameter {dotted!r} does not exist in the config")
    return node


def _set_dotted(cfg: dict, dotted: str, value) -> None:
    _dotted_parent(cfg, dotted)[dotted.split(".")[-1]] = value


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    sweep = cfg.get("sweep")
    if not sweep or not isinstance(sweep, dict):
        raise ConfigError("sweep runs need a non-empty `sweep` block of {parameter: [values]}")
    names = sorted(sweep)
    for name, values in sweep.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep parameter {name!r} needs a non-empty list of values")
    base = {k: v for k, v in cfg.items() if k != "sweep"}
    build_problem(copy.deepcopy(base), args.grid)  # validate the base once
    for name in names:
        _dotted_parent(base, name)  # reject unknown sweep parameters before writing anything

    tuples = list(product(*(sweep[name] for name in names)))
    outdir = _out_dir(cfg, args)
    any_failed = False

    def run_case(index: int, combo) -> dict:
        case_cfg = copy.deepcopy(base)
        for name, value in zip(names, combo):
            _set_dotted(case_cfg, name, value)
        row = {"case": index}
        row.update({name: value for name, value in zip(names, combo)})
        try:
            problem = build_problem(case_cfg, args.grid)
            report = solve_lambda(problem.prob, problem.settings)
            row.update(
                status="ok",
                **{
                    "lambda": report.lambda_tilde,
                    "outer_residual": report.outer_residual,
                    "inner_iterations": report.inner.iterations,
                    "front_flux_residual": report.front_flux_residual,
                    "certified": report.existence.certified,
                },
            )
        except MeltfrontError as exc:
            row.update(status=f"error: {exc}", **{
                "lambda": "", "outer_residual": "", "inner_iterations": "",
                "front_flux_residual": "", "certified": "",
            })
        return row

    fieldnames = ["case", *names, "lambda", "outer_residual", "inner_iterations",
                  "front_flux_residual", "certified", "status"]
    with (outdir / "sweep.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        fh.flush()
        # rows are taken in case order; only this thread writes
        with ThreadPoolExecutor(max_workers=max(1, args.workers)) as pool:
            for row in pool.map(run_case, range(len(tuples)), tuples):
                if str(row["status"]) != "ok":
                    any_failed = True
                writer.writerow(row)
                fh.flush()
                _say(args, f"case {row['case']}: {row['status']}")
    _write_sidecar(outdir, "sweep")
    _say(args, f"{len(tuples)} case(s) written to {outdir / 'sweep.csv'}")
    return 2 if any_failed else 0


def _cmd_verify_pde(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg, args.grid)
    pde = cfg.get("pde", {})
    _check_keys(pde, _PDE_KEYS, "pde block")
    scheme = FrontFixedScheme(
        n_space=int(pde.get("nodes", 200)),
        t0=float(pde.get("t0", 1.0)),
        t1=float(pde.get("t1", 2.0)),
        safety=float(pde.get("safety", 0.4)),
        dt=float(pde["dt"]) if "dt" in pde else None,
        sample_every=int(pde.get("sample_every", 16)),
    )
    outdir = _out_dir(cfg, args)
    try:
        report = solve_lambda(problem.prob, problem.settings)
        sol = physical_solution(report, problem.model, problem.bc)
        disc = verify(sol, problem.model, problem.bc, scheme)
    except MeltfrontError as exc:
        _fail("verify-pde", exc)
        return _failure_exit_code(problem)
    _dump_json(outdir / "verify.json", {
        "lambda": report.lambda_tilde,
        "scheme": {"nodes": scheme.n_space, "t0": scheme.t0, "t1": scheme.t1, "safety": scheme.safety},
        "discrepancy": {
            "s_rel_max": disc.s_rel_max,
            "s_rel_final": disc.s_rel_final,
            "T_rel_max": disc.T_rel_max,
            "steps": disc.steps,
            "t_final": disc.t_final,
        },
    })
    _write_sidecar(outdir, "verify-pde")
    _say(args, f"front discrepancy: max {disc.s_rel_max:.3e}, final {disc.s_rel_final:.3e} "
               f"({disc.steps} steps)")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "oracle": _cmd_oracle,
    "sweep": _cmd_sweep,
    "verify-pde": _cmd_verify_pde,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meltfront",
        description="Similarity solutions of one-phase melting problems with convection",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON problem description")
    parser.add_argument("--out", default=None, help="output directory (default: outputs.dir or '.')")
    parser.add_argument("--workers", type=int, default=1, help="concurrent sweep workers")
    parser.add_argument("--grid", type=int, default=None, help="override the profile grid size")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        _fail("config", exc)
        return 3
    except MeltfrontError as exc:
        _fail(args.command, exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
