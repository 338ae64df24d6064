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
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .closed_form import dirichlet_constant, neumann_constant
from .coefficients import (
    _CONDITIONS,
    BCKind,
    BoundaryCondition,
    DimensionlessProblem,
    ThermalModel,
    build_dimensionless,
    constant_model,
    linear_model,
    table_model_from_csv,
)
from .errors import ConfigError, MeltfrontError
from .existence import ExistenceReport, certify, report_as_dict as existence_as_dict
from .kernels import MAX_NODES
from .lambda_solver import SolverSettings, report_as_dict, solve_lambda
from .pde_verifier import FrontFixedScheme, verify
from .reconstruct import export_field_csv, export_front_csv, physical_solution

_TOP_KEYS = {"bc", "coefficients", "reference", "numerics", "outputs", "sweep", "pde"}
# the keys of a bc block are the fields of its class, T_m coming from the reference block
_BC_CLASSES = {kind.value: cls for kind, cls in _CONDITIONS.items()}
_COEF_KEYS = {"constant": {"Pe"}, "linear": {"alpha", "beta", "Pe"}, "table": {"path"}}
_REFERENCE_KEYS = {"k0", "rho0", "c0", "ell", "T_m"}
_OUTPUTS_KEYS = {"dir", "times", "nx"}
_KIND_NAMES = {
    float: "a finite number",
    int: "a finite integer",
    list: "a list of finite numbers",
    dict: "a JSON object",
    str: "a string",
}
_REQUIRED = object()


def _check_keys(block: dict, allowed, where: str) -> None:
    unknown = set(block).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def _read(block: dict, name: str, kind: type = float, default=_REQUIRED):
    """The value of the last part of the dotted ``name`` in ``block``, as ``kind``.

    float and int values are converted and must be finite, a string is read
    as the number it spells, an int read from a float or a string must be
    integral, a list must hold finite numbers (returned as floats), and a
    dict or str must already be one.  A boolean is not a number.  A missing
    key returns ``default`` when one is given.  Anything else raises
    ConfigError naming ``name``.
    """
    key = name.rpartition(".")[2]
    if key not in block:
        if default is _REQUIRED:
            raise ConfigError(f"missing key {name}")
        return default
    value = block[key]
    try:
        if kind in (dict, str):
            if isinstance(value, kind):
                return value
        elif kind is list:
            if isinstance(value, list) and not any(isinstance(v, bool) for v in value):
                numbers = [float(v) for v in value]
                if all(map(math.isfinite, numbers)):
                    return numbers
        elif not isinstance(value, bool):
            # int() would refuse "64.0" and truncate 64.7 to 64
            parsed = float(value) if isinstance(value, str) else value
            number = kind(parsed)
            if math.isfinite(number) and (not isinstance(parsed, float) or number == parsed):
                return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")


def _block_values(cls, cfg: dict, block_name: str) -> dict:
    """The fields of ``cls`` from a config block whose keys are those fields.

    Each value is read as the type of its field's default; a missing key
    keeps the default.
    """
    block = _read(cfg, block_name, dict, {})
    defaults = {field.name: field.default for field in fields(cls)}
    _check_keys(block, defaults, f"{block_name} block")
    return {key: _read(block, f"{block_name}.{key}", type(value)) if key in block else value
            for key, value in defaults.items()}


@dataclass
class Problem:
    model: ThermalModel
    bc: BoundaryCondition
    prob: DimensionlessProblem
    settings: SolverSettings


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
    bc_block = _read(cfg, "bc", dict)
    ref = _read(cfg, "reference", dict)
    _check_keys(ref, _REFERENCE_KEYS, "reference block")
    kind = _read(bc_block, "bc.kind", str, None)
    if kind not in _BC_CLASSES:
        raise ConfigError(f"bc.kind must be one of {sorted(_BC_CLASSES)}, got {kind!r}")
    cls = _BC_CLASSES[kind]
    keys = {field.name for field in fields(cls)} - {"T_m"}
    _check_keys(bc_block, keys | {"kind"}, "bc block")
    return cls(T_m=_read(ref, "reference.T_m"), **{key: _read(bc_block, f"bc.{key}") for key in sorted(keys)})


def _build_model(cfg: dict, bc: BoundaryCondition) -> ThermalModel:
    block = _read(cfg, "coefficients", dict)
    ref = _read(cfg, "reference", dict)
    family = _read(block, "coefficients.family", str, None)
    if family not in _COEF_KEYS:
        raise ConfigError(f"coefficients.family must be one of {sorted(_COEF_KEYS)}, got {family!r}")
    _check_keys(block, _COEF_KEYS[family] | {"family"}, "coefficients block")
    k0, rho0, c0, ell = (_read(ref, f"reference.{k}") for k in ("k0", "rho0", "c0", "ell"))
    if family == "constant":
        return constant_model(k0, rho0, c0, ell, Pe=_read(block, "coefficients.Pe", float, 0.0))
    if family == "linear":
        if not hasattr(bc, "T_star"):
            raise ConfigError("the linear coefficient family needs a boundary condition providing T_star")
        alpha, beta, Pe = (_read(block, f"coefficients.{k}") for k in ("alpha", "beta", "Pe"))
        return linear_model(k0, rho0, c0, ell, alpha=alpha, beta=beta, Pe=Pe, T_star=bc.T_star, T_m=bc.T_m)
    return table_model_from_csv(_read(block, "coefficients.path", str), k0, rho0, c0, ell)


def build_problem(cfg: dict, grid_override: int | None = None) -> Problem:
    """Validate a config dict and construct the solvable problem."""
    _check_keys(_read(cfg, "outputs", dict, {}), _OUTPUTS_KEYS, "outputs block")
    bc = _build_bc(cfg)
    model = _build_model(cfg, bc)
    grid = {} if grid_override is None else {"n": grid_override}
    settings = SolverSettings(**{**_block_values(SolverSettings, cfg, "numerics"), **grid})
    return Problem(model=model, bc=bc, prob=build_dimensionless(model, bc), settings=settings)


def _out_dir(cfg: dict, args) -> Path:
    out = args.out or _read(_read(cfg, "outputs", dict, {}), "outputs.dir", str, ".")
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
    rows = "".join(f"{x!r},{v!r}\r\n" for x, v in zip(xi.tolist(), f.tolist()))
    path.write_text("xi,f\r\n" + rows, newline="")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _fail(stage: str, exc: Exception) -> None:
    print(f"error [{stage}]: {exc}", file=sys.stderr)


def _failure_exit_code(existence: ExistenceReport | None) -> int:
    # 4 when the failed solve's certificate fails a hypothesis, 2 otherwise
    # (also when the failure came before a certificate was issued)
    return 2 if existence is None or existence.certified else 4


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg, args.grid)
    # the export would reject these after the report is written
    outputs = _read(cfg, "outputs", dict, {})
    times = _read(outputs, "outputs.times", list, [1.0])
    nx = _read(outputs, "outputs.nx", int, 101)
    # s(t) and the similarity variable need 0 < alpha0*t < inf
    alpha0 = problem.model.alpha0
    if not all(0.0 < alpha0 * t < math.inf for t in times):
        raise ConfigError(f"outputs.times must all be positive with finite, non-zero alpha0*t "
                          f"(alpha0 = {alpha0!r}), got {times!r}")
    if nx < 0:
        raise ConfigError(f"outputs.nx must be non-negative, got {nx}")
    if nx > MAX_NODES:
        raise ConfigError(f"outputs.nx must be at most {MAX_NODES}, got {nx}")
    outdir = _out_dir(cfg, args)
    try:
        report = solve_lambda(problem.prob, problem.settings)
    except MeltfrontError as exc:
        _fail("solve", exc)
        return _failure_exit_code(exc.existence)
    _dump_json(outdir / "report.json", report_as_dict(report))
    _write_profile_csv(outdir / "profile.csv", report.profile.xi, report.profile.f)
    sol = physical_solution(report, problem.model, problem.bc)
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
    Pe = _read(cfg["coefficients"], "coefficients.Pe", float, 0.0)
    model, bc, prob = problem.model, problem.bc, problem.prob
    if bc.kind is BCKind.DIRICHLET:
        sol = dirichlet_constant(prob.Ste, Pe, lambda_max=problem.settings.lambda_max)
        payload = {"bc_kind": "dirichlet", "Ste": prob.Ste, "Pe": Pe}
    elif bc.kind is BCKind.NEUMANN:
        load = bc.q / (model.rho0 * model.ell * np.sqrt(model.alpha0))
        sol = neumann_constant(load, Pe, q_star=prob.q_star, lambda_max=problem.settings.lambda_max)
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
    fieldnames = ["case", *names, "lambda", "outer_residual", "inner_iterations",
                  "front_flux_residual", "certified", "status"]
    with (outdir / "sweep.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        fh.flush()
        # each case starts from the root of the last case, unless that one failed
        start = None
        for index, combo in enumerate(tuples):
            case_cfg = copy.deepcopy(base)
            for name, value in zip(names, combo):
                _set_dotted(case_cfg, name, value)
            row = {"case": index, **dict(zip(names, combo))}
            try:
                problem = build_problem(case_cfg, args.grid)
                report = solve_lambda(problem.prob, problem.settings, start)
                start = report.start
                row.update({
                    "lambda": report.lambda_tilde,
                    "outer_residual": report.outer_residual,
                    "inner_iterations": report.inner.iterations,
                    "front_flux_residual": report.front_flux_residual,
                    "certified": report.existence.certified,
                    "status": "ok",
                })
            except MeltfrontError as exc:
                # the writer leaves the result columns of an error row empty
                row["status"] = f"error: {exc}"
                start = None
            any_failed = any_failed or row["status"] != "ok"
            writer.writerow(row)
            fh.flush()
            _say(args, f"case {index}: {row['status']}")
    _write_sidecar(outdir, "sweep")
    _say(args, f"{len(tuples)} case(s) written to {outdir / 'sweep.csv'}")
    return 2 if any_failed else 0


def _cmd_verify_pde(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg, args.grid)
    pde = _block_values(FrontFixedScheme, cfg, "pde")
    # the similarity data at t0 and t1 need 0 < alpha0*t < inf, as in solve;
    # checked before the scheme's own checks, which do not know alpha0
    alpha0 = problem.model.alpha0
    for key in ("t0", "t1"):
        if not 0.0 < alpha0 * pde[key] < math.inf:
            raise ConfigError(f"pde.{key} must be positive with finite, non-zero alpha0*t "
                              f"(alpha0 = {alpha0!r}), got {pde[key]!r}")
    scheme = FrontFixedScheme(**pde)
    outdir = _out_dir(cfg, args)
    report = None
    try:
        report = solve_lambda(problem.prob, problem.settings)
        sol = physical_solution(report, problem.model, problem.bc)
        disc = verify(sol, problem.model, problem.bc, scheme)
    except MeltfrontError as exc:
        _fail("verify-pde", exc)
        return _failure_exit_code(exc.existence if report is None else report.existence)
    _dump_json(outdir / "verify.json", {
        "lambda": report.lambda_tilde,
        "scheme": asdict(scheme),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meltfront",
        description="Similarity solutions of one-phase melting problems with convection",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON problem description")
    parser.add_argument("--out", default=None, help="output directory (default: outputs.dir or '.')")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted and ignored: sweep cases run one after another on one thread")
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
