"""Inputs of the three benchmark workloads, as meltfront CLI configs.

Every workload is a closed loop with one client that issues CLI commands
one after another.  The seed only permutes the order of operations; the
set of problems, and so every counter, is the same for every seed.

* ``solve``: the ``solve`` command on 11 configs at the default grid
  (4 boundary conditions x 3 coefficient families, minus Neumann x linear,
  which needs ``T_star``).  One pass runs each config once.
* ``sweep-fine``: one 40-case ``sweep`` command at ``--grid 16384``.
* ``verify-pde``: one ``verify-pde`` command on the acceptance-09 problem.
"""

from __future__ import annotations

import copy
import json
import math
import random
from pathlib import Path

REFERENCE = {"k0": 1.0, "rho0": 1.0, "c0": 1.0, "ell": 1.0, "T_m": 1.0}
OUTPUTS = {"times": [1.0, 4.0], "nx": 101}
# alpha0 = k0 / (rho0 c0) for every config here
ALPHA0 = 1.0

BCS = {
    "dirichlet": {"kind": "dirichlet", "T_star": 2.0},
    "neumann": {"kind": "neumann", "q": 0.5},
    "robin": {"kind": "robin", "h": 0.7, "T_star": 2.0},
    "radiative": {"kind": "radiative", "h": 0.05, "sigma": 0.05, "epsilon": 0.05, "T_star": 2.0},
}
FAMILIES = {
    "constant": {"family": "constant", "Pe": 0.5},
    "linear": {"family": "linear", "alpha": 0.1, "beta": 0.1, "Pe": 0.5},
    "table": {"family": "table"},
}
TABLE_NAME = "coefficients.csv"

SWEEP_GRID = 16384
SWEEP_VALUES = {
    "coefficients.alpha": [0.0, 0.05, 0.1, 0.2, 0.3],
    "coefficients.beta": [0.05, 0.1, 0.2, 0.3],
    "coefficients.Pe": [0.0, 0.5],
}

VERIFY_CONFIG = {
    "bc": {"kind": "dirichlet", "T_star": 2.0},
    "coefficients": {"family": "constant", "Pe": 0.0},
    "reference": dict(REFERENCE, ell=2.0),
    "pde": {"nodes": 200, "t0": 1.0, "t1": 2.0},
}

WORKLOADS = ("solve", "sweep-fine", "verify-pde")


def solve_names() -> list[str]:
    """The 11 ``solve`` configs as ``<bc>-<family>``; Neumann x linear is left out."""
    return [f"{bc}-{fam}" for bc in BCS for fam in FAMILIES if (bc, fam) != ("neumann", "linear")]


def table_rows() -> list[tuple[float, float, float, float]]:
    """26 rows over T in [0.5, 3]: k = 1 + 0.08 sin 5T, rho_c = 1 + 0.05 cos 3T, mu = 0.3 + 0.1 (T - 1)."""
    rows = []
    for i in range(26):
        T = 0.5 + 0.1 * i
        rows.append((T, 1.0 + 0.08 * math.sin(5.0 * T), 1.0 + 0.05 * math.cos(3.0 * T), 0.3 + 0.1 * (T - 1.0)))
    return rows


def write_table(path: Path) -> Path:
    # plain Python floats: the table reader does not accept numpy reprs
    lines = ["T,k,rho_c,mu"] + [",".join(repr(float(v)) for v in row) for row in table_rows()]
    path.write_text("\n".join(lines) + "\n")
    return path


def solve_config(name: str, table_path: Path) -> dict:
    bc, fam = name.split("-")
    coefficients = dict(FAMILIES[fam])
    if fam == "table":
        coefficients["path"] = str(table_path)
    return {
        "bc": dict(BCS[bc]),
        "coefficients": coefficients,
        "reference": dict(REFERENCE),
        "outputs": copy.deepcopy(OUTPUTS),
    }


def sweep_config(rng: random.Random | None = None) -> dict:
    """Dirichlet T_star=2 linear base with the 40-case sweep; ``rng`` shuffles each value list."""
    values = {name: list(vals) for name, vals in SWEEP_VALUES.items()}
    if rng is not None:
        for name in sorted(values):
            rng.shuffle(values[name])
    cfg = solve_config("dirichlet-linear", Path())
    cfg["sweep"] = values
    return cfg


def sweep_key(alpha, beta, Pe) -> tuple[float, float, float]:
    """Rows are matched by parameter tuple: sweep.csv is in completion order."""
    return (float(alpha), float(beta), float(Pe))


def sweep_cases() -> list[tuple[float, float, float]]:
    return [
        sweep_key(a, b, p)
        for a in SWEEP_VALUES["coefficients.alpha"]
        for b in SWEEP_VALUES["coefficients.beta"]
        for p in SWEEP_VALUES["coefficients.Pe"]
    ]


def write_inputs(workdir: Path, workload: str, rng: random.Random) -> dict[str, Path]:
    """Write the workload's config files (and the coefficient table) into ``workdir``.

    Returns the config path of each operation kind, keyed by solve-config
    name, ``"sweep"`` or ``"verify"``.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    configs: dict[str, dict] = {}
    if workload == "solve":
        table = write_table(workdir / TABLE_NAME)
        for name in solve_names():
            configs[name] = solve_config(name, table.resolve())
    elif workload == "sweep-fine":
        configs["sweep"] = sweep_config(rng)
    elif workload == "verify-pde":
        configs["verify"] = copy.deepcopy(VERIFY_CONFIG)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    paths = {}
    for name, cfg in configs.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2))
        paths[name] = path
    return paths
