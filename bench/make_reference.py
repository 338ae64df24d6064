"""Regenerate ``reference.json``, the pinned answers the benchmark checks against.

    python3 bench/make_reference.py

lambda_ref is the Richardson extrapolation (4 lambda_2n - lambda_n) / 3 of
solves at n = 16384 and n = 32768 with inner and outer tolerances of 1e-13;
the quadrature is second order.  The ``certified`` flag does not depend on
the grid and is pinned from the same solves.  The constant-coefficient
Dirichlet and Neumann references are cross-checked against the closed forms
before anything is written.

The benchmark reads only this file, never a value computed by the code under
test, so regenerate it only when the problems themselves change.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

from run import load_meltfront
import workloads

GRIDS = (16384, 32768)
TOL = 1e-13
CROSS_CHECK_RTOL = 1e-9
OUT = Path(__file__).resolve().parent / "reference.json"


def reference_lambda(cli, cfg: dict) -> tuple[float, bool, float]:
    cfg = dict(cfg, numerics={"inner_tol": TOL, "outer_tol": TOL})
    lams = []
    certified = set()
    for n in GRIDS:
        problem = cli.build_problem(cfg, n)
        report = cli.solve_lambda(problem.prob, problem.settings)
        lams.append(report.lambda_tilde)
        certified.add(report.existence.certified)
    if len(certified) != 1:
        raise RuntimeError(f"certificate changes with the grid: {cfg}")
    coarse, fine = lams
    return (4.0 * fine - coarse) / 3.0, certified.pop(), abs(fine - coarse) / 3.0


def cross_check(name: str, lam: float, exact: float) -> None:
    rel = abs(lam - exact) / exact
    print(f"  cross-check {name}: closed form {exact!r}, rel diff {rel:.2e}")
    if rel > CROSS_CHECK_RTOL:
        raise RuntimeError(f"{name}: reference {lam!r} disagrees with the closed form {exact!r}")


def main() -> int:
    meltfront = load_meltfront()
    from meltfront import cli

    out: dict = {"method": f"Richardson from n={GRIDS[0]} and n={GRIDS[1]}, inner_tol=outer_tol={TOL:g}"}
    with tempfile.TemporaryDirectory(dir=OUT.parent) as tmp:
        table = workloads.write_table(Path(tmp) / workloads.TABLE_NAME)
        solve = {}
        for name in workloads.solve_names():
            lam, cert, err = reference_lambda(cli, workloads.solve_config(name, table))
            solve[name] = {"lambda": lam, "certified": cert}
            print(f"solve {name}: lambda_ref={lam!r} certified={cert} (2n-grid error ~{err:.1e})")
    out["solve"] = solve

    ref = workloads.REFERENCE
    Pe = workloads.FAMILIES["constant"]["Pe"]
    Ste = (workloads.BCS["dirichlet"]["T_star"] - ref["T_m"]) * ref["c0"] / ref["ell"]
    cross_check("dirichlet-constant", solve["dirichlet-constant"]["lambda"],
                meltfront.dirichlet_constant(Ste, Pe).lam)
    q = workloads.BCS["neumann"]["q"]
    alpha0 = ref["k0"] / (ref["rho0"] * ref["c0"])
    load = q / (ref["rho0"] * ref["ell"] * math.sqrt(alpha0))
    q_star = 2.0 * q * math.sqrt(alpha0) / (ref["k0"] * ref["T_m"])
    cross_check("neumann-constant", solve["neumann-constant"]["lambda"],
                meltfront.neumann_constant(load, Pe, q_star=q_star).lam)

    base = workloads.sweep_config()
    del base["sweep"]
    rows = []
    for alpha, beta, pe in workloads.sweep_cases():
        cfg = json.loads(json.dumps(base))
        cfg["coefficients"].update(alpha=alpha, beta=beta, Pe=pe)
        lam, cert, err = reference_lambda(cli, cfg)
        rows.append({"alpha": alpha, "beta": beta, "Pe": pe, "lambda": lam, "certified": cert})
        print(f"sweep alpha={alpha} beta={beta} Pe={pe}: lambda_ref={lam!r} certified={cert} (~{err:.1e})")
    out["sweep-fine"] = rows

    vcfg = workloads.VERIFY_CONFIG
    lam, cert, err = reference_lambda(cli, vcfg)
    vref = vcfg["reference"]
    Ste = (vcfg["bc"]["T_star"] - vref["T_m"]) * vref["c0"] / vref["ell"]
    cross_check("verify-pde", lam, meltfront.dirichlet_constant(Ste, vcfg["coefficients"]["Pe"]).lam)
    out["verify-pde"] = {"lambda": lam, "certified": cert}
    print(f"verify-pde: lambda_ref={lam!r} certified={cert} (~{err:.1e})")

    OUT.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
