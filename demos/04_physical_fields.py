"""From similarity variables back to physics, and an independent PDE check.

A solved profile f on [0, lambda] becomes a temperature field
T(x, t) = (T_m - T_star) f(x / (2 sqrt(alpha0 t))) + T_star with the melt
front at s(t) = 2 lambda sqrt(alpha0 t).  Two independent checks close the
loop:

* the front energy balance k T_x + rho0 ell s' = 0, re-measured by finite
  differences on the reconstructed field, and
* a front-fixed finite-difference march of the original moving-boundary
  problem, started from the similarity field, which should stay on it.
"""

import numpy as np

from meltfront import (
    Dirichlet,
    FrontFixedScheme,
    build_dimensionless,
    constant_model,
    front_position,
    physical_solution,
    solve_lambda,
    stefan_residual,
    temperature_at,
    verify,
)

print(__doc__)

model = constant_model(k0=1.0, rho0=1.0, c0=1.0, ell=2.0)  # Ste = 0.5
bc = Dirichlet(T_star=2.0, T_m=1.0)
report = solve_lambda(build_dimensionless(model, bc))
sol = physical_solution(report, model, bc)
print(f"front coefficient lambda = {report.lambda_tilde:.8f}")

print()
print("Front trajectory and a mid-depth temperature:")
print(f"{'t':>6} {'s(t)':>10} {'T(s/2, t)':>10}")
for t in (0.25, 1.0, 4.0, 16.0):
    s = front_position(sol, t)
    print(f"{t:6.2f} {s:10.6f} {temperature_at(sol, s / 2.0, t):10.6f}")
print("(quadrupling t doubles the front position: square-root growth)")

print()
print("Temperature profile at t = 1 (face 2.0 down to melting 1.0):")
s1 = front_position(sol, 1.0)
for x in np.linspace(0.0, s1, 6):
    print(f"  x = {x:8.5f}: T = {temperature_at(sol, float(x), 1.0):.6f}")
print(f"  beyond the front (x = {1.05 * s1:.5f}): {temperature_at(sol, 1.05 * s1, 1.0)}")

print()
print(f"front energy balance residual (finite differences): {stefan_residual(sol, model, 1.0):.2e}")

print()
print("Front-fixed finite-difference march from t = 1 to t = 2:")
for nodes in (100, 200):
    d = verify(sol, model, bc, FrontFixedScheme(nodes=nodes, t0=1.0, t1=2.0))
    print(
        f"  {nodes:4d} space nodes, {d.steps:6d} steps: front drift {d.s_rel_final:.2e},"
        f" field drift {d.T_rel_max:.2e}"
    )
print("(halving the mesh roughly halves the drift: first-order front coupling)")
