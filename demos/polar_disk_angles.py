"""Angle-dependent contact data on the flat disk.

A Fourier contact angle phi(theta) on the unit disk produces a genuinely
two-dimensional translator.  The speed is pinned by the balance between
the boundary integral of phi and the bulk integral of 1/W; the discrete
flux form reproduces that balance to machine precision for any
ghost-closed field, so the two speed estimates can only disagree through
the regularization and resolution, not through bookkeeping.
"""

import numpy as np

from mcfsolve import (StepPolicy, angle_from_spec, initial_state,
                      integrate_boundary, make_geometry, make_grid, run_until,
                      solve_soliton, verify_compatibility)

geom = make_geometry({"kind": "polar_disk", "R": 1.0})
grid = make_grid(geom, 48, 48)
angle = angle_from_spec(grid, "fourier:0.08,0.06,0.04")
print(f"angle range on the boundary: [{angle.phi.min():+.4f}, {angle.phi.max():+.4f}]")
print(f"boundary integral of phi   : {integrate_boundary(grid, angle):+.6f}")

sol = solve_soliton(grid, angle)
rep = verify_compatibility(sol)
print(f"\ntranslator speed: C_eps = {sol.C_eps:+.6f}, C_quad = {sol.C_quad:+.6f}")
print(f"estimator disagreement : {rep['speed_gap']:.2e}")
print(f"divergence identity gap: {rep['flux_gap']:.2e}")

prof = sol.u_inf.interior
print("\nprofile along four rays (r from the pole outward):")
idx = np.linspace(0, grid.n_nodes - 1, 6, dtype=int)
for j, label in ((0, "theta=0"), (12, "theta=pi/2"), (24, "theta=pi"), (36, "theta=3pi/2")):
    vals = "  ".join(f"{prof[i, j]:+.4f}" for i in idx)
    print(f"  {label:12s} {vals}")

print("\nshort flow from u = 0 for cross-checking the speed ...")
state = initial_state(grid, angle, 0.0)
run_until(state, StepPolicy(), angle, speed_tol=1e-6)
print(f"  last step's flow speed at t = {state.t:g}: {state.history.speed[-1]:+.6f}")
print(f"  |flow - quadrature|: {abs(state.history.speed[-1] - sol.C_quad):.2e}")
print(f"  |flow - discrete C_h|: {abs(state.history.speed[-1] - sol.C_h):.2e}")
