"""Relaxation of the contact-angle flow onto a moving translator.

Starting from u = 0 on the closed-form interval case, the graph first
bends to meet the prescribed boundary angle, then settles into rigid
vertical motion: oscillation of u - u_inf dies out, each step's speed
approaches the translator speed, and the gradient envelope max W levels
off.  The run stops once a step moves every node alike, to 1e-6 in
osc(u_new - u_old) / dt, and is then doubled to show the envelope stays
flat.
"""

import math

from mcfsolve import (StepPolicy, angle_from_spec, make_geometry, make_grid,
                      run_to_stationarity, solve_soliton, verify_convergence)

geom = make_geometry({"kind": "interval", "a": -1.0, "b": 1.0})
grid = make_grid(geom, 200)
angle = angle_from_spec(grid, f"const:{-math.sin(0.5)!r}")

sol = solve_soliton(grid, angle)
print(f"translator speed (quadrature): {sol.C_quad:.6f}")

state, t_stat = run_to_stationarity(grid, angle, StepPolicy(), u0=0.0)
print(f"stationarity reached at t = {t_stat:g}; continued to t = {state.t:g}")

hist = state.history
stride = max(1, len(hist.t) // 12)
print("\n      t      max_W        osc        speed     max_Weta")
for k in range(0, len(hist.t), stride):
    spd = hist.speed[k]
    spd_s = f"{spd:9.6f}" if not math.isnan(spd) else "      ---"
    print(f"  {hist.t[k]:6.2f}  {hist.max_w[k]:.6f}  {hist.osc_u[k]:.3e}  "
          f"{spd_s}  {hist.max_weta[k]:.4f}")

report = verify_convergence(state, sol, tol=1e-3)
print("\nconvergence checks (tol 1e-3):")
for name, (value, tol, ok) in report.checks.items():
    print(f"  {name:20s} {value:.3e}  {'ok' if ok else 'FAIL'}")
print("sup W along the run:", f"{max(hist.max_w):.6f}",
      "(exact graph steepness: sec(1/2) =", f"{1/math.cos(0.5):.6f})")
