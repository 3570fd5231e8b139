"""A translator on a hyperbolic disk, past the reach of the existence theorem.

The geodesic disk of radius 0.3 in the hyperbolic plane (curvature -1)
carries a contact angle that varies along its boundary.  The disk reads
its metric from the same volume weight sigma = sinh(r) as the n = 2 ball,
so the flux form, the ghost closure and the lagged flow step all see the
curved metric.  The translator exists and the flow converges to it, while
the theorem's hypotheses hold in every curvature condition and in the
angle's size, and fail only on the C^1 norm of theta along the boundary.
"""

from mcfsolve import (StepPolicy, angle_from_spec, check_existence, make_geometry,
                      make_grid, run_to_stationarity, solve_soliton, verify_convergence)

geom = make_geometry({"kind": "polar_disk", "R": 0.3,
                      "curvature": {"model": "hyperbolic", "K": 1.0}})
grid = make_grid(geom, 40, 40)
angle = angle_from_spec(grid, "fourier:0.05,0.02,0.01")

sol = solve_soliton(grid, angle)
print(f"translator: C_eps = {sol.C_eps:+.7f}, C_quad = {sol.C_quad:+.7f}, "
      f"C_h = {sol.C_h:+.7f} ({sol.newton_iters[0]} Newton iterations)")

state, t_stat = run_to_stationarity(grid, angle, StepPolicy())
conv = verify_convergence(state, sol, tol=1e-3)
print(f"\nflow from u = 0, stationary at t = {t_stat:g} "
      f"({len(state.history)} history rows): {'converges' if conv.passed else 'FAILS'}")
for name, (value, tol, ok) in conv.checks.items():
    print(f"  {name:18s} {value:.3e}  (tol {tol:g})  {'pass' if ok else 'fail'}")

rep = check_existence(geom, angle)
print(f"\nexistence hypotheses: {'hold' if rep.overall else 'fail'} (eps0 = {rep.eps0:.4f})")
for c in rep.conditions:
    print(f"  {c.name:18s} {c.lhs:+.4f} vs {c.rhs:+.4f}  {'pass' if c.passed else 'fail'}")
for name, value in (("phi0", rep.phi0), ("theta_c1", rep.theta_c1)):
    print(f"  {name:18s} {value:+.4f} vs {rep.eps0:+.4f}  "
          f"{'pass' if value <= rep.eps0 else 'fail'}")
