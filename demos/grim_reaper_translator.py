"""The closed-form translator on an interval, end to end.

On (-1, 1) with constant contact angle phi = -sin(1/2), the translator is
u(x) = -2 log cos(x/2) moving at speed 1/2: the profile satisfies
W div(u'/W) = 1/2 and the boundary slope obeys u'(1)/W(1) = sin(1/2).
This script solves the same problem numerically two ways and compares
both speed estimates, the speed of the discrete translator, and the
profile against the closed form.
"""

import math

import numpy as np

from mcfsolve import (angle_from_spec, field_mean, make_geometry, make_grid,
                      solve_soliton, verify_compatibility)

geom = make_geometry({"kind": "interval", "a": -1.0, "b": 1.0})
grid = make_grid(geom, 200)
angle = angle_from_spec(grid, f"const:{-math.sin(0.5)!r}")

print("solving the bordered translator system ...")
sol = solve_soliton(grid, angle)

print(f"  Newton iterations      : {sum(sol.newton_iters)}")
print(f"  bordered multiplier    : {sol.C_eps:.8f}")
print(f"  boundary-flux speed    : {sol.C_quad:.8f}")
print(f"  discrete speed (C_h)   : {sol.C_h:.8f}")
print(f"  exact speed            : 0.5")
print(f"  estimator disagreement : {abs(sol.C_eps - sol.C_quad):.2e}")

exact = -2.0 * np.log(np.cos(grid.nodes / 2.0))
exact -= field_mean(grid, exact)
diff = sol.u_inf.interior - exact
print(f"  profile error (osc)    : {np.max(diff) - np.min(diff):.2e}")

rep = verify_compatibility(sol)
print(f"\ndiscrete divergence identity gap: {rep['flux_gap']:.2e}")
# the telescoped faces sit h/2 outside the boundary, so this gap is O(h);
# the quadrature speed uses the analytic boundary integral instead
print(f"telescoped-flux vs angle integral: {rep['bc_model_gap']:.2e}")
