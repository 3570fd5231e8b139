"""mcfsolve: graphical mean curvature flow with prescribed contact angle.

A numpy/scipy laboratory for graph flows u_t = W div(grad u / W) over
model-space domains with the boundary condition <grad u, gamma>/W = phi:
translating-soliton solves by one bordered Newton solve, time
integration with gradient/oscillation monitors, existence-hypothesis
checks with closed-form radius bounds, and verification harnesses.
"""

from .geometry import CurvatureModel, Geometry, make_geometry
from .grids import AngleData, Field, Grid, angle_from_spec, make_field, make_grid
from .operators import (capillary_jacobian, capillary_residual, discrete_speed,
                        field_mean, flux_balance, ghost_fill, integrate_boundary,
                        integrate_domain, node_area_element)
from .flow import (FlowHistory, FlowState, SolverError, StepPolicy, auto_dt,
                   eta_monitor, initial_state, run_until, step)
from .soliton import (NewtonPolicy, SolitonResult, solve_capillary_eps,
                      solve_soliton, verify_compatibility)
from .existence import (HypothesisReport, check_existence,
                        effective_ricci_constant, radius_bound_ch,
                        radius_bound_hyperbolic)
from .diagnostics import (ConvergenceReport, catalog_cases, contraction_test,
                          refinement_study, run_to_stationarity,
                          verify_convergence)
from .config import (ConfigError, RunConfig, build_problem, emit_outputs, field_table,
                     parse_config)

__version__ = "0.1.0"
