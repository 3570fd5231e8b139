"""Cross-cutting verification: convergence to the translator, two-solution
contraction, and grid-refinement order studies.

The convergence verdict mirrors the qualitative theory: heights settle to
the translator profile up to an additive constant (checked through the
oscillation of the difference), the last step's speed matches the discrete
translator speed C_h, and the gradient envelope max W stops growing.
A flow runs to stationarity on run_until's rule, osc(u_new - u_old) / dt
below 1e-6, which holds exactly on the discrete translator.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import PRESETS, build_problem, parse_config
from .flow import FlowState, StepPolicy, auto_dt, initial_state, run_until, step
from .geometry import make_geometry
from .grids import AngleData, Grid, angle_values
from .soliton import SolitonResult, solve_soliton
from . import operators as ops

# run_to_stationarity's stop rule (run_until's): osc(u_new - u_old) / dt of
# the last step below this
_STATIONARY_SPEED_TOL = 1e-6
# run_to_stationarity's time budget, far above the stationarity times of the
# catalog's flows from u = 0 (at most 3.9); a time, not a step count, so that
# a small dt (the explicit scheme's 0.4 h_r^2, a fine grid) gets as long a run
_STATIONARY_T_MAX = 200.0

__all__ = ["ConvergenceReport", "verify_convergence", "contraction_test",
           "refinement_study", "run_to_stationarity", "catalog_cases"]


@dataclass
class ConvergenceReport:
    osc_trace: List[Tuple[float, float]]
    drift_trace: List[Tuple[float, float]]
    w_envelope: List[Tuple[float, float]]
    checks: dict
    passed: bool

    def to_dict(self):
        return {"checks": {k: {"value": v[0], "tol": v[1], "pass": v[2]}
                           for k, v in self.checks.items()},
                "pass": self.passed}


def _grids_match(a: Grid, b: Grid) -> bool:
    return (a.geom == b.geom and a.n_r == b.n_r and a.n_theta == b.n_theta)


def verify_convergence(flow_state: FlowState, soliton: SolitonResult,
                       tol: float) -> ConvergenceReport:
    """Check a completed flow against a computed translator.

    Passes when (a) the final oscillation of u - u_inf is below tol,
    (b) the last step's speed matches the discrete speed C_h within tol,
    and (c) max W does not grow over the second half of the run.
    ``drift_trace`` holds max |u - C_h t - u_inf| per snapshot.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if not _grids_match(flow_state.grid, soliton.grid):
        raise ValueError("flow and soliton were computed on different grids")
    grid = flow_state.grid
    u_inf = soliton.u_inf.interior

    osc_trace, drift_trace = [], []
    for t, snap in flow_state.snapshots:
        diff = snap - u_inf
        osc_trace.append((t, float(np.max(diff) - np.min(diff))))
        drift_trace.append((t, float(np.max(np.abs(snap - soliton.C_h * t - u_inf)))))

    hist = flow_state.history
    final_diff = flow_state.field.interior - u_inf
    final_osc = float(np.max(final_diff) - np.min(final_diff))
    speed_gap = abs(hist.speed[-1] - soliton.C_h)

    t_arr = np.asarray(hist.t)
    w_arr = np.asarray(hist.max_w)
    mid = hist.t[-1] / 2.0
    first = float(np.max(w_arr[t_arr <= mid]))
    second = float(np.max(w_arr[t_arr > mid])) if np.any(t_arr > mid) else first
    w_growth = second - first

    checks = {
        "final_osc": (final_osc, tol, final_osc < tol),
        "speed_gap": (speed_gap, tol, speed_gap < tol),
        "w_envelope_growth": (w_growth, tol, w_growth <= tol),
    }
    passed = all(ok for _, _, ok in checks.values())
    return ConvergenceReport(osc_trace=osc_trace, drift_trace=drift_trace,
                             w_envelope=list(zip(hist.t, hist.max_w)),
                             checks=checks, passed=passed)


def contraction_test(grid: Grid, u0_a, u0_b, angle: AngleData,
                     policy: StepPolicy, t_final: float,
                     step_tol: float = 1e-10) -> dict:
    """Run two flows of the same problem in lockstep and track
    F(t) = osc(u_a - u_b).  Passes when F never increases by more than
    step_tol per step and has strictly decreased by t_final unless the
    initial difference was constant.  t_final must be positive and finite."""
    if not (math.isfinite(t_final) and t_final > 0):
        raise ValueError(f"t_final must be positive and finite, got {t_final!r}")
    sa = initial_state(grid, angle, u0_a)
    sb = initial_state(grid, angle, u0_b)
    dt = auto_dt(grid, policy)
    diff = sa.field.interior - sb.field.interior
    f0 = float(np.max(diff) - np.min(diff))
    trace = [(0.0, f0)]
    max_increase = 0.0
    n_steps = max(1, int(math.ceil(t_final / dt - 1e-12)))
    for _ in range(n_steps):
        step(sa, policy, angle)
        step(sb, policy, angle)
        diff = sa.field.interior - sb.field.interior
        f_now = float(np.max(diff) - np.min(diff))
        max_increase = max(max_increase, f_now - trace[-1][1])
        trace.append((sa.t, f_now))
    f_end = trace[-1][1]
    started_constant = f0 <= 1e-6
    strictly_decreased = f_end < f0
    passed = max_increase <= step_tol and (started_constant or strictly_decreased)
    return {
        "F_trace": trace,
        "F_initial": f0,
        "F_final": f_end,
        "max_step_increase": max_increase,
        "strictly_decreased": strictly_decreased,
        "started_constant": started_constant,
        "pass": passed,
    }


def run_to_stationarity(grid: Grid, angle: AngleData, policy: StepPolicy,
                        u0=0.0, snapshot_interval: Optional[float] = 0.5
                        ) -> Tuple[FlowState, float]:
    """Flow until a step's velocity is uniform to _STATIONARY_SPEED_TOL,
    osc(u_new - u_old) / dt below it (run_until's rule), then keep flowing
    to twice that time, so the second half of the run shows whether the
    gradient stays bounded.  Returns the state and the stationarity time.
    A flow that is not stationary within the steps of dt that reach
    _STATIONARY_T_MAX, such as one that diverges, raises run_until's
    SolverError."""
    state = initial_state(grid, angle, u0)
    run_until(state, policy, angle, speed_tol=_STATIONARY_SPEED_TOL,
              max_steps=math.ceil(_STATIONARY_T_MAX / auto_dt(grid, policy)),
              snapshot_interval=snapshot_interval)
    t_stat = state.t
    run_until(state, policy, angle, t_end=2.0 * t_stat, snapshot_interval=snapshot_interval)
    return state, t_stat


def _richardson_orders(errors: Sequence[float]) -> List[float]:
    out = []
    for e0, e1 in zip(errors, errors[1:]):
        if e0 > 0 and e1 > 0:
            out.append(math.log2(e0 / e1))
        else:
            out.append(math.inf)
    return out


def refinement_study(config, levels: int) -> dict:
    """Re-solve a configured case on grids h, h/2, h/4, ... and report
    observed convergence orders for the quadrature speed and the profile.

    When the built geometry and the angle values are the grim_reaper
    preset's (however the config writes them), errors are taken against
    the closed-form grim reaper, C = 1/2 and u = -2 log cos(x/2); otherwise
    against the next finer level.
    """
    if levels < 3:
        raise ValueError("refinement study needs at least 3 levels")
    cfg = parse_config(config)
    reaper = parse_config(PRESETS["grim_reaper"])
    closed_form = (make_geometry(cfg.geometry) == make_geometry(reaper.geometry)
                   and np.array_equal(angle_values(cfg.angle), angle_values(reaper.angle)))

    rows = []
    profiles = []
    for lev in range(levels):
        s = cfg.solver  # N_theta is read on the disk only
        scaled = cfg.with_resolution(s["N_r"] * 2 ** lev, s["N_theta"] * 2 ** lev)
        geom, grid, angle = build_problem(scaled)
        sol = solve_soliton(grid, angle, scaled.newton_policy())
        rows.append({"level": lev, "h_r": grid.h_r, "C_quad": sol.C_quad,
                     "C_eps": sol.C_eps, "C_h": sol.C_h})
        profiles.append((grid, sol.u_inf.interior))

    # each level against its reference: the closed form, or the next level
    c_errors, u_errors = [], []
    for i in range(levels if closed_form else levels - 1):
        g0, p0 = profiles[i]
        if closed_form:
            c_ref = 0.5
            exact = -2.0 * np.log(np.cos(g0.nodes / 2.0))
            ref = exact - ops.field_mean(g0, exact)
        else:
            c_ref = rows[i + 1]["C_quad"]
            g1, p1 = profiles[i + 1]
            if g0.is_disk:
                # theta nodes nest under doubling; interpolate radially
                fine_on_coarse_rays = p1[:, :: g1.n_theta // g0.n_theta]
                ref = np.vstack([np.interp(g0.nodes, g1.nodes, fine_on_coarse_rays[:, j])
                                 for j in range(g0.n_theta)]).T
            else:
                ref = np.interp(g0.nodes, g1.nodes, p1)
        c_errors.append(abs(rows[i]["C_quad"] - c_ref))
        diff = p0 - ref
        u_errors.append(float(np.max(diff) - np.min(diff)))

    for i, row in enumerate(rows):
        row["C_error"] = c_errors[i] if i < len(c_errors) else math.nan
        row["u_error"] = u_errors[i] if i < len(u_errors) else math.nan
    return {
        "rows": rows,
        "c_errors": c_errors,
        "u_errors": u_errors,
        "c_orders": _richardson_orders(c_errors),
        "u_orders": _richardson_orders(u_errors),
    }


def catalog_cases() -> List[Tuple[str, dict]]:
    """Reference problem set exercising every geometry in the catalog."""
    return [
        ("grim_reaper", copy.deepcopy(PRESETS["grim_reaper"])),
        ("interval_mild", {
            "geometry": {"kind": "interval", "a": -1.0, "b": 1.0},
            "angle": {"phi": "const:-0.2"},
            "solver": {"N_r": 200},
        }),
        ("flat_ball_n2", {
            "geometry": {"kind": "radial_ball", "n": 2, "R": 1.0,
                         "curvature": {"model": "flat"}},
            "angle": {"phi": "const:-0.1"},
            "solver": {"N_r": 200},
        }),
        ("flat_ball_n3", {
            "geometry": {"kind": "radial_ball", "n": 3, "R": 1.0,
                         "curvature": {"model": "flat"}},
            "angle": {"phi": "const:-0.1"},
            "solver": {"N_r": 200},
        }),
        ("hyperbolic_ball_n2", {
            "geometry": {"kind": "radial_ball", "n": 2, "R": 0.3,
                         "curvature": {"model": "hyperbolic", "K": 1.0}},
            "angle": {"phi": "const:-0.1"},
            "solver": {"N_r": 160},
        }),
        ("pinched_ball_n3", {
            "geometry": {"kind": "radial_ball", "n": 3, "R": 0.35,
                         "curvature": {"model": "pinched_ch", "K": 1.0}},
            "angle": {"phi": "const:-0.1"},
            "solver": {"N_r": 160},
        }),
        ("disk_fourier", {
            "geometry": {"kind": "polar_disk", "R": 1.0},
            "angle": {"phi": "fourier:0.1,0.05,0.0"},
            "solver": {"N_r": 40, "N_theta": 40},
        }),
    ]
