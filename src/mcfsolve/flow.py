"""Time integration of the contact-angle graph flow u_t = W div(grad u / W).

Two schemes:

* ``explicit``: forward Euler on the nonlinear operator, with the usual
  parabolic step bound dt <= safety * h^2 (the principal coefficient is
  1/W^2 <= 1; the disk adds the angular term).
* ``semi_implicit`` (default): backward Euler on the flux form with W
  factors and boundary normal slopes lagged at the previous step, solved
  in increment form (I - dt*M) du = dt*F(u).  Unconditionally stable for
  the lagged linearization; dt defaults to h_r.  The lagged matrix is a
  strictly diagonally dominant M-matrix with a symmetric pattern (see
  operators.semi_implicit_matrix), so SuperLU factors it without pivoting
  in a minimum-degree ordering of A^T + A, which fills in less than the
  default column ordering with partial pivoting.

Each step appends one history row (t, max_W, osc, speed estimate, max of
W*eta) where eta is the weighted gradient monitor

    eta = exp(K (u - C t)) * (S d + 1 - (phi / W) <grad u, grad d>)

with d the smoothed boundary distance.  The history is the empirical
record behind the uniform gradient bound and bounded-drift checks.
Recording a row costs the same however long the history is: the speed
window is found by bisection on the time list.  What does not change from
step to step is computed once: per grid, the distance terms
(``Grid.distance_terms``), the monitor's S d + 1 for the default S
(``Grid.monitor_base``) and the quadrature total (``Grid.quad_total``);
per grid and angle, the extension of phi times the distance derivative,
phi d' (``AngleData.monitor_tilt``); per angle, the 1-D ghost closure's
normal slope (``AngleData.normal_slope``).  The new interior is
checked for finiteness once, by ops.ghost_fill; the step turns its
ValueError into a SolverError.

A step reads one flux record per field (``FlowState.terms``, an
operators.FluxTerms): the record of the new field gives max W and the
monitor of its history row, and the next step's right-hand side and lagged
matrix, so the slopes and area elements are computed once per step.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Tuple

import numpy as np
from scipy.sparse.linalg import splu

from .grids import AngleData, Field, Grid, make_field
from . import operators as ops

__all__ = [
    "StepPolicy",
    "FlowHistory",
    "FlowState",
    "SolverError",
    "initial_state",
    "auto_dt",
    "step",
    "run_until",
    "speed_estimate",
    "eta_monitor",
]


class SolverError(RuntimeError):
    """A numerical procedure failed (blow-up, stagnation, no convergence)."""


@dataclass
class StepPolicy:
    scheme: str = "semi_implicit"
    dt: Optional[float] = None  # None = auto
    safety: float = 0.4

    def __post_init__(self):
        if self.scheme not in ("semi_implicit", "explicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")
        if not 0 < self.safety <= 1:
            raise ValueError("safety must lie in (0, 1]")


@dataclass
class FlowHistory:
    t: List[float] = dc_field(default_factory=list)
    mean_u: List[float] = dc_field(default_factory=list)
    max_w: List[float] = dc_field(default_factory=list)
    osc_u: List[float] = dc_field(default_factory=list)
    speed: List[float] = dc_field(default_factory=list)
    max_weta: List[float] = dc_field(default_factory=list)

    def append(self, t, mean_u, max_w, osc_u, speed, max_weta):
        self.t.append(float(t))
        self.mean_u.append(float(mean_u))
        self.max_w.append(float(max_w))
        self.osc_u.append(float(osc_u))
        self.speed.append(float(speed))
        self.max_weta.append(float(max_weta))

    def rows(self):
        """(t, max_W, osc_u, speed, max_Weta) tuples."""
        return list(zip(self.t, self.max_w, self.osc_u, self.speed, self.max_weta))

    def __len__(self):
        return len(self.t)


@dataclass
class FlowState:
    grid: Grid
    field: Field
    history: FlowHistory
    snapshots: List[Tuple[float, np.ndarray]] = dc_field(default_factory=list)
    _terms: tuple = dc_field(default=(None, None), init=False, repr=False, compare=False)

    @property
    def t(self) -> float:
        return self.field.t

    @property
    def terms(self) -> ops.FluxTerms:
        """The flux record of the current field, computed once per field."""
        values, terms = self._terms
        if values is not self.field.values:
            terms = ops.flux_terms(self.grid, self.field.values)
            self._terms = (self.field.values, terms)
        return terms


def auto_dt(grid: Grid, policy: StepPolicy) -> float:
    if policy.dt is not None:
        return policy.dt
    if policy.scheme == "semi_implicit":
        return grid.h_r
    rate = 1.0 / grid.h_r ** 2
    if grid.is_disk:
        r_min = grid.nodes[0]
        rate += 1.0 / (r_min * grid.h_theta) ** 2
    return policy.safety / rate


def eta_monitor(grid: Grid, field: Field, angle: AngleData,
                K: float = 5.0, S: Optional[float] = None, C: float = 0.0,
                terms: Optional[ops.FluxTerms] = None):
    """Maximum of W*eta over the grid and its location.

    S defaults to the Hessian bound of d plus 2.  ``terms``, the field's
    flux record if the caller has it, saves recomputing the slopes and W.
    Evaluated in log space as log(W (S d + 1) - tilt c) + K (u - C t), with
    c the centered radial slope and tilt = phi d' its coefficient in
    phi <grad u, grad d>.  The log's argument stays above (1 - phi0) W > 0
    because |phi| |grad u| < W and |grad d| <= 1.  The default S d + 1
    (Grid.monitor_base) and the tilt (AngleData.monitor_tilt) are computed
    once per grid.
    """
    if K <= 0 or (S is not None and S <= 0):
        raise ValueError("monitor constants K, S must be positive")
    base = grid.monitor_base if S is None else S * grid.distance_terms[0] + 1.0
    if terms is None:
        c, _, w_node = ops.node_terms(grid, field.values)
    else:
        c, w_node = terms.c, terms.w_node
    tilt = angle.monitor_tilt(grid)
    log_weta = np.log(w_node * base - tilt * c) + K * (field.interior - C * field.t)
    flat = int(log_weta.argmax())
    idx = np.unravel_index(flat, grid.shape) if grid.is_disk else (flat,)
    return float(np.exp(log_weta.ravel()[flat])), idx


def speed_estimate(history: FlowHistory, tau: float) -> float:
    """Windowed mean-height velocity (mean u(t) - mean u(t - tau)) / tau."""
    if len(history) < 2:
        raise ValueError("insufficient history for a speed estimate")
    t_now = history.t[-1]
    target = t_now - tau
    if target < history.t[0] - 1e-12:
        raise ValueError("insufficient history for the requested window")
    idx = _window_start(history.t, target)
    dt_w = t_now - history.t[idx]
    return (history.mean_u[-1] - history.mean_u[idx]) / dt_w


def _window_start(t: List[float], target: float) -> int:
    """First index with t >= target (1e-12 slack), at most len(t) - 2;
    bisection keeps the lookup O(log n) in the history length."""
    return min(bisect.bisect_left(t, target + 1e-12), len(t) - 2)


def _record(state: FlowState, angle: AngleData, tau: float, eta_k: float):
    """Append the history row of the current field, which ghost_fill has
    already checked to be finite."""
    grid, field = state.grid, state.field
    with np.errstate(over="ignore"):  # a diverging run may log inf monitors
        terms = state.terms
        interior = field.interior
        mean_u = float(np.vdot(grid.quad_row, interior)) / grid.quad_total
        osc = float(interior.max() - interior.min())
        try:
            spd = speed_estimate(state.history, tau) if len(state.history) else math.nan
        except ValueError:
            spd = math.nan
        c_for_eta = 0.0 if math.isnan(spd) else spd
        weta, _ = eta_monitor(grid, field, angle, K=eta_k, C=c_for_eta, terms=terms)
        state.history.append(field.t, mean_u, float(terms.w_node.max()), osc, spd, weta)


def initial_state(grid: Grid, angle: AngleData, u0=0.0, eta_k: float = 5.0) -> FlowState:
    """Ghost-close the initial data and record the t = 0 history row."""
    if isinstance(u0, Field):
        f = Field(u0.values.copy(), 0.0)
        f = ops.ghost_fill(grid, f, angle)
    else:
        f = ops.ghost_fill(grid, make_field(grid, u0, t=0.0), angle)
    state = FlowState(grid=grid, field=f, history=FlowHistory())
    _record(state, angle, 1.0, eta_k)
    return state


def step(state: FlowState, policy: StepPolicy, angle: AngleData,
         tau: Optional[float] = None, eta_k: float = 5.0) -> FlowState:
    """Advance one time step; returns the same FlowState with new field and
    an appended history row."""
    grid, field = state.grid, state.field
    dt = auto_dt(grid, policy)
    interior = field.interior
    terms = state.terms

    if policy.scheme == "explicit":
        with np.errstate(all="ignore"):  # blow-up is reported, not warned
            rhs = ops.mcf_from_extended(grid, terms)
            new_int = interior + dt * rhs
        blow_up = "explicit step produced non-finite values (time step too large)"
    else:
        rhs = dt * ops.mcf_from_extended(grid, terms)
        if np.any(rhs):
            a_mat = ops.semi_implicit_matrix(grid, terms, angle, dt)
            try:
                lu = splu(a_mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                          options={"SymmetricMode": True})
                delta = lu.solve(rhs.ravel()).reshape(grid.shape)
            except RuntimeError as exc:
                raise SolverError(f"semi-implicit solve failed: {exc}") from exc
        else:
            delta = rhs  # stationary data stay put exactly
        new_int = interior + delta
        blow_up = "semi-implicit solve produced non-finite values"

    new_field = Field(_with_interior(grid, new_int), field.t + dt)
    try:  # ghost_fill's finiteness check is the step's
        state.field = ops.ghost_fill(grid, new_field, angle)
    except ValueError as exc:
        raise SolverError(blow_up) from exc
    _record(state, angle, tau if tau is not None else max(1.0, 10.0 * dt), eta_k)
    return state


def _with_interior(grid: Grid, interior: np.ndarray) -> np.ndarray:
    values = np.empty(grid.ext_shape)
    values[0] = 0.0
    values[-1] = 0.0
    values[1:-1] = interior
    return values


def run_until(state: FlowState, policy: StepPolicy, angle: AngleData,
              t_end: Optional[float] = None, speed_tol: Optional[float] = None,
              max_steps: int = 10_000_000, snapshot_interval: Optional[float] = None,
              eta_k: float = 5.0) -> FlowState:
    """Iterate the flow until t_end, or until the windowed speed estimate
    is stationary: |speed(t) - speed(t - tau)| < speed_tol with
    tau = max(1, 10 dt).  Snapshots of the field are kept every
    snapshot_interval time units; the step that would cross a snapshot
    time is shortened to land on it, as the last step lands on t_end."""
    if t_end is None and speed_tol is None:
        raise ValueError("need a stop criterion: t_end and/or speed_tol")
    dt = auto_dt(state.grid, policy)
    tau = max(1.0, 10.0 * dt)
    hist = state.history
    full_step = StepPolicy(policy.scheme, dt, policy.safety)

    if snapshot_interval is not None and not state.snapshots:
        state.snapshots.append((state.t, state.field.interior.copy()))
    next_snap = 1
    if snapshot_interval is not None:
        # resume-safe: continue labeling after snapshots already taken
        next_snap = int(math.floor((state.t + 1e-9) / snapshot_interval)) + 1

    for _ in range(max_steps):
        if t_end is not None and state.t >= t_end - 1e-12:
            return state
        dt_step = dt
        if t_end is not None:
            dt_step = min(dt_step, t_end - state.t)
        if snapshot_interval is not None:
            dt_step = min(dt_step, next_snap * snapshot_interval - state.t)
        # a step shortened to land on t_end or a snapshot gets its own policy
        step(state, full_step if dt_step == dt else StepPolicy(policy.scheme, dt_step, policy.safety),
             angle, tau=tau, eta_k=eta_k)

        if snapshot_interval is not None:
            while state.t >= next_snap * snapshot_interval - 1e-9:
                state.snapshots.append((next_snap * snapshot_interval, state.field.interior.copy()))
                next_snap += 1

        if speed_tol is not None and state.t >= 2.0 * tau:  # a NaN speed never stops the run
            if abs(hist.speed[-1] - hist.speed[_window_start(hist.t, state.t - tau)]) < speed_tol:
                return state
    if t_end is not None and state.t >= t_end - 1e-12:
        return state  # the last allowed step landed on t_end
    waiting = " and ".join(f"{k} = {v!r}" for k, v in (("t_end", t_end), ("speed_tol", speed_tol))
                           if v is not None)
    last = (hist.t[-1], hist.max_w[-1], hist.osc_u[-1], hist.speed[-1], hist.max_weta[-1])
    raise SolverError(f"flow stopped at t = {state.t!r} after {max_steps} steps without reaching "
                      f"{waiting}; last history row (t, max_W, osc_u, speed, max_Weta) = {last}")
