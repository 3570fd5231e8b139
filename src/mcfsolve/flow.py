"""Time integration of the contact-angle graph flow u_t = W div(grad u / W).

Two schemes:

* ``explicit``: forward Euler on the nonlinear operator; dt defaults to
  _EXPLICIT_SAFETY = 0.4 times the parabolic bound h^2 (the principal
  coefficient is 1/W^2 <= 1; the disk adds the angular term), and a set
  dt is taken as it is.
* ``semi_implicit`` (default): backward Euler on the flux form with W
  factors and boundary normal slopes lagged at the previous step, solved
  in increment form (I - dt*M) du = dt*F(u).  Unconditionally stable for
  the lagged linearization; dt defaults to h_r.  The lagged matrix is a
  strictly diagonally dominant M-matrix with a symmetric pattern (see
  operators.semi_implicit_matrix), so SuperLU factors it without pivoting
  in a minimum-degree ordering of A^T + A, which fills in less than the
  default column ordering with partial pivoting, and with small
  supernodes (relax=1, panel_size=1), which factor the disk's matrix
  about a third faster with the same fill.

The lagged LU is reused along the flow.  M reads u only through the
factors W, W_f and (disk) W_t, and slopes do not see the shift by C t, so
as the flow converges to the translator the matrix settles.  A step keeps
its factorization on the FlowState and reuses it while dt is the one it
was factored with and each factor is within ``_REFACTOR_TOL`` = 1e-3 of
the values it was factored at, in max norm; otherwise it assembles and
factors I - dt*M afresh.  The factors share their trailing shape, so the
state keeps them stacked in one array, and the test is one max over the
stack: it is at most the tolerance exactly when each factor's max is.
Reuse keeps the translator exact: every row of M sums to zero, so
(I - dt*M_old)^-1 1 = 1 for any frozen M_old, and as the right-hand side
is the exact dt*F(u), a step on the discrete translator (F = C_h at every
node) still moves u by exactly C_h dt.  A matrix close to the current one
changes only how the transient decays; one frozen far from it, at rough
data, can make the step unstable, so the tolerance is fixed and small.
Since W >= 1, the absolute tolerance is also a relative one: each lagged
weight moves by at most about 2e-3.  The state keeps the LUs of the last
two step sizes, so a step shortened to land on t_end or a snapshot factors
its own LU (or reuses the one of an earlier shortened step of the same dt)
and leaves the full-dt LU for the full step after it, which reuses it
under the same test; a run that changes dt for good keeps the LU of its
new dt.

Each step appends one history row: t; the mean of u (the quadrature of
operators.integrate_domain over the domain's volume); max W; osc, the max
minus the min of u; the speed, speed_estimate over the rows before it with
the window tau = 10 dt (_WINDOW_STEPS steps of the run's dt), NaN while
those rows do not yet reach back tau; and max W*eta, with eta the weighted
gradient monitor

    eta = exp(K (u - C t)) * (S d + 1 - (phi / W) <grad u, grad d>)

with d the smoothed boundary distance, K = 5 and S = C_d + 2 (the Hessian
bound of d plus 2) fixed, and C the step's own mean-height speed, the
difference of the last two means over their dt (0 on the first row, at
t = 0), so no row waits for the speed window.  The history is the
empirical record behind the uniform gradient bound and bounded-drift
checks.  Recording a row costs the same however long the history is: the
speed window is found by bisection on the time list.
What does not change from step to step is computed once: per flow, in
initial_state, the monitor's S d + 1 and phi d' (the extension of phi
times the distance derivative), kept on the FlowState; per grid, the
quadrature total (``Grid.quad_total``); per angle, the 1-D ghost
closure's normal slope (``AngleData.normal_slope``).

run_until's speed_tol stops the run on a windowless measure, osc(u_new -
u_old) / dt of the last step: exactly 0 on the discrete translator, where
a step moves every node by C_h dt, so a flow stops at the rate it decays,
whatever dt.  run_until takes it from the previous field's interior (a
step writes its new field into a new array), only when speed_tol is set,
and once the row's windowed speed is defined.

A step allocates the new ghost-closed array once and writes the updated
interior straight into it.  It scans that interior once, for its max and
min: both are finite exactly when every entry is, so a non-finite one
raises a SolverError and leaves the state as it was, and their difference
is the row's osc.  It then sets the ghosts in place with
ops.close_ghosts, the closure of ops.extend_values and ops.ghost_fill.
The update and the history row run under one np.errstate, which silences
the warnings of a blow-up the step reports itself.  Each field comes with
one flux record (``FlowState.terms``, an operators.FluxTerms, set together
with ``FlowState.field``): the record of the new field gives max W and the
monitor of its history row, and the next step's right-hand side and lagged
matrix, so the slopes and area elements are computed once per step.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field as dc_field, replace
from typing import ClassVar, List, Optional, Tuple

import numpy as np
from scipy.sparse.linalg import splu

from .grids import AngleData, Field, Grid, make_field
from . import operators as ops

# reuse the lagged LU while W, W_f and W_t move less than this (max norm)
_REFACTOR_TOL = 1e-3
# the monitor's K in exp(K (u - C t)); the gradient estimate holds for any K > 0
_ETA_K = 5.0
# the explicit step's default dt as a share of the parabolic bound 1 / rate
_EXPLICIT_SAFETY = 0.4
# the speed column's window tau, in steps of the run's dt
_WINDOW_STEPS = 10

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

    def __post_init__(self):
        if self.scheme not in ("semi_implicit", "explicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")


@dataclass
class FlowHistory:
    t: List[float] = dc_field(default_factory=list)
    mean_u: List[float] = dc_field(default_factory=list)
    max_w: List[float] = dc_field(default_factory=list)
    osc_u: List[float] = dc_field(default_factory=list)
    speed: List[float] = dc_field(default_factory=list)
    max_weta: List[float] = dc_field(default_factory=list)
    # the names of a row's entries, as history.csv heads them
    COLUMNS: ClassVar[Tuple[str, ...]] = ("t", "max_W", "osc", "speed", "max_Weta")

    def row(self, k: int) -> tuple:
        """Row k, its entries in the order of COLUMNS."""
        return self.t[k], self.max_w[k], self.osc_u[k], self.speed[k], self.max_weta[k]

    def rows(self) -> list:
        """Every row, as row gives it."""
        return [self.row(k) for k in range(len(self))]

    def __len__(self):
        return len(self.t)


@dataclass
class FlowState:
    grid: Grid
    field: Field
    # the flux record of field (operators.flux_terms), set together with it
    terms: ops.FluxTerms = dc_field(repr=False, compare=False)
    history: FlowHistory
    # the monitor's S d + 1 and phi d' (_monitor_terms), computed once per flow
    monitor: Tuple[np.ndarray, np.ndarray] = dc_field(repr=False, compare=False)
    snapshots: List[Tuple[float, np.ndarray]] = dc_field(default_factory=list)
    # up to two lagged LUs of distinct dt, most recently used first, each with
    # its dt and the stacked W factors it was factored at
    _lagged: list = dc_field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def t(self) -> float:
        return self.field.t


def auto_dt(grid: Grid, policy: StepPolicy) -> float:
    if policy.dt is not None:
        return policy.dt
    if policy.scheme == "semi_implicit":
        return grid.h_r
    rate = 1.0 / grid.h_r ** 2
    if grid.is_disk:
        rate += 1.0 / (grid.sigma_nodes[0] * grid.h_theta) ** 2
    return _EXPLICIT_SAFETY / rate


def _monitor_terms(grid: Grid, angle: AngleData):
    """The monitor's S d + 1, with S = C_d + 2, and its tilt phi d', the
    extension of phi times the coordinate derivative of the smoothed
    distance d; both shaped to broadcast on the interior."""
    d, hess_d = grid.geom.smoothed_distance(grid.nodes)
    dd = grid.geom.smoothed_distance_gradient(grid.nodes)
    shape = (-1, 1) if grid.is_disk else (-1,)
    d, dd = np.reshape(d, shape), np.reshape(dd, shape)
    return (hess_d + 2.0) * d + 1.0, angle.extension(grid) * dd


def eta_monitor(grid: Grid, field: Field, angle: AngleData, C: float = 0.0,
                terms: Optional[ops.FluxTerms] = None,
                monitor: Optional[Tuple[np.ndarray, np.ndarray]] = None):
    """Maximum of W*eta over the grid and its location.

    K = 5 and S = C_d + 2, the Hessian bound of d plus 2 (see the module
    docstring).  ``terms``, the field's flux record, and ``monitor``, the
    pair (S d + 1, phi d') of _monitor_terms, save recomputing them if the
    caller has them, as a flow does.  Evaluated in log space as
    log(W (S d + 1) - tilt c) + K u, with c the centered radial slope and
    tilt = phi d' its coefficient in phi <grad u, grad d>; K C t shifts
    every node alike, so it is subtracted from the argmax's value only.
    The log's argument stays above (1 - phi0) W > 0 because
    |phi| |grad u| < W and |grad d| <= 1.
    """
    if terms is None:
        terms = ops.flux_terms(grid, field.values)
    base, tilt = _monitor_terms(grid, angle) if monitor is None else monitor
    log_weta = np.log(terms.w_node * base - tilt * terms.c)
    log_weta += _ETA_K * field.interior
    i = int(log_weta.argmax())
    return (float(np.exp(log_weta.flat[i] - _ETA_K * C * field.t)),
            divmod(i, grid.n_theta) if grid.is_disk else (i,))


def speed_estimate(history: FlowHistory, tau: float) -> float:
    """Windowed mean-height velocity (mean u(t) - mean u(t - tau)) / tau."""
    if len(history) < 2:
        raise ValueError("insufficient history for a speed estimate")
    if history.t[-1] - tau < history.t[0] - 1e-12:
        raise ValueError("insufficient history for the requested window")
    return _window_speed(history, tau)


def _window_speed(history: FlowHistory, tau: float) -> float:
    """speed_estimate's quotient, on a history that spans the window tau."""
    times, means = history.t, history.mean_u
    k = _window_start(times, times[-1] - tau)
    return (means[-1] - means[k]) / (times[-1] - times[k])


def _window_start(t: List[float], target: float) -> int:
    """First index with t >= target (1e-12 slack), at most len(t) - 2;
    bisection keeps the lookup O(log n) in the history length."""
    return min(bisect.bisect_left(t, target + 1e-12), len(t) - 2)


def _record(state: FlowState, angle: AngleData, tau: float, hi, lo):
    """Append the history row of the state's field, read off its flux
    record; the interior is already known to be finite and has max hi and
    min lo.  The speed is speed_estimate over the earlier rows, NaN while
    they do not yet span the window tau; the monitor's C is the step's own
    mean-height speed."""
    grid, field, terms, hist = state.grid, state.field, state.terms, state.history
    times = hist.t
    mean_u = float(np.vdot(grid.quad_row, field.interior)) / grid.quad_total
    # speed_estimate's own test of the window, without its ValueError
    if len(times) >= 2 and times[-1] - tau >= times[0] - 1e-12:
        spd = _window_speed(hist, tau)
    else:
        spd = math.nan
    c_step = (mean_u - hist.mean_u[-1]) / (field.t - times[-1]) if times else 0.0
    weta, _ = eta_monitor(grid, field, angle, c_step, terms, state.monitor)
    times.append(float(field.t))
    hist.mean_u.append(mean_u)
    hist.max_w.append(float(terms.w_node.max()))
    hist.osc_u.append(float(hi - lo))
    hist.speed.append(spd)
    hist.max_weta.append(weta)


def initial_state(grid: Grid, angle: AngleData, u0=0.0) -> FlowState:
    """Ghost-close the initial data (a scalar, an interior array or a
    Field, whose ghosts are rebuilt from its interior), compute the flow's
    monitor terms and record the t = 0 history row."""
    if isinstance(u0, Field):
        u0 = u0.interior
    f = ops.ghost_fill(grid, make_field(grid, u0, t=0.0), angle)
    state = FlowState(grid=grid, field=f, terms=ops.flux_terms(grid, f.values),
                      history=FlowHistory(), monitor=_monitor_terms(grid, angle))
    with np.errstate(all="ignore"):  # a steep start may log an inf monitor
        _record(state, angle, 1.0, f.interior.max(), f.interior.min())
    return state


def step(state: FlowState, policy: StepPolicy, angle: AngleData,
         tau: Optional[float] = None) -> FlowState:
    """Advance one time step; returns the same FlowState with new field and
    an appended history row.  A semi-implicit step reuses a lagged LU of the
    state while its W factors stay within _REFACTOR_TOL (see the module
    docstring)."""
    grid, field, terms = state.grid, state.field, state.terms
    dt = auto_dt(grid, policy)
    interior = field.interior
    ext = np.empty_like(field.values)
    new_int = ext[1:-1]

    with np.errstate(all="ignore"):  # blow-up is reported, not warned
        if policy.scheme == "explicit":
            np.add(interior, dt * ops.mcf_from_extended(grid, terms), out=new_int)
            blow_up = "explicit step produced non-finite values (time step too large)"
        else:
            rhs = dt * ops.mcf_from_extended(grid, terms)
            if rhs.any():
                try:
                    lu = _lagged_lu(state, terms, angle, dt)
                    delta = lu.solve(rhs.ravel()).reshape(rhs.shape)
                except RuntimeError as exc:
                    raise SolverError(f"semi-implicit solve failed: {exc}") from exc
            else:
                delta = rhs  # stationary data stay put exactly
            np.add(interior, delta, out=new_int)
            blow_up = "semi-implicit solve produced non-finite values"

        # max and min are both finite exactly when every entry is, and give osc
        hi, lo = new_int.max(), new_int.min()
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise SolverError(blow_up)
        ops.close_ghosts(grid, ext, angle)  # ghost_fill's closure, on a finite interior
        state.field, state.terms = Field(ext, field.t + dt), ops.flux_terms(grid, ext)
        _record(state, angle, tau if tau is not None else _WINDOW_STEPS * dt, hi, lo)
    return state


def _lagged_lu(state: FlowState, terms: ops.FluxTerms, angle: AngleData, dt: float):
    """LU of I - dt*M at the flux record terms.  A kept LU is reused if its
    dt is dt and W, W_f and (disk) W_t are all within _REFACTOR_TOL of the
    factors it was built at, in max norm; else the matrix is assembled and
    factored afresh.  The new LU replaces the one of its dt, or else the
    less recently used one, so a step shortened onto a snapshot or t_end
    leaves the full step's LU for the step after it, and a run that changes
    dt for good keeps the LU of its new dt.  The factors are compared as one
    stacked array (they share their trailing shape), whose max is at most
    the tol exactly when each factor's is."""
    factors = np.concatenate((terms.w_node, terms.wf_r) if terms.wf_t is None
                             else (terms.w_node, terms.wf_r, terms.wf_t))
    kept = state._lagged
    for k, (lu, dt_ref, ref) in enumerate(kept):
        if dt_ref == dt:
            if abs(factors - ref).max() <= _REFACTOR_TOL:
                if k:
                    kept.reverse()  # most recently used first
                return lu
            del kept[k]
            break
    a_mat = ops.semi_implicit_matrix(state.grid, terms, angle, dt)
    lu = splu(a_mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1, panel_size=1,
              options={"SymmetricMode": True})
    kept.insert(0, (lu, dt, factors))
    del kept[2:]
    return lu


def run_until(state: FlowState, policy: StepPolicy, angle: AngleData,
              t_end: Optional[float] = None, speed_tol: Optional[float] = None,
              max_steps: int = 10_000_000,
              snapshot_interval: Optional[float] = None) -> FlowState:
    """Iterate the flow until t_end, or until it is stationary: the last
    step's velocity has oscillation osc(u_new - u_old) / dt < speed_tol and
    its row's windowed speed (tau = 10 dt) is defined (see the module
    docstring).  Snapshots of the field are kept every snapshot_interval
    time units; the step that would cross a snapshot time is shortened to
    land on it, as the last step lands on t_end."""
    if t_end is None and speed_tol is None:
        raise ValueError("need a stop criterion: t_end and/or speed_tol")
    if t_end is not None and not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if snapshot_interval is not None and not 0 < snapshot_interval < math.inf:
        raise ValueError(f"snapshot_interval must be positive and finite, "
                         f"got {snapshot_interval!r}")
    dt = auto_dt(state.grid, policy)
    tau = _WINDOW_STEPS * dt
    hist = state.history
    full_step = replace(policy, dt=dt)

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
        prev = state.field  # the step writes its new field into a new array
        # a step shortened to land on t_end or a snapshot gets its own policy
        step(state, full_step if dt_step == dt else replace(policy, dt=dt_step),
             angle, tau=tau)

        if snapshot_interval is not None:
            while state.t >= next_snap * snapshot_interval - 1e-9:
                state.snapshots.append((next_snap * snapshot_interval, state.field.interior.copy()))
                next_snap += 1

        if speed_tol is not None and not math.isnan(hist.speed[-1]):
            du = state.field.interior - prev.interior
            if (du.max() - du.min()) / (state.t - prev.t) < speed_tol:
                return state
    if t_end is not None and state.t >= t_end - 1e-12:
        return state  # the last allowed step landed on t_end
    waiting = " and ".join(f"{k} = {v!r}" for k, v in (("t_end", t_end), ("speed_tol", speed_tol))
                           if v is not None)
    raise SolverError(f"flow stopped at t = {state.t!r} after {max_steps} steps without reaching "
                      f"{waiting}; last history row ({', '.join(hist.COLUMNS)}) = {hist.row(-1)}")
