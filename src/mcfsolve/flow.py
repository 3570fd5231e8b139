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

Each step adds one history row: t; the mean of u (the quadrature of
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
checks.

Rows are finished in blocks, on the state.  A step appends its row's t,
keeps its interior's quadrature total, and copies its interior, W and c
into the state's block of waiting rows; _finish_rows fills in the other
five columns of every waiting row at once (the means from the totals, row
maxima and minima over a quarter block at a time, the windows by
searchsorted, max W*eta in eta_monitor's log-space form), bit for bit as a
block of one row would, when the block is full, when a row of another
window joins it, and when FlowState.history is read, which also frees the
block.  The initial row has no window, so it waits with the first step's
rows.  Until then t runs ahead of the other columns.

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
and once the row's windowed speed is defined, which it reads off the
times: the rows before it must span tau.

A step allocates the new ghost-closed array once and writes the updated
interior straight into it.  It reduces that interior once, to its
quadrature total (the vdot with Grid.quad_row, whose weights are finite),
which gives the row's mean and is finite only if every entry is; when it
overflows, the entries are tested one by one, so a non-finite entry
raises a SolverError and leaves the state as it was.  It then sets the ghosts in place with
ops.close_ghosts, the closure of ops.extend_values and ops.ghost_fill.
The update and the history row run under one np.errstate, which silences
the warnings of a blow-up the step reports itself; _finish_rows runs under
its own.  Each field comes with one flux record (``FlowState.terms``, an
operators.FluxTerms, set together with ``FlowState.field``): the record of
the new field gives W and c to its history row, and the next step's
right-hand side and lagged matrix, so the slopes and area elements are
computed once per step.
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
# node values of each field a block of waiting rows holds (interior, W, c),
# so a block holds 256 rows on a 64-node interval and 10 on the 40 x 40 disk
_BLOCK_NODES = 2 ** 14

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
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")


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
        return list(zip(self.t, self.max_w, self.osc_u, self.speed, self.max_weta))

    def __len__(self):
        return len(self.t)


@dataclass
class FlowState:
    grid: Grid
    field: Field
    # the flux record of field (operators.flux_terms), set together with it
    terms: ops.FluxTerms = dc_field(repr=False, compare=False)
    # the monitor's S d + 1 and phi d' (_monitor_terms), computed once per flow
    monitor: Tuple[np.ndarray, np.ndarray] = dc_field(repr=False, compare=False)
    snapshots: List[Tuple[float, np.ndarray]] = dc_field(default_factory=list)
    # the history, read through the history property, which finishes its rows
    _history: FlowHistory = dc_field(default_factory=FlowHistory, init=False, compare=False)
    # up to two lagged LUs of distinct dt, most recently used first, each with
    # its dt and the stacked W factors it was factored at
    _lagged: list = dc_field(default_factory=list, init=False, repr=False, compare=False)
    # the waiting rows' buffers of interior, W and c (_add_row), their
    # quadrature totals, and their window, None on the initial row
    _block: Optional[np.ndarray] = dc_field(default=None, init=False, repr=False, compare=False)
    _totals: list = dc_field(default_factory=list, init=False, repr=False, compare=False)
    _tau: Optional[float] = dc_field(default=None, init=False, repr=False, compare=False)

    @property
    def t(self) -> float:
        return self.field.t

    @property
    def history(self) -> FlowHistory:
        """The history, its waiting rows finished; the read frees their block.
        Read it again after a step: a kept history gets only the step's t."""
        _finish_rows(self)
        self._block = None
        return self._history


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


def eta_monitor(grid: Grid, field: Field, angle: AngleData, C: float = 0.0):
    """Maximum of W*eta over the grid and its location.

    K = 5 and S = C_d + 2, the Hessian bound of d plus 2 (see the module
    docstring).  Evaluated in log space as log(W (S d + 1) - tilt c) + K u
    (_log_weta, which a flow's history rows share), with c the centered
    radial slope and tilt = phi d' its coefficient in phi <grad u, grad d>;
    K C t shifts every node alike, so it is subtracted from the argmax's
    value only.  The log's argument stays above (1 - phi0) W > 0 because
    |phi| |grad u| < W and |grad d| <= 1.
    """
    terms = ops.flux_terms(grid, field.values)
    log_weta = _log_weta(terms.w_node, terms.c, field.interior, _monitor_terms(grid, angle))
    i = int(log_weta.argmax())
    return (float(np.exp(log_weta.flat[i] - _ETA_K * C * field.t)),
            divmod(i, grid.n_theta) if grid.is_disk else (i,))


def _log_weta(w, c, u, monitor, in_place: bool = False) -> np.ndarray:
    """log(W (S d + 1) - phi d' c) + K u, the log of W*eta at C = 0, from a
    field's W, centered radial slope c and interior u, or from fields
    stacked on a leading axis; monitor is _monitor_terms's pair.  With
    in_place, it is computed in w, and c and u are overwritten."""
    base, tilt = monitor
    log_weta = np.multiply(w, base, out=w if in_place else None)
    log_weta -= np.multiply(tilt, c, out=c if in_place else None)
    np.log(log_weta, out=log_weta)
    log_weta += np.multiply(_ETA_K, u, out=u if in_place else None)
    return log_weta


def speed_estimate(history: FlowHistory, tau: float) -> float:
    """Windowed mean-height velocity (mean u(t) - mean u(t - tau)) / tau."""
    if len(history) < 2:
        raise ValueError("insufficient history for a speed estimate")
    if history.t[-1] - tau < history.t[0] - 1e-12:
        raise ValueError("insufficient history for the requested window")
    times, means = history.t, history.mean_u
    k = _window_start(times, times[-1] - tau)
    return (means[-1] - means[k]) / (times[-1] - times[k])


def _window_start(t: List[float], target: float) -> int:
    """First index with t >= target (1e-12 slack), at most len(t) - 2;
    bisection keeps the lookup O(log n) in the history length."""
    return min(bisect.bisect_left(t, target + 1e-12), len(t) - 2)


def _add_row(state: FlowState, interior: np.ndarray, total, tau: Optional[float]) -> None:
    """Start the history row of the state's new field: append its t and its
    interior's quadrature total (the vdot with Grid.quad_row), and copy its
    interior, W and c into the state's block of waiting rows, allocated if
    there is none.  tau is the row's window, None on the initial row.  The
    waiting rows are finished (_finish_rows) first if they have another
    window, and with this row if it fills the block."""
    if tau != state._tau:
        if state._tau is not None:
            _finish_rows(state)
        state._tau = tau
    if state._block is None:
        rows = max(1, _BLOCK_NODES // state.grid.n_unknowns)
        state._block = np.empty((3, rows) + state.grid.shape)
    k = len(state._totals)  # the rows already waiting
    u, w, c = state._block
    u[k], w[k], c[k] = interior, state.terms.w_node, state.terms.c
    state._totals.append(total)
    state._history.t.append(float(state.field.t))
    if k + 1 == len(u):
        _finish_rows(state)


def _finish_rows(state: FlowState) -> None:
    """Fill in mean_u, max_w, osc_u, speed and max_weta of the history rows
    past the last finished one, from their quadrature totals and their
    interior, W and c in the state's block (overwritten), under their
    window tau.  A row's mean is its total over Grid.quad_total, its osc
    the max minus the min of its interior, its speed speed_estimate's over
    the rows before it, its window found by searchsorted under
    _window_start's slack and cap, NaN while they do not span tau; its
    monitor's C is the difference of its mean and the one before over
    their dt (0 on the first row)."""
    totals, m = state._totals, len(state._totals)
    if not m:
        return
    state._totals = []
    grid, hist = state.grid, state._history
    times, means = hist.t, hist.mean_u
    first = len(means)
    # the initial row alone has no window: its speed is NaN and C 0 at any tau
    tau = math.inf if state._tau is None else state._tau
    u, w, c = state._block[:, :m]
    # the elementwise work runs on a quarter block at a time: over a whole
    # block at once it slowed the steps after it (the disk's flow by 14%, on
    # a Xeon running numpy's AVX-512 loops)
    per_chunk = max(1, _BLOCK_NODES // 4 // grid.n_unknowns)
    max_w, osc, log_peak = np.empty(m), np.empty(m), np.empty(m)
    with np.errstate(all="ignore"):  # a blow-up's rows are reported, not warned
        means.extend((np.array(totals) / grid.quad_total).tolist())
        for i in range(0, m, per_chunk):
            j = min(i + per_chunk, m)
            max_w[i:j] = w[i:j].reshape(j - i, -1).max(axis=1)
            u_rows = u[i:j].reshape(j - i, -1)
            np.subtract(u_rows.max(axis=1), u_rows.min(axis=1), out=osc[i:j])
            log_weta = _log_weta(w[i:j], c[i:j], u[i:j], state.monitor, in_place=True)
            log_peak[i:j] = log_weta.reshape(j - i, -1).max(axis=1)
        hist.max_w.extend(max_w.tolist())
        hist.osc_u.extend(osc.tolist())
        # times and means from row k0, the earliest that a window of the rows
        # before the block's reaches; a row's speed is over the rows before it
        k0 = max(0, min(bisect.bisect_left(times, times[first - 1] - tau + 1e-12), first - 2))
        t, mu = np.array(times[k0:]), np.array(means[k0:])
        rows = np.arange(first, len(times))
        # the row before each, and its window's start (clipped on rows 0 and 1,
        # whose speed is NaN)
        prev = np.maximum(rows - k0 - 1, 0)
        t_prev, mu_prev = t[prev], mu[prev]
        start = np.maximum(np.minimum(np.searchsorted(t, t_prev - tau + 1e-12), prev - 1), 0)
        spans = (rows >= 2) & (t_prev - tau >= times[0] - 1e-12)
        spd = (mu_prev - mu[start]) / (t_prev - t[start])
        hist.speed.extend(np.where(spans, spd, math.nan).tolist())
        t_row = t[first - k0:]
        c_step = np.where(rows >= 1, (mu[first - k0:] - mu_prev) / (t_row - t_prev), 0.0)
        hist.max_weta.extend(np.exp(log_peak - _ETA_K * c_step * t_row).tolist())


def initial_state(grid: Grid, angle: AngleData, u0=0.0) -> FlowState:
    """Ghost-close the initial data (a scalar, an interior array or a
    Field, whose ghosts are rebuilt from its interior), compute the flow's
    monitor terms and record the t = 0 history row."""
    if isinstance(u0, Field):
        u0 = u0.interior
    f = ops.ghost_fill(grid, make_field(grid, u0, t=0.0), angle)
    state = FlowState(grid=grid, field=f, terms=ops.flux_terms(grid, f.values),
                      monitor=_monitor_terms(grid, angle))
    _add_row(state, f.interior, np.vdot(grid.quad_row, f.interior), None)
    return state


def step(state: FlowState, policy: StepPolicy, angle: AngleData,
         tau: Optional[float] = None) -> FlowState:
    """Advance one time step; returns the same FlowState with new field and
    an appended history row, whose speed has the window tau (by default
    10 dt).  The row waits on the state with the rows before it and is
    whole at the latest when state.history is next read; a history kept
    from an earlier read gets only its t.  A semi-implicit step reuses a
    lagged LU of the state while its W factors stay within _REFACTOR_TOL."""
    grid, field, terms = state.grid, state.field, state.terms
    dt = auto_dt(grid, policy)
    ext = np.empty_like(field.values)
    new_int = ext[1:-1]

    with np.errstate(all="ignore"):  # blow-up is reported, not warned
        delta = ops.mcf_from_extended(grid, terms)
        delta *= dt
        if policy.scheme == "explicit":
            blow_up = "explicit step produced non-finite values (time step too large)"
        else:
            if delta.any():  # else stationary data stay put exactly
                try:
                    lu = _lagged_lu(state, terms, angle, dt)
                    delta = lu.solve(delta.ravel()).reshape(delta.shape)
                except RuntimeError as exc:
                    raise SolverError(f"semi-implicit solve failed: {exc}") from exc
            blow_up = "semi-implicit solve produced non-finite values"
        np.add(field.interior, delta, out=new_int)

        # the row's quadrature total: finite only if every entry is, though
        # finite entries may overflow it
        total = np.vdot(grid.quad_row, new_int)
        if not math.isfinite(total) and not np.isfinite(new_int).all():
            raise SolverError(blow_up)
        ops.close_ghosts(grid, ext, angle)  # ghost_fill's closure, on a finite interior
        state.field, state.terms = Field(ext, field.t + dt), ops.flux_terms(grid, ext)
        _add_row(state, new_int, total, tau if tau is not None else _WINDOW_STEPS * dt)
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
    its row's windowed speed (tau = 10 dt) is defined, that is, the rows
    before it span tau (see the module docstring).  Snapshots of the field
    are kept every snapshot_interval time units; the step that would cross
    a snapshot time is shortened to land on it, as the last step lands on
    t_end.  It reads the history before it returns or raises its budget's
    SolverError, which finishes the last rows and frees their block."""
    if t_end is None and speed_tol is None:
        raise ValueError("need a stop criterion: t_end and/or speed_tol")
    if t_end is not None and not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if snapshot_interval is not None and not 0 < snapshot_interval < math.inf:
        raise ValueError(f"snapshot_interval must be positive and finite, "
                         f"got {snapshot_interval!r}")
    dt = auto_dt(state.grid, policy)
    tau = _WINDOW_STEPS * dt
    full_step = replace(policy, dt=dt)
    t_stop = math.inf if t_end is None else t_end - 1e-12  # no step is taken from here on

    if snapshot_interval is not None and not state.snapshots:
        state.snapshots.append((state.t, state.field.interior.copy()))
    next_snap = 1
    if snapshot_interval is not None:
        # resume-safe: continue labeling after snapshots already taken
        next_snap = int(math.floor((state.t + 1e-9) / snapshot_interval)) + 1

    times = state._history.t  # complete while the other columns wait
    for _ in range(max_steps):
        t = state.t
        if t >= t_stop:
            break
        dt_step = dt if t_end is None else min(dt, t_end - t)
        if snapshot_interval is not None:
            dt_step = min(dt_step, next_snap * snapshot_interval - t)
        prev = state.field  # the step writes its new field into a new array
        # a step shortened to land on t_end or a snapshot gets its own policy
        step(state, full_step if dt_step == dt else replace(policy, dt=dt_step), angle, tau=tau)

        if snapshot_interval is not None:
            while state.t >= next_snap * snapshot_interval - 1e-9:
                state.snapshots.append((next_snap * snapshot_interval,
                                        state.field.interior.copy()))
                next_snap += 1

        # the row's windowed speed is defined once the rows before it span tau
        if speed_tol is not None and len(times) >= 3 and times[-2] - tau >= times[0] - 1e-12:
            du = state.field.interior - prev.interior
            if (du.max() - du.min()) / (state.t - prev.t) < speed_tol:
                break
    else:
        if state.t < t_stop:  # the last allowed step missed t_end
            waiting = " and ".join(f"{k} = {v!r}" for k, v in
                                   (("t_end", t_end), ("speed_tol", speed_tol)) if v is not None)
            hist = state.history
            raise SolverError(f"flow stopped at t = {state.t!r} after {max_steps} steps without "
                              f"reaching {waiting}; last history row "
                              f"({', '.join(hist.COLUMNS)}) = {hist.row(-1)}")
    state.history  # finishes the last rows and frees their block
    return state
