import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_

from mcfsolve import (AngleData, Field, SolverError, StepPolicy, auto_dt, build_problem,
                      catalog_cases, eta_monitor, field_mean, ghost_fill, initial_state,
                      make_field, make_grid, parse_config, run_to_stationarity, run_until,
                      solve_soliton, speed_estimate, step, verify_convergence)
from mcfsolve import flow, grids, operators
from mcfsolve.flow import FlowHistory, _window_start
from mcfsolve.geometry import Geometry

from conftest import PHI_GRIM, make_problem


class TestStep:
    @pytest.mark.parametrize("scheme", ["explicit", "semi_implicit"])
    def test_stationary_exact(self, scheme):
        geom, grid, angle = make_problem("interval", n_r=64)
        st = initial_state(grid, angle, 0.7)
        base = st.field.interior.copy()
        for _ in range(20):
            step(st, StepPolicy(scheme), angle)
        assert np.array_equal(st.field.interior, base)

    def test_translator_motion(self, grim_setup):
        grid, angle = grim_setup
        sol = solve_soliton(grid, angle)
        st = initial_state(grid, angle, sol.u_inf)
        run_until(st, StepPolicy(), angle, t_end=1.0)
        err = np.max(np.abs(st.field.interior - sol.u_inf.interior - 0.5 * st.t))
        assert err <= 1e-3

    def test_initial_state_from_field_or_interior(self, grim_setup):
        # a Field's ghosts are rebuilt from its interior, like an array's
        grid, angle = grim_setup
        sol = solve_soliton(grid, angle)
        interior = sol.u_inf.interior
        ref, *others = [initial_state(grid, angle, u0) for u0 in
                        (sol.u_inf, interior, interior.copy(), make_field(grid, interior))]
        for st in others:
            assert np.array_equal(st.field.values, ref.field.values)
            assert np.array_equal(st.history.rows(), ref.history.rows(), equal_nan=True)

    def test_oscillation_decay(self):
        geom, grid, angle = make_problem("interval", n_r=200)
        st = initial_state(grid, angle, lambda x: 0.1 * np.cos(np.pi * x))
        run_until(st, StepPolicy(), angle, t_end=5.0)
        osc = np.asarray(st.history.osc_u)
        assert np.all(np.diff(osc) <= 1e-12)
        assert osc[-1] < 1e-6

    def test_explicit_cfl_guard(self):
        geom, grid, angle = make_problem("interval", n_r=64, phi="const:-0.3")
        st = initial_state(grid, angle, lambda x: 0.3 * np.cos(2 * np.pi * x))
        with pytest.raises(SolverError):
            for _ in range(200):
                step(st, StepPolicy("explicit", dt=0.5), angle)

    @pytest.mark.parametrize("kind", ["interval", "radial_ball", "polar_disk"])
    def test_blow_up_is_an_error_not_a_warning(self, kind):
        # the step and its history row run under one errstate: a too large
        # explicit dt ends in a SolverError, with no RuntimeWarning on the way
        geom, grid, angle = make_problem(kind, phi="const:-0.3")
        r = grid.nodes[:, None] if grid.is_disk else grid.nodes
        st = initial_state(grid, angle, 0.3 * np.cos(2 * np.pi * r))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SolverError, match="time step too large"):
                for _ in range(200):
                    step(st, StepPolicy("explicit", dt=0.5), angle)

    def test_diverging_stale_matrix_ends_without_warnings(self, monkeypatch):
        # a lagged matrix never refactored lets this noisy start diverge to an
        # inf monitor; the run still ends in the budget's SolverError, unwarned
        monkeypatch.setattr(flow, "_REFACTOR_TOL", 1e9)
        _, grid, angle = build_problem(parse_config(dict(catalog_cases())["grim_reaper"]))
        sol = solve_soliton(grid, angle)
        rng = np.random.default_rng(0)
        st = initial_state(grid, angle, sol.u_inf.interior + 0.1 * rng.standard_normal(grid.shape))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SolverError, match="after 5000 steps"):
                run_until(st, StepPolicy(), angle, t_end=1e6, max_steps=5000)
        assert st.history.max_weta[-1] == np.inf
        # the budget ends the run inside a block: its rows are finished first
        assert {len(column) for column in history_columns(st.history)} == {5001}
        assert st.history.t[-1] == st.t

    def test_non_finite_solve_raises_solver_error(self, monkeypatch):
        # the step checks its new interior before it closes the ghosts
        class NanFactor:
            def solve(self, rhs):
                return np.full_like(rhs, np.nan)

        monkeypatch.setattr(flow, "splu", lambda *args, **kwargs: NanFactor())
        geom, grid, angle = make_problem("interval", n_r=32, phi="const:-0.3")
        st = initial_state(grid, angle, lambda x: 0.1 * np.cos(np.pi * x))
        before = st.field.values.copy()
        with pytest.raises(SolverError, match="^semi-implicit solve produced non-finite values$"):
            step(st, StepPolicy("semi_implicit"), angle)
        assert np.array_equal(st.field.values, before)
        assert len(st.history) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["interval", "polar_disk"])
    def test_one_non_finite_entry_raises(self, kind, bad, monkeypatch):
        # the step's finite check catches a single non-finite node, whatever
        # its sign, and leaves the state as it was
        solved = []

        class OneBadEntry:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                out = self.lu.solve(rhs)
                out[len(out) // 2] = bad
                solved.append(1)
                return out

        factor = flow.splu
        monkeypatch.setattr(flow, "splu", lambda *a, **kw: OneBadEntry(factor(*a, **kw)))
        geom, grid, angle = make_problem(kind, phi="const:-0.3")
        st = initial_state(grid, angle, 0.0)
        before = st.field.values.copy()
        with pytest.raises(SolverError, match="^semi-implicit solve produced non-finite values$"):
            step(st, StepPolicy("semi_implicit"), angle)
        assert solved == [1]
        assert np.array_equal(st.field.values, before)
        assert st.t == 0.0
        assert len(st.history) == 1

    def test_finite_entries_whose_quadrature_overflows_are_kept(self):
        # every entry of u0 = 1e308 is finite, but the quadrature total of the
        # interior, the finite check's one reduction, overflows: the step
        # falls back to the entries, keeps the field and records its row
        geom, grid, angle = make_problem("interval", n_r=63)
        st = initial_state(grid, angle, 1e308)
        step(st, StepPolicy("explicit"), angle)
        interior = st.field.interior
        assert grid.n_unknowns == 64 and np.isfinite(interior).all()
        assert not math.isfinite(np.vdot(grid.quad_row, interior))
        assert len(st.history) == 2 and st.history.t[-1] == st.t
        assert st.history.osc_u[-1] == interior.max() - interior.min()

    @pytest.mark.parametrize("dt", [math.inf, -math.inf, math.nan, 0.0, -1e-3])
    def test_policy_refuses_a_dt_not_positive_and_finite(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            StepPolicy("semi_implicit", dt=dt)

    def test_non_finite_explicit_step_names_the_time_step(self, monkeypatch):
        monkeypatch.setattr(operators, "mcf_from_extended",
                            lambda grid, ext: np.full(grid.shape, np.inf))
        geom, grid, angle = make_problem("radial_ball", n_r=16)
        st = initial_state(grid, angle, 0.0)
        with pytest.raises(SolverError, match=r"^explicit step produced non-finite values "
                                              r"\(time step too large\)$"):
            step(st, StepPolicy("explicit"), angle)
        assert len(st.history) == 1

    @pytest.mark.parametrize("kind", ["interval", "polar_disk"])
    def test_public_checks_reject_non_finite_values(self, kind):
        geom, grid, angle = make_problem(kind, phi="const:0.2")
        f = make_field(grid, 0.0)
        f.interior[(2,) * f.interior.ndim] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ghost_fill(grid, f, angle)
        with pytest.raises(ValueError, match="non-finite"):
            field_mean(grid, f)

    @pytest.mark.parametrize("scheme", ["explicit", "semi_implicit"])
    @pytest.mark.parametrize("kind", ["interval", "radial_ball"])
    def test_normal_slope_computed_once_per_angle(self, scheme, kind, monkeypatch):
        # in 1-D the ghost closure's normal slope is a constant of the angle
        calls = []
        original = grids._slope_closed_form

        def counting(phi, tangential_sq):
            calls.append(phi)
            return original(phi, tangential_sq)

        monkeypatch.setattr(grids, "_slope_closed_form", counting)
        monkeypatch.setattr(operators, "_slope_closed_form", counting)
        geom, grid, angle = make_problem(kind, phi="const:-0.3")
        st = initial_state(grid, angle, lambda x: 0.05 * np.cos(np.pi * x))
        policy = StepPolicy(scheme)
        run_until(st, policy, angle, t_end=50 * auto_dt(grid, policy))
        assert len(st.history) == 51
        assert len(calls) <= 1
        assert not angle.normal_slope.flags.writeable

    def test_schemes_agree(self):
        # the lagged scheme carries an O(dt) transient error; shrink dt so
        # both integrators land on the same state
        geom, grid, angle = make_problem("interval", n_r=64, phi=f"const:{PHI_GRIM!r}")
        a = initial_state(grid, angle, 0.0)
        b = initial_state(grid, angle, 0.0)
        run_until(a, StepPolicy("semi_implicit", dt=2e-3), angle, t_end=0.5)
        run_until(b, StepPolicy("explicit"), angle, t_end=0.5)
        assert np.max(np.abs(a.field.interior - b.field.interior)) < 1e-3

    @pytest.mark.parametrize("scheme", ["explicit", "semi_implicit"])
    @pytest.mark.parametrize("kind", ["interval", "radial_ball", "polar_disk"])
    def test_one_flux_record_per_step(self, scheme, kind, monkeypatch):
        # the operator, the lagged matrix, max W and the monitor share the
        # field's one record, so the slopes are computed once per field
        calls = []
        original = operators.flux_terms

        def counting(grid, ext):
            calls.append(ext)
            return original(grid, ext)

        monkeypatch.setattr(operators, "flux_terms", counting)
        geom, grid, angle = make_problem(kind, phi="const:0.2")
        rng = np.random.default_rng(3)
        st = initial_state(grid, angle, 0.05 * rng.standard_normal(grid.shape))
        policy = StepPolicy(scheme)
        run_until(st, policy, angle, t_end=50 * auto_dt(grid, policy))
        assert len(st.history) == 51
        assert len(calls) == 51  # one record per history row's field

    def test_auto_dt(self):
        geom, grid, angle = make_problem("interval", n_r=100)
        assert auto_dt(grid, StepPolicy("semi_implicit")) == grid.h_r
        assert auto_dt(grid, StepPolicy("explicit")) == pytest.approx(0.4 * grid.h_r ** 2)
        assert auto_dt(grid, StepPolicy("explicit", dt=1e-5)) == 1e-5

    def test_comparison_principle(self):
        geom, grid, angle = make_problem("interval", n_r=64, phi="const:-0.3")
        lo = initial_state(grid, angle, 0.0)
        hi = initial_state(grid, angle, lambda x: 0.2 + 0.1 * np.cos(np.pi * x))
        for _ in range(150):
            step(lo, StepPolicy(), angle)
            step(hi, StepPolicy(), angle)
            assert np.max(lo.field.interior - hi.field.interior) <= 1e-10


class TestRunUntil:
    def test_needs_stop_criterion(self):
        geom, grid, angle = make_problem("interval", n_r=32)
        st = initial_state(grid, angle, 0.0)
        with pytest.raises(ValueError):
            run_until(st, StepPolicy(), angle)

    def test_stationary_speed_zero(self):
        geom, grid, angle = make_problem("interval", n_r=64)
        st = initial_state(grid, angle, 0.3)
        run_until(st, StepPolicy(), angle, speed_tol=1e-6)
        assert st.history.speed[-1] == pytest.approx(0.0, abs=1e-14)
        assert np.all(np.asarray(st.history.max_w) == 1.0)

    def test_grim_reaper_speed(self, grim_setup):
        grid, angle = grim_setup
        st = initial_state(grid, angle, 0.0)
        run_until(st, StepPolicy(), angle, speed_tol=1e-6)
        assert st.history.speed[-1] == pytest.approx(0.5, abs=1e-3)

    def test_hyperbolic_ball_speed_pinched_by_flux_balance(self):
        # |speed| = phi0 * perimeter / integral(1/W) lies between the
        # W = 1 and W = max W evaluations of the balance
        import math
        geom, grid, angle = make_problem("radial_ball", n=2, R=0.3, n_r=120,
                                         curvature={"model": "hyperbolic", "K": 1.0},
                                         phi="const:0.1")
        st = initial_state(grid, angle, 0.0)
        run_until(st, StepPolicy(), angle, speed_tol=1e-6)
        speed = st.history.speed[-1]
        per = 2 * math.pi * math.sinh(0.3)
        area = 2 * math.pi * (math.cosh(0.3) - 1.0)
        w_max = max(st.history.max_w)
        assert speed < 0.0  # positive angle pushes the graph down
        assert 0.1 * per / area - 1e-3 <= -speed <= 0.1 * per * w_max / area + 1e-3

    @pytest.mark.parametrize("run_length", [
        {"t_end": float("nan")}, {"t_end": float("inf")},
        {"t_end": 1.0, "snapshot_interval": 0.0}, {"t_end": 1.0, "snapshot_interval": -1.0},
        {"t_end": 1.0, "snapshot_interval": float("nan")},
        {"t_end": 1.0, "snapshot_interval": float("inf")},
    ])
    def test_bad_run_lengths_rejected(self, run_length):
        # with max_steps = 5 a run that took them would fail fast, not step on
        geom, grid, angle = make_problem("interval", n_r=32, phi="const:-0.3")
        st = initial_state(grid, angle, 0.0)
        with pytest.raises(ValueError):
            run_until(st, StepPolicy(), angle, max_steps=5, **run_length)
        assert len(st.history) == 1

    def test_max_steps_guard(self):
        geom, grid, angle = make_problem("interval", n_r=32, phi="const:-0.3")
        st = initial_state(grid, angle, 0.0)
        with pytest.raises(SolverError):
            run_until(st, StepPolicy(), angle, t_end=100.0, max_steps=5)

    @pytest.mark.parametrize("t_end,speed_tol", [(100.0, None), (None, 1e-12), (100.0, 1e-12)])
    def test_budget_error_names_where_it_stopped(self, t_end, speed_tol):
        geom, grid, angle = make_problem("interval", n_r=32, phi="const:-0.3")
        st = initial_state(grid, angle, 0.0)
        with pytest.raises(SolverError) as info:
            run_until(st, StepPolicy(), angle, t_end=t_end, speed_tol=speed_tol, max_steps=3)
        msg = str(info.value)
        for name, value in (("t_end", t_end), ("speed_tol", speed_tol)):
            assert (f"{name} = {value!r}" in msg) == (value is not None)
        assert f"t = {st.t!r}" in msg
        assert "after 3 steps" in msg
        assert repr(st.history.rows()[-1]) in msg

    def test_budget_spent_exactly_on_t_end(self):
        geom, grid, angle = make_problem("interval", n_r=32, phi="const:-0.3")
        st = initial_state(grid, angle, 0.0)
        run_until(st, StepPolicy(), angle, t_end=5 * grid.h_r, max_steps=5)
        assert len(st.history) == 6
        assert st.t == pytest.approx(5 * grid.h_r, abs=1e-12)

    def test_snapshot_labels(self):
        geom, grid, angle = make_problem("interval", n_r=32, phi="const:-0.2")
        st = initial_state(grid, angle, 0.0)
        run_until(st, StepPolicy(), angle, t_end=3.0, snapshot_interval=1.0)
        assert [t for t, _ in st.snapshots] == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("name,t_end", [("grim_reaper", 10.0), ("flat_ball_n2", 2.0)])
    def test_translator_snapshots_at_discrete_speed(self, name, t_end):
        # each snapshot is the field at its label, and a computed translator
        # moves rigidly at C_h, so no snapshot drifts by O(C dt)
        _, grid, angle = build_problem(parse_config(dict(catalog_cases())[name]))
        sol = solve_soliton(grid, angle)
        st = initial_state(grid, angle, sol.u_inf)
        run_until(st, StepPolicy(), angle, t_end=t_end, snapshot_interval=0.25)
        labels = [t for t, _ in st.snapshots]
        assert labels == pytest.approx(0.25 * np.arange(len(labels)))
        assert labels[-1] == pytest.approx(t_end)
        drift = max(np.max(np.abs(snap - sol.u_inf.interior - sol.C_h * t))
                    for t, snap in st.snapshots)
        assert drift <= 1e-6

    def test_history_monotone_time(self, grim_setup):
        grid, angle = grim_setup
        st = initial_state(grid, angle, 0.0)
        run_until(st, StepPolicy(), angle, t_end=0.5)
        t = np.asarray(st.history.t)
        assert np.all(np.diff(t) > 0)
        assert np.all(np.asarray(st.history.max_w) >= 1.0)


def trace_factorizations(monkeypatch):
    """Wrap flow.step and flow.splu: returns (dts, factored), the dt of every
    step taken and the index of the step in which each lagged factorization
    happened."""
    dts, factored = [], []
    original_step, original_splu = flow.step, flow.splu

    def counting_step(state, policy, *args, **kwargs):
        dts.append(policy.dt)
        return original_step(state, policy, *args, **kwargs)

    def counting_splu(*args, **kwargs):
        factored.append(len(dts) - 1)
        return original_splu(*args, **kwargs)

    monkeypatch.setattr(flow, "step", counting_step)
    monkeypatch.setattr(flow, "splu", counting_splu)
    return dts, factored


class TestLaggedReuse:
    @pytest.mark.parametrize("kind", ["interval", "radial_ball", "polar_disk"])
    def test_zero_tol_factors_every_moving_step(self, kind, monkeypatch):
        # a tolerance of 0 is one factorization per step whose right-hand
        # side is nonzero, as without reuse; stationary data factor nothing
        dts, factored = trace_factorizations(monkeypatch)
        monkeypatch.setattr(flow, "_REFACTOR_TOL", 0.0)
        geom, grid, angle = make_problem(kind, phi="const:0.2")
        rng = np.random.default_rng(5)
        policy = StepPolicy()
        moving = initial_state(grid, angle, 0.1 * rng.standard_normal(grid.shape))
        for _ in range(30):
            flow.step(moving, policy, angle)
        assert factored == list(range(30))
        level = grids.angle_from_spec(grid, "const:0.0")
        still = initial_state(grid, level, 0.4)
        for _ in range(5):
            flow.step(still, policy, level)
        assert len(factored) == 30

    @pytest.mark.parametrize("factor", ["w_node", "wf_r", "wf_t"])
    def test_each_factor_is_compared(self, factor, monkeypatch):
        # the next record moves one factor only: by half the default tol the
        # LU is reused, by twice the tol it is refactored
        dts, factored = trace_factorizations(monkeypatch)
        geom, grid, angle = make_problem("polar_disk", phi="fourier:0.1,0.05,0.05")
        rng = np.random.default_rng(11)
        st = initial_state(grid, angle, 0.05 * rng.standard_normal(grid.shape))
        assert flow._REFACTOR_TOL == 1e-3
        policy = StepPolicy()
        ref = st.terms
        flow.step(st, policy, angle)
        for shift, refactored in ((0.5e-3, False), (2e-3, True)):
            st.terms = ref._replace(**{factor: getattr(ref, factor) + shift})
            flow.step(st, policy, angle)
            assert (factored[-1] == len(dts) - 1) == refactored

    @pytest.mark.parametrize("name", ["flat_ball_n2", "disk_fourier"])
    def test_default_tol_factors_rarely(self, name, monkeypatch):
        dts, factored = trace_factorizations(monkeypatch)
        _, grid, angle = build_problem(parse_config(dict(catalog_cases())[name]))
        state, _ = run_to_stationarity(grid, angle, StepPolicy(), snapshot_interval=None)
        assert len(dts) == len(state.history) - 1
        assert 1 <= len(factored) < 0.05 * len(dts)

    def test_shortened_step_factors_afresh(self, monkeypatch):
        # with a huge tol only a new dt refactors: the step shortened to land on
        # a snapshot or t_end factors its own LU, and the full step after it
        # reuses the full-dt LU kept across it
        dts, factored = trace_factorizations(monkeypatch)
        monkeypatch.setattr(flow, "_REFACTOR_TOL", 1e9)
        geom, grid, angle = make_problem("interval", n_r=40, phi="const:-0.3")
        st = initial_state(grid, angle, lambda x: 0.1 * np.cos(np.pi * x))
        run_until(st, StepPolicy(), angle, t_end=1.0, snapshot_interval=0.33)
        shortened = [k for k in range(len(dts)) if dts[k] != grid.h_r]
        assert len(shortened) >= 4  # three snapshots and t_end land on shortened steps
        assert factored == [0] + shortened

    @pytest.mark.parametrize("name", ["flat_ball_n2", "disk_fourier"])
    def test_snapshots_leave_the_full_step_lu(self, name, monkeypatch):
        # from u0 = 0 with snapshots every 0.5, the full steps factor exactly as
        # often as in the run without snapshots; only shortened steps add LUs
        dts, factored = trace_factorizations(monkeypatch)
        _, grid, angle = build_problem(parse_config(dict(catalog_cases())[name]))
        counts = []
        for snapshot_interval in (0.5, None):
            del dts[:], factored[:]
            run_to_stationarity(grid, angle, StepPolicy(), snapshot_interval=snapshot_interval)
            full = [k for k in factored if dts[k] == grid.h_r]
            counts.append((len(full), len(factored) - len(full)))
        (full_snap, short_snap), (full_plain, short_plain) = counts
        assert full_snap == full_plain
        assert short_plain <= 1 and 1 <= short_snap <= 10

    def test_new_dt_for_good_keeps_its_lu(self, monkeypatch):
        # a run that goes on at a new dt factors once for it and reuses that LU;
        # going back to the first dt finds its LU still kept
        dts, factored = trace_factorizations(monkeypatch)
        monkeypatch.setattr(flow, "_REFACTOR_TOL", 1e9)
        geom, grid, angle = make_problem("interval", n_r=40, phi="const:-0.3")
        st = initial_state(grid, angle, lambda x: 0.1 * np.cos(np.pi * x))
        for dt in (0.05, 0.02, 0.05):
            for _ in range(10):
                flow.step(st, StepPolicy(dt=dt), angle)
        assert factored == [0, 10]

    @pytest.mark.parametrize("name", ["grim_reaper", "disk_fourier"])
    def test_stale_matrix_still_converges(self, name, monkeypatch):
        # the first lagged matrix, frozen at a smoothly perturbed start, is
        # never refactored; the exact right-hand side still drives the flow
        # to u_inf + C_h t
        dts, factored = trace_factorizations(monkeypatch)
        monkeypatch.setattr(flow, "_REFACTOR_TOL", 1e9)
        _, grid, angle = build_problem(parse_config(dict(catalog_cases())[name]))
        sol = solve_soliton(grid, angle)
        r = grid.nodes / grid.nodes[-1]
        if grid.is_disk:
            bump = np.cos(np.pi * r)[:, None] + np.outer(r * r, np.cos(grid.theta))
        else:
            bump = np.cos(np.pi * r)
        st = initial_state(grid, angle, sol.u_inf.interior + 0.3 * bump)
        w_start = st.terms.w_node
        run_until(st, StepPolicy(), angle, speed_tol=1e-6, max_steps=5000)
        assert factored == [0]
        assert np.abs(st.terms.w_node - w_start).max() > 0.05  # far staler than the default
        rep = verify_convergence(st, sol, tol=1e-3)
        assert rep.passed, rep.checks


def history_columns(hist):
    return hist.t, hist.mean_u, hist.max_w, hist.osc_u, hist.speed, hist.max_weta


def history_bits(hist):
    """The bytes of every column of a history, so that NaN rows compare too."""
    return [np.asarray(column, dtype=float).tobytes() for column in history_columns(hist)]


def check_history_rows(kind, scheme, tau=None):
    """Run a flow for 1.5 windows and compare every column of every history
    row, bit for bit, with the public functions: the field's mean and
    oscillation, max W, the speed over the earlier rows (NaN until they span
    the window, by default 10 dt) and the monitor at the step's own speed,
    the difference of the last two means over their dt (0 on the first row)."""
    geom, grid, angle = make_problem(kind, phi="const:-0.2")
    rng = np.random.default_rng(17)
    st = initial_state(grid, angle, 0.05 * rng.standard_normal(grid.shape))
    policy = StepPolicy(scheme)
    window = tau if tau is not None else 10.0 * auto_dt(grid, policy)
    fields = [st.field]
    while st.t < 1.5 * window or len(fields) < 5:
        step(st, policy, angle, tau=tau)
        fields.append(st.field)
    hist = st.history
    assert len(hist) == len(fields)
    earlier = FlowHistory()
    for k, f in enumerate(fields):
        try:
            spd = speed_estimate(earlier, window)
        except ValueError:
            spd = np.nan
        interior = f.interior
        row = (hist.t[k], hist.mean_u[k], hist.max_w[k], hist.osc_u[k], hist.speed[k],
               hist.max_weta[k])
        mean = operators.integrate_domain(grid, f) / grid.quad_total
        c_step = (mean - earlier.mean_u[-1]) / (f.t - earlier.t[-1]) if k else 0.0
        want = (f.t, mean, operators.node_area_element(grid, f.values).max(),
                interior.max() - interior.min(), spd,
                eta_monitor(grid, f, angle, C=c_step)[0])
        assert row[:4] == want[:4] and row[5] == want[5], k
        assert row[4] == want[4] or (np.isnan(row[4]) and np.isnan(want[4])), k
        assert all(type(v) is float for v in row), k
        for column, v in zip((earlier.t, earlier.mean_u, earlier.max_w, earlier.osc_u,
                              earlier.speed, earlier.max_weta), row):
            column.append(v)
    speeds = np.asarray(hist.speed)
    assert np.isnan(speeds[0]) and np.isfinite(speeds[-1])


class TestHistoryRow:
    @pytest.mark.parametrize("tol", ["default", 0.0])
    @pytest.mark.parametrize("kind", ["interval", "radial_ball", "polar_disk"])
    def test_row_is_the_public_functions(self, kind, tol, monkeypatch):
        if tol != "default":
            monkeypatch.setattr(flow, "_REFACTOR_TOL", tol)
        check_history_rows(kind, "semi_implicit")

    @pytest.mark.parametrize("kind", ["interval", "radial_ball", "polar_disk"])
    def test_explicit_row_is_the_public_functions(self, kind):
        # a window of 20 explicit steps, so that the speed column fills
        geom, grid, angle = make_problem(kind)
        check_history_rows(kind, "explicit", tau=20 * auto_dt(grid, StepPolicy("explicit")))

    def test_window_shorter_than_a_step(self):
        # the window's start is capped at the row before the last
        geom, grid, angle = make_problem("interval")
        check_history_rows("interval", "semi_implicit", tau=0.5 * auto_dt(grid, StepPolicy()))

    @pytest.mark.parametrize("scheme", ["explicit", "semi_implicit"])
    @pytest.mark.parametrize("kind", ["interval", "radial_ball", "polar_disk"])
    def test_run_until_rows_are_the_lone_steps(self, kind, scheme, monkeypatch):
        # the state finishes its waiting rows in blocks, here of 9 (in chunks
        # of 2), the initial row with the first steps': across block
        # boundaries, steps shortened onto snapshots and a resumed run, every
        # row is the one the same steps give when a history read after each
        # step finishes its row alone, bit for bit
        geom, grid, angle = make_problem(kind, phi="const:-0.2")
        u0 = 0.05 * np.random.default_rng(3).standard_normal(grid.shape)
        policy = StepPolicy(scheme)
        dt = auto_dt(grid, policy)
        monkeypatch.setattr(flow, "_BLOCK_NODES", 9 * grid.n_unknowns)
        taken, blocks = [], []
        original_step, original_finish = flow.step, flow._finish_rows

        def recording(state, pol, angle, tau=None):
            taken.append((pol, tau))
            return original_step(state, pol, angle, tau=tau)

        def finishing(state):
            waiting = len(state._history.t) - len(state._history.mean_u)
            if waiting:
                blocks.append(waiting)
            original_finish(state)

        monkeypatch.setattr(flow, "step", recording)
        monkeypatch.setattr(flow, "_finish_rows", finishing)
        st = initial_state(grid, angle, u0)
        run_until(st, policy, angle, t_end=11.5 * dt, snapshot_interval=2.5 * dt)
        run_until(st, policy, angle, t_end=27.0 * dt, snapshot_interval=2.5 * dt)
        assert len(taken) == len(st.history) - 1 > 27
        assert sum(pol.dt != dt for pol, _ in taken) >= 8  # landed on snapshots
        # full blocks of 9, the first with the initial row, and each run's last rows
        assert blocks[0] == 9 and blocks.count(9) >= 2 and sum(blocks) == len(st.history)

        alone = initial_state(grid, angle, u0)
        for pol, tau in taken:
            alone.history
            original_step(alone, pol, angle, tau=tau)
        assert history_bits(st.history) == history_bits(alone.history)
        assert all(type(v) is float for column in history_columns(st.history) for v in column)
        assert np.isfinite(st.history.speed[-1])

    def test_lone_steps_wait_for_the_read(self, monkeypatch):
        # a loop of steps leaves its rows on the state, as run_until does: a
        # 64-node interval's block of 256 rows is finished when full, not at
        # every step, and the history read finishes the rest
        geom, grid, angle = make_problem("interval", n_r=63)
        rows_per_block = flow._BLOCK_NODES // grid.n_unknowns
        assert grid.n_unknowns == 64 and rows_per_block == 256
        policy = StepPolicy("explicit")
        calls = []
        original_finish = flow._finish_rows

        def finishing(*args):
            calls.append(args)
            original_finish(*args)

        monkeypatch.setattr(flow, "_finish_rows", finishing)
        n = 600
        st = initial_state(grid, angle, 0.05 * np.cos(np.pi * grid.nodes))
        for _ in range(n):
            step(st, policy, angle)
        assert len(calls) <= math.ceil((n + 1) / rows_per_block)
        assert {len(column) for column in history_columns(st.history)} == {n + 1}
        # a run returns its state with the rows finished and their block freed
        run_until(st, policy, angle, t_end=st.t + 10 * auto_dt(grid, policy))
        assert st._block is None

    @pytest.mark.parametrize("kind", ["interval", "radial_ball", "polar_disk"])
    def test_window_change_finishes_the_waiting_rows(self, kind):
        # steps whose window alternates between 10 dt and 20 dt, in runs of 1
        # to 4 steps: a row of another window finishes the rows waiting
        # before it joins, so every row is the one the same steps give when
        # each row is finished alone, bit for bit
        geom, grid, angle = make_problem(kind, phi="const:-0.2")
        u0 = 0.05 * np.random.default_rng(11).standard_normal(grid.shape)
        policy = StepPolicy("explicit")
        dt = auto_dt(grid, policy)
        taus = [tau for run in range(20) for tau in [(10, 20)[run % 2] * dt] * (1 + run % 4)]
        st, alone = initial_state(grid, angle, u0), initial_state(grid, angle, u0)
        for tau in taus:
            step(st, policy, angle, tau=tau)
            alone.history
            step(alone, policy, angle, tau=tau)
        assert 1 < len(st._history.mean_u) < len(st._history.t)  # finished on window changes
        assert history_bits(st.history) == history_bits(alone.history)
        speeds = np.asarray(st.history.speed)
        assert np.isfinite(speeds[-1]) and np.isnan(speeds[20])  # 20 dt is not yet spanned

    def test_error_inside_a_block_leaves_whole_rows(self):
        # a step that blows up inside run_until's first block: read after the
        # error, the rows before it are finished, every column has one entry
        # per row, the last row is the last finite step's, and every row is
        # bit for bit the one the same steps give when each row is finished
        # alone
        geom, grid, angle = make_problem("interval", n_r=64, phi="const:-0.3")
        u0 = 0.3 * np.cos(2 * np.pi * grid.nodes)
        policy = StepPolicy("explicit", dt=0.5)
        st = initial_state(grid, angle, u0)
        with pytest.raises(SolverError, match="time step too large"):
            run_until(st, policy, angle, t_end=1e3)
        hist = st.history
        assert 2 < len(hist) < flow._BLOCK_NODES // grid.n_unknowns
        assert {len(column) for column in history_columns(hist)} == {len(hist)}
        assert hist.t[-1] == st.t
        assert hist.osc_u[-1] == st.field.interior.max() - st.field.interior.min()
        assert hist.max_w[-1] == st.terms.w_node.max()
        alone = initial_state(grid, angle, u0)
        with pytest.raises(SolverError, match="time step too large"):
            for _ in range(len(hist)):
                alone.history  # finishes the row before it alone
                step(alone, policy, angle, tau=10 * policy.dt)
        assert history_bits(hist) == history_bits(alone.history)


class TestSpeedEstimate:
    def test_exact_translator_speed(self, grim_setup):
        grid, angle = grim_setup
        sol = solve_soliton(grid, angle)
        st = initial_state(grid, angle, sol.u_inf)
        run_until(st, StepPolicy(), angle, t_end=2.0)
        dt = auto_dt(grid, StepPolicy())
        assert abs(speed_estimate(st.history, 1.0) - sol.C_quad) <= dt

    def test_insufficient_history(self):
        geom, grid, angle = make_problem("interval", n_r=32)
        st = initial_state(grid, angle, 0.0)
        with pytest.raises(ValueError):
            speed_estimate(st.history, 1.0)
        step(st, StepPolicy(), angle)
        with pytest.raises(ValueError):
            speed_estimate(st.history, 1.0)  # the window reaches before t = 0

    @settings(max_examples=300, deadline=None)
    @given(st_.data())
    def test_window_start_matches_searchsorted(self, data):
        # irregular steps, shortened steps landing on snapshot times, and
        # targets within 1e-12 of a recorded time
        t0 = data.draw(st_.floats(-10.0, 10.0))
        steps = data.draw(st_.lists(st_.one_of(st_.floats(1e-3, 1.0), st_.floats(1e-11, 1e-6)),
                                    min_size=1, max_size=60))
        t = [t0]
        for dt in steps:
            t.append(t[-1] + dt)
        k = data.draw(st_.integers(0, len(t) - 1))
        target = data.draw(st_.one_of(
            st_.floats(t[0] - 1.0, t[-1] + 1.0),
            st_.floats(-2e-12, 2e-12).map(lambda off: t[k] + off),
            st_.just(t[k] - 1e-12)))
        expected = min(int(np.searchsorted(np.asarray(t), target + 1e-12)), len(t) - 2)
        assert _window_start(t, target) == expected

    def test_speed_estimate_window_on_snapshot_steps(self):
        t = [0.0, 0.3, 0.5, 0.8, 1.0, 1.3, 1.5]  # 0.5, 1.0, 1.5: shortened steps
        ones, zeros = [1.0] * len(t), [0.0] * len(t)
        hist = FlowHistory(t=t, mean_u=[2.0 * v for v in t], max_w=ones, osc_u=zeros,
                           speed=zeros, max_weta=ones)
        assert speed_estimate(hist, 1.0) == pytest.approx(2.0, rel=1e-14)
        assert speed_estimate(hist, 1.5) == pytest.approx(2.0, rel=1e-14)
        with pytest.raises(ValueError):
            speed_estimate(hist, 1.6)


class TestEtaMonitor:
    def test_flat_zero_state(self):
        geom, grid, angle = make_problem("interval", n_r=100)
        st = initial_state(grid, angle, 0.0)
        s_def = geom.hess_d_bound + 2.0
        val, _ = eta_monitor(grid, st.field, angle, C=0.0)
        d_max = 0.75  # plateau of the smoothed distance
        assert val == pytest.approx(s_def * d_max + 1.0, rel=1e-12)

    def test_translation_invariance(self, grim_setup):
        grid, angle = grim_setup
        sol = solve_soliton(grid, angle)
        f0 = Field(sol.u_inf.values.copy(), 0.0)
        f1 = Field(sol.u_inf.values + 0.5, 1.0)
        w0, i0 = eta_monitor(grid, f0, angle, C=0.5)
        w1, i1 = eta_monitor(grid, f1, angle, C=0.5)
        assert w0 == pytest.approx(w1, rel=1e-14)
        assert i0 == i1

    def test_recorded_along_flow(self, grim_setup):
        grid, angle = grim_setup
        st = initial_state(grid, angle, 0.0)
        run_until(st, StepPolicy(), angle, t_end=1.0)
        weta = np.asarray(st.history.max_weta)
        assert np.all(np.isfinite(weta)) and np.all(weta > 0)

    @pytest.mark.parametrize("kind", ["interval", "radial_ball", "polar_disk"])
    def test_distance_terms_computed_once_per_grid(self, kind, monkeypatch):
        calls, hess_reads = [], []
        original = Geometry.smoothed_distance
        original_hess = Geometry.hess_d_bound

        def counting(self, x):
            calls.append(self)
            return original(self, x)

        def counting_hess(self):
            hess_reads.append(self)
            return original_hess.fget(self)

        monkeypatch.setattr(Geometry, "smoothed_distance", counting)
        monkeypatch.setattr(Geometry, "hess_d_bound", property(counting_hess))
        geom, grid, angle = make_problem(kind, phi="const:0.2")
        st = initial_state(grid, angle, 0.0)
        run_until(st, StepPolicy(), angle, t_end=50 * auto_dt(grid, StepPolicy()))
        assert len(st.history) == 51
        assert len(calls) <= 1
        assert len(hess_reads) <= 1  # the monitor's S

    @pytest.mark.parametrize("kind", ["interval", "radial_ball", "polar_disk"])
    def test_two_flows_on_one_grid_each_evaluate_the_distance_once(self, kind, monkeypatch):
        calls = []
        original = Geometry.smoothed_distance

        def counting(self, x):
            calls.append(self)
            return original(self, x)

        monkeypatch.setattr(Geometry, "smoothed_distance", counting)
        geom, grid, angle = make_problem(kind, phi="const:0.2")
        policy = StepPolicy()
        for flows, u0 in enumerate((0.0, 0.01), start=1):
            st = initial_state(grid, angle, u0)
            run_until(st, policy, angle, t_end=20 * auto_dt(grid, policy))
            assert len(st.history) == 21
            assert len(calls) == flows

    @pytest.mark.parametrize("kind", ["interval", "radial_ball", "polar_disk"])
    def test_monitor_matches_direct_evaluation(self, kind):
        geom, grid, angle = make_problem(kind, phi="const:-0.3")
        st = initial_state(grid, angle, 0.0)
        run_until(st, StepPolicy(), angle, t_end=0.1)
        rng = np.random.default_rng(7)
        K, C = 5.0, 0.3

        def check(grid, angle, base=0.0):
            f = Field(base + 0.1 * rng.standard_normal(grid.ext_shape), 0.4)
            got, _ = eta_monitor(grid, f, angle, C=C)
            # from scratch: centered slopes and W inline, no cached distance terms
            v = f.values
            c = (v[2:] - v[:-2]) / (2.0 * grid.h_r)
            if grid.is_disk:
                u = v[1:-1]
                w_t = (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2.0 * grid.h_theta
                                                                          * grid.nodes[:, None])
                w = np.sqrt(1.0 + c * c + w_t * w_t)
            else:
                w = np.sqrt(1.0 + c * c)
            d, _ = geom.smoothed_distance(grid.nodes)
            dd = geom.smoothed_distance_gradient(grid.nodes)
            if grid.is_disk:
                d, dd = d[:, None], dd[:, None]
            s = geom.hess_d_bound + 2.0
            bracket = s * d + 1.0 - (angle.extension(grid) / w) * (c * dd)
            want = np.exp(np.max(np.log(w) + K * (f.interior - C * f.t) + np.log(bracket)))
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)

        check(grid, angle, base=st.field.values)
        # a second angle on the same grid gets its own tilt
        check(grid, AngleData(phi=-2.0 * angle.phi))
        check(grid, angle)
        # the same angle on a second grid of the geometry
        finer = make_grid(geom, grid.n_r + 7, grid.n_theta if grid.is_disk else None)
        check(finer, angle)
        check(grid, angle)
