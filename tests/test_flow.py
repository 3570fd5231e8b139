import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_

from mcfsolve import (AngleData, Field, SolverError, StepPolicy, auto_dt, build_problem,
                      catalog_cases, eta_monitor, field_mean, ghost_fill, initial_state,
                      make_field, make_grid, parse_config, run_until, solve_soliton,
                      speed_estimate, step)
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

    def test_non_finite_solve_raises_solver_error(self, monkeypatch):
        # the step has no finiteness check of its own: ghost_fill's stands in
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
        original = operators.node_terms

        def counting(grid, ext):
            calls.append(ext)
            return original(grid, ext)

        monkeypatch.setattr(operators, "node_terms", counting)
        geom, grid, angle = make_problem(kind, phi="const:0.2")
        rng = np.random.default_rng(3)
        st = initial_state(grid, angle, 0.05 * rng.standard_normal(grid.shape))
        policy = StepPolicy(scheme)
        run_until(st, policy, angle, t_end=50 * auto_dt(grid, policy))
        assert len(st.history) == 51
        assert len(calls) <= 51

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
        hist = FlowHistory()
        for t in (0.0, 0.3, 0.5, 0.8, 1.0, 1.3, 1.5):  # 0.5, 1.0, 1.5: shortened steps
            hist.append(t, 2.0 * t, 1.0, 0.0, 0.0, 1.0)
        assert speed_estimate(hist, 1.0) == pytest.approx(2.0, rel=1e-14)
        assert speed_estimate(hist, 1.5) == pytest.approx(2.0, rel=1e-14)
        with pytest.raises(ValueError):
            speed_estimate(hist, 1.6)


class TestEtaMonitor:
    def test_flat_zero_state(self):
        geom, grid, angle = make_problem("interval", n_r=100)
        st = initial_state(grid, angle, 0.0)
        s_def = geom.hess_d_bound + 2.0
        val, _ = eta_monitor(grid, st.field, angle, K=5.0, C=0.0)
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
        assert len(hess_reads) <= 1  # the monitor's default S

    @pytest.mark.parametrize("kind", ["interval", "radial_ball", "polar_disk"])
    def test_monitor_matches_direct_evaluation(self, kind):
        geom, grid, angle = make_problem(kind, phi="const:-0.3")
        st = initial_state(grid, angle, 0.0)
        run_until(st, StepPolicy(), angle, t_end=0.1)  # the grid's terms are cached by now
        rng = np.random.default_rng(7)
        K, C = 5.0, 0.3

        def check(grid, angle, S=None, base=0.0):
            f = Field(base + 0.1 * rng.standard_normal(grid.ext_shape), 0.4)
            got, _ = eta_monitor(grid, f, angle, K=K, S=S, C=C)
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
            s = geom.hess_d_bound + 2.0 if S is None else S
            bracket = s * d + 1.0 - (angle.extension(grid) / w) * (c * dd)
            want = np.exp(np.max(np.log(w) + K * (f.interior - C * f.t) + np.log(bracket)))
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)

        check(grid, angle, base=st.field.values)
        # a second angle on the same grid keeps its own per-grid terms
        check(grid, AngleData(phi=-2.0 * angle.phi, phi0=2.0 * angle.phi0))
        check(grid, angle)
        # the same angle on a second grid of the geometry
        finer = make_grid(geom, grid.n_r + 7, grid.n_theta if grid.is_disk else None)
        check(finer, angle)
        check(grid, angle)
        # an explicit S is not the cached default
        check(grid, angle, S=3.7)
        check(grid, angle, S=geom.hess_d_bound + 2.0)

    def test_invalid_constants(self):
        geom, grid, angle = make_problem("interval", n_r=32)
        st = initial_state(grid, angle, 0.0)
        with pytest.raises(ValueError):
            eta_monitor(grid, st.field, angle, K=-1.0)
