import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_

from mcfsolve import (Field, StepPolicy, angle_from_spec, auto_dt, contraction_test,
                      eta_monitor, initial_state, make_geometry, make_grid, refinement_study,
                      run_to_stationarity, solve_soliton, verify_convergence)
from mcfsolve import SolverError, build_problem, catalog_cases, diagnostics, flow, parse_config
from conftest import PHI_GRIM, make_problem


@pytest.fixture(scope="module")
def grim_verified():
    geom = make_geometry({"kind": "interval", "a": -1.0, "b": 1.0})
    grid = make_grid(geom, 200)
    angle = angle_from_spec(grid, f"const:{PHI_GRIM!r}")
    sol = solve_soliton(grid, angle)
    state, t_stat = run_to_stationarity(grid, angle, StepPolicy())
    return grid, angle, sol, state, t_stat


def test_run_to_stationarity_stops_at_1e_6_and_doubles(grim_verified, monkeypatch):
    # run_until's rule, osc(u_new - u_old) / dt < 1e-6 on a row whose windowed
    # speed (tau = 10 dt) is defined, holds first at t_stat, and the run goes
    # on to 2 t_stat; each step's fields are recorded as the run takes it
    grid, angle, _, verified, verified_t_stat = grim_verified
    pairs = []
    original = flow.step

    def recording(state, *args, **kwargs):
        before = state.field
        original(state, *args, **kwargs)
        pairs.append((before, state.field))
        return state

    monkeypatch.setattr(flow, "step", recording)
    state, t_stat = run_to_stationarity(grid, angle, StepPolicy())
    assert (t_stat, state.t) == (verified_t_stat, verified.t)
    assert state.t == pytest.approx(2.0 * t_stat, abs=1e-12)
    assert t_stat < 2.0  # no window of 1 time unit or more: it stops at the flow's own rate
    hist = state.history
    assert len(pairs) == len(hist) - 1
    # a row's speed is taken over the rows before it, so it is defined from
    # the row after the first that lies tau = 10 dt past the start
    tau = 10.0 * auto_dt(grid, StepPolicy())
    first = next(k for k, t in enumerate(hist.t) if t >= tau - 1e-12) + 1
    assert np.isnan(hist.speed[first - 1]) and np.isfinite(hist.speed[first])

    def stationary(i):
        old, new = pairs[i - 1]
        du = new.interior - old.interior
        return not np.isnan(hist.speed[i]) and (du.max() - du.min()) / (new.t - old.t) < 1e-6

    i_stat = hist.t.index(t_stat)
    assert stationary(i_stat)
    assert not any(stationary(i) for i in range(1, i_stat))


@pytest.fixture(scope="module")
def catalog_flows():
    """Each catalog case's translator and its flow from u = 0 to twice its
    stationarity time, and that time."""
    out = {}
    for name, cfg in catalog_cases():
        _, grid, angle = build_problem(parse_config(cfg))
        sol = solve_soliton(grid, angle)
        state, t_stat = run_to_stationarity(grid, angle, StepPolicy(), snapshot_interval=None)
        out[name] = grid, sol, state, t_stat
    return out


@pytest.mark.parametrize("name", [name for name, _ in catalog_cases()])
def test_speed_at_the_stop_and_the_end_is_the_discrete_speed(catalog_flows, name):
    # the windowed speed of the row where run_until stopped is C_h within the
    # stop rule's tolerance (its window still holds earlier, faster steps;
    # the catalog reads at most 4.8e-9), and at the end of the doubled run
    # it is C_h up to rounding
    _, sol, state, t_stat = catalog_flows[name]
    speed = state.history.speed
    assert abs(speed[state.history.t.index(t_stat)] - sol.C_h) <= diagnostics._STATIONARY_SPEED_TOL
    assert abs(speed[-1] - sol.C_h) <= 1e-10


@pytest.mark.parametrize("name", [name for name, _ in catalog_cases() if name != "disk_fourier"])
def test_gradient_monitor_peaks_at_the_start(catalog_flows, name):
    # in 1-D, from u = 0, max W eta at the step's own speed never rises by more
    # than rounding, so the history's peak is its first row (the disk's limit
    # has a larger W eta than u = 0, so no such bound holds there)
    _, _, state, _ = catalog_flows[name]
    weta = np.asarray(state.history.max_weta)
    assert np.diff(weta).max() <= 1e-10
    assert weta.argmax() == 0


@pytest.mark.parametrize("name", ["grim_reaper", "flat_ball_n2", "disk_fourier"])
def test_final_gradient_monitor_is_the_translators(catalog_flows, name):
    # at the end of the doubled run the field is u_inf + C_h t up to a shift,
    # so the last row's max W eta, at the step's own speed C, is the monitor
    # of u_inf shifted to the last mean less C t, at C = 0 (the three read
    # 9e-14, 3e-13 and 5.5e-13 apart)
    grid, sol, state, _ = catalog_flows[name]
    _, _, angle = build_problem(parse_config(dict(catalog_cases())[name]))
    hist = state.history
    c_step = (hist.mean_u[-1] - hist.mean_u[-2]) / (hist.t[-1] - hist.t[-2])
    shifted = Field(sol.u_inf.values + (hist.mean_u[-1] - c_step * hist.t[-1]), hist.t[-1])
    want, _ = eta_monitor(grid, shifted, angle, C=0.0)
    assert hist.max_weta[-1] == pytest.approx(want, rel=1e-9)


def test_diverging_flow_runs_out_of_its_budget(monkeypatch):
    # the first lagged matrix, frozen at a rough start, drives the flow away
    # from the translator; run_to_stationarity stops it at its budget, the
    # steps of dt that reach t = 200, with an error naming the rule, the time
    # reached and the last row
    monkeypatch.setattr(flow, "_REFACTOR_TOL", 1e9)
    _, grid, angle = build_problem(parse_config(dict(catalog_cases())["grim_reaper"]))
    sol = solve_soliton(grid, angle)
    rng = np.random.default_rng(0)
    states = []
    original = diagnostics.initial_state
    monkeypatch.setattr(diagnostics, "initial_state",
                        lambda *args: states.append(original(*args)) or states[-1])
    with pytest.raises(SolverError) as info:
        run_to_stationarity(grid, angle, StepPolicy(),
                            u0=sol.u_inf.interior + 0.1 * rng.standard_normal(grid.shape),
                            snapshot_interval=None)
    state, = states
    msg = str(info.value)
    assert "speed_tol = 1e-06" in msg
    assert f"t = {state.t!r}" in msg
    budget = math.ceil(diagnostics._STATIONARY_T_MAX / auto_dt(grid, StepPolicy()))
    assert f"after {budget} steps" in msg
    assert repr(state.history.rows()[-1]) in msg
    assert len(state.history) == budget + 1
    assert state.t == pytest.approx(diagnostics._STATIONARY_T_MAX)
    assert max(state.history.max_w) > 1e3  # it diverged, it did not settle


def test_explicit_flow_is_stationary_within_the_budget():
    # the budget is a time: the explicit scheme's dt = 0.4 h_r^2 takes some
    # 40,000 steps to grim_reaper's stationarity time, and gets them
    cfg = parse_config({"preset": "grim_reaper", "solver": {"scheme": "explicit"}})
    _, grid, angle = build_problem(cfg)
    policy = cfg.step_policy()
    sol = solve_soliton(grid, angle)
    state, t_stat = run_to_stationarity(grid, angle, policy, snapshot_interval=None)
    assert t_stat < 2.0
    assert len(state.history) > 20_000  # more than a step count sized for dt = h_r would give
    assert verify_convergence(state, sol, tol=1e-3).passed


class TestVerifyConvergence:
    def test_grim_reaper_passes(self, grim_verified):
        grid, angle, sol, state, _ = grim_verified
        rep = verify_convergence(state, sol, tol=1e-3)
        assert rep.passed
        assert rep.checks["final_osc"][0] < 1e-3
        assert rep.checks["speed_gap"][0] < 1e-3
        assert rep.checks["w_envelope_growth"][0] <= 1e-3

    def test_perturbed_profile_fails(self, grim_verified):
        grid, angle, sol, state, _ = grim_verified
        import copy
        bad = copy.copy(sol)
        bad.u_inf = Field(sol.u_inf.values + 0.1 * np.concatenate(
            ([0.0], grid.nodes, [0.0])), 0.0)
        rep = verify_convergence(state, bad, tol=1e-3)
        assert not rep.checks["final_osc"][2]
        assert not rep.passed

    def test_grid_mismatch(self, grim_verified):
        grid, angle, sol, state, _ = grim_verified
        geom2 = make_geometry({"kind": "interval", "a": -1.0, "b": 1.0})
        grid2 = make_grid(geom2, 100)
        angle2 = angle_from_spec(grid2, f"const:{PHI_GRIM!r}")
        sol2 = solve_soliton(grid2, angle2)
        with pytest.raises(ValueError):
            verify_convergence(state, sol2, tol=1e-3)

    def test_bounded_drift_after_stationarity(self, grim_verified):
        # max |u - C t - u_inf| settles to a constant, no late growth
        grid, angle, sol, state, t_stat = grim_verified
        rep = verify_convergence(state, sol, tol=1e-3)
        late = [d for t, d in rep.drift_trace if t >= t_stat]
        assert len(late) >= 2
        assert np.all(np.diff(late) <= 1e-6)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0])
    def test_bad_tol_rejected(self, grim_verified, tol):
        # bad input, not a failed verification
        grid, angle, sol, state, _ = grim_verified
        with pytest.raises(ValueError):
            verify_convergence(state, sol, tol=tol)

    def test_zero_angle_constant_limit(self):
        geom, grid, angle = make_problem("interval", n_r=100)
        sol = solve_soliton(grid, angle)
        state = initial_state(grid, angle, lambda x: 0.1 * np.cos(np.pi * x))
        from mcfsolve import run_until
        run_until(state, StepPolicy(), angle, t_end=5.0, snapshot_interval=1.0)
        rep = verify_convergence(state, sol, tol=1e-3)
        assert rep.passed
        assert abs(sol.C_quad) < 1e-14


class TestContraction:
    def test_constant_difference(self):
        geom, grid, angle = make_problem("interval", n_r=64, phi="const:-0.3")
        rep = contraction_test(grid, 0.0, 3.0, angle, StepPolicy(), 2.0)
        assert rep["started_constant"]
        assert max(f for _, f in rep["F_trace"]) < 1e-12
        assert rep["pass"]

    def test_cos_perturbation_contracts(self):
        geom, grid, angle = make_problem("interval", n_r=64, phi="const:-0.3")
        rep = contraction_test(grid, 0.0, lambda x: 0.2 * np.cos(np.pi * x),
                               angle, StepPolicy(), 5.0)
        assert rep["pass"]
        assert rep["F_final"] < rep["F_initial"]
        assert rep["max_step_increase"] <= 1e-10

    @pytest.mark.parametrize("t_final", [math.inf, math.nan, 0.0, -1.0])
    def test_t_final_must_be_positive_and_finite(self, t_final):
        # a run length of zero or less would still take one step and pass
        geom, grid, angle = make_problem("interval", n_r=64, phi="const:-0.3")
        with pytest.raises(ValueError, match="t_final must be positive and finite"):
            contraction_test(grid, 0.0, lambda x: 0.1 * np.cos(np.pi * x), angle,
                             StepPolicy(), t_final)

    def test_trace_is_timeseries(self):
        geom, grid, angle = make_problem("interval", n_r=64, phi="const:-0.1")
        rep = contraction_test(grid, 0.0, lambda x: 0.1 * np.cos(np.pi * x),
                               angle, StepPolicy(), 1.0)
        ts = [t for t, _ in rep["F_trace"]]
        assert ts[0] == 0.0 and all(b > a for a, b in zip(ts, ts[1:]))


def smooth_profile(grid, coeffs):
    """sum_k c_k cos(k pi s) in the normalised radius s, plus on the disk a
    first angular mode s^2 cos(theta) weighted by the last coefficient."""
    s = (grid.nodes - grid.nodes[0]) / (grid.nodes[-1] - grid.nodes[0])
    radial = sum(c * np.cos(k * np.pi * s) for k, c in enumerate(coeffs, start=1))
    if not grid.is_disk:
        return radial
    return radial[:, None] + coeffs[-1] * np.outer(s * s, np.cos(grid.theta))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st_.data())
def test_contraction_with_lagged_reuse(data):
    # the contraction argument is made for the current lagged matrix; the
    # default policy reuses a stale one, so check the property directly
    kind = data.draw(st_.sampled_from(["interval", "radial_ball", "polar_disk"]))
    # above |phi| = 0.91 coarse balls lose contraction, with or without
    # reuse; keep a margin below that
    phi = data.draw(st_.floats(-0.85, 0.85))
    if kind == "polar_disk":
        grid_kw = {"n_r": data.draw(st_.integers(8, 24)),
                   "n_theta": 2 * data.draw(st_.integers(4, 8))}
    else:
        grid_kw = {"n_r": data.draw(st_.integers(9, 48))}
        if kind == "radial_ball":
            grid_kw["n"] = data.draw(st_.integers(2, 3))
    geom, grid, angle = make_problem(kind, phi=f"const:{phi!r}", **grid_kw)
    amp = st_.floats(-0.2, 0.2)
    u_a, u_b = (smooth_profile(grid, data.draw(st_.lists(amp, min_size=3, max_size=3)))
                for _ in range(2))
    rep = contraction_test(grid, u_a, u_b, angle, StepPolicy(), 1.0)
    assert rep["pass"], (rep["max_step_increase"], rep["F_initial"], rep["F_final"])


class TestRefinementStudy:
    def test_grim_reaper_orders(self):
        table = refinement_study({"preset": "grim_reaper", "solver": {"N_r": 100}}, 3)
        assert all(o >= 1.9 for o in table["c_orders"])
        assert all(o >= 1.9 for o in table["u_orders"])

    def test_oracle_follows_the_data_not_the_preset_name(self):
        # the preset with another angle is no grim reaper (C = arcsin 0.3),
        # and the preset's data under no name is one
        other = refinement_study({"preset": "grim_reaper", "angle": {"phi": "const:-0.3"},
                                  "solver": {"N_r": 50}}, 3)
        assert len(other["c_errors"]) == 2
        assert all(o >= 1.9 for o in other["c_orders"] + other["u_orders"])
        unnamed = refinement_study({"geometry": {"kind": "interval", "a": -1.0, "b": 1.0},
                                    "angle": {"phi": f"const:{PHI_GRIM!r}"},
                                    "solver": {"N_r": 50}}, 3)
        assert len(unnamed["c_errors"]) == 3
        assert all(o >= 1.9 for o in unnamed["c_orders"] + unnamed["u_orders"])

    @pytest.mark.parametrize("cfg", [
        {"geometry": {"kind": "interval", "a": -1, "b": 1, "curvature": {"model": "flat"}},
         "angle": {"phi": f"const:{PHI_GRIM!r}"}},
        {"preset": "grim_reaper", "angle": {"phi": "const:-0.4794255386042030002732879352"}},
    ])
    def test_oracle_follows_the_built_problem_not_its_spelling(self, cfg):
        # the same geometry and angle values, written differently, still get
        # closed-form errors on every level
        table = refinement_study({**cfg, "solver": {"N_r": 50}}, 3)
        assert len(table["c_errors"]) == 3 and len(table["u_errors"]) == 3
        assert all(o >= 1.9 for o in table["c_orders"] + table["u_orders"])

    def test_flat_disk_cauchy(self):
        cfg = {"geometry": {"kind": "radial_ball", "n": 2, "R": 1.0,
                            "curvature": {"model": "flat"}},
               "angle": {"phi": "const:-0.2"},
               "solver": {"N_r": 50}}
        table = refinement_study(cfg, 3)
        e = table["c_errors"]
        assert e[0] > 3.0 * e[1]

    def test_zero_angle_all_zero(self):
        cfg = {"geometry": {"kind": "interval", "a": -1.0, "b": 1.0},
               "angle": {"phi": "const:0.0"},
               "solver": {"N_r": 32}}
        table = refinement_study(cfg, 3)
        assert all(abs(r["C_quad"]) < 1e-13 for r in table["rows"])
        assert all(e < 1e-12 for e in table["u_errors"])

    def test_min_levels(self):
        with pytest.raises(ValueError):
            refinement_study({"preset": "grim_reaper"}, 2)

    @pytest.mark.parametrize("cfg", [
        {"preset": "grim_reaper", "solver": {"N_r": 50}},
        {"geometry": {"kind": "polar_disk", "R": 1.0}, "angle": {"phi": "fourier:0.1,0.05,0.0"},
         "solver": {"N_r": 16, "N_theta": 16}},
    ])
    def test_runs_no_flow(self, monkeypatch, cfg):
        # the study measures the translator's discretization; it has no use
        # for a flow from it
        def never(*args, **kwargs):
            pytest.fail("the refinement study ran a flow")

        monkeypatch.setattr(diagnostics, "initial_state", never)
        monkeypatch.setattr(diagnostics, "run_until", never)
        table = refinement_study(cfg, 3)
        assert all(o >= 1.9 for o in table["c_orders"] + table["u_orders"])
        assert all("drift_t1" not in row for row in table["rows"])
