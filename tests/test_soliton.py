import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_
from scipy.sparse.linalg import splu

from mcfsolve import operators

from mcfsolve import (NewtonPolicy, build_problem, capillary_jacobian,
                      capillary_residual, catalog_cases, field_mean,
                      flux_balance, make_field, node_area_element,
                      parse_config, solve_capillary_eps, solve_soliton,
                      verify_compatibility)

from conftest import PHI_GRIM, grim_reaper_exact, make_problem

# fine-grid reference for the flat disk with phi = -0.2 (N_r = 2000)
FLAT_DISK_SPEED_BASELINE = 0.4040961589156839


class TestCapillaryEps:
    def test_zero_angle_zero_solution(self):
        geom, grid, angle = make_problem("interval", n_r=64)
        u = solve_capillary_eps(grid, angle, 0.5)
        assert np.max(np.abs(u.interior)) < 1e-12

    def test_grim_reaper_small_eps(self):
        geom, grid, angle = make_problem("interval", n_r=200, phi=f"const:{PHI_GRIM!r}")
        u = solve_capillary_eps(grid, angle, 1e-4)
        mean = field_mean(grid, u)
        assert 1e-4 * mean == pytest.approx(0.5, abs=1e-3)
        exact = grim_reaper_exact(grid.nodes)
        exact -= field_mean(grid, exact)
        assert np.max(np.abs((u.interior - mean) - exact)) < 1e-3

    def test_additive_gauge_pinned(self):
        geom, grid, angle = make_problem("interval", n_r=64, phi="const:-0.3")
        pol = NewtonPolicy()
        u0 = solve_capillary_eps(grid, angle, 0.1, make_field(grid, 0.0), pol)
        u10 = solve_capillary_eps(grid, angle, 0.1, make_field(grid, 10.0), pol)
        assert np.max(np.abs(u0.interior - u10.interior)) < 1e-8

    def test_residual_below_tol(self):
        geom, grid, angle = make_problem("radial_ball", n=2, R=0.3, n_r=80,
                                         curvature={"model": "hyperbolic", "K": 1.0},
                                         phi="const:0.05")
        pol = NewtonPolicy()
        eps = 1e-3
        from mcfsolve.soliton import _newton_eps
        v, mu_t, _ = _newton_eps(grid, angle, eps, np.zeros(grid.shape), 0.0, pol)
        res = capillary_residual(grid, v, angle, eps) - mu_t
        assert np.max(np.abs(res)) < 10 * pol.tol
        # the reconstructed field carries the 1/eps mean, so re-differencing
        # it floors at |u| * macheps / h^2
        u = solve_capillary_eps(grid, angle, eps, policy=pol)
        res_u = capillary_residual(grid, u.interior, angle, eps)
        floor = np.max(np.abs(u.interior)) * 2.3e-16 / grid.h_r ** 2
        assert np.max(np.abs(res_u)) < 10 * pol.tol + 10 * floor

    def test_invalid_eps(self):
        geom, grid, angle = make_problem("interval", n_r=32)
        with pytest.raises(ValueError):
            solve_capillary_eps(grid, angle, 0.0)


class TestSolveSoliton:
    def test_zero_angle(self):
        geom, grid, angle = make_problem("interval", n_r=64)
        sol = solve_soliton(grid, angle)
        assert sol.C_eps == pytest.approx(0.0, abs=1e-12)
        assert sol.C_quad == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(sol.u_inf.interior)) < 1e-10

    def test_grim_reaper(self, grim_setup):
        grid, angle = grim_setup
        sol = solve_soliton(grid, angle)
        assert sol.C_eps == pytest.approx(0.5, abs=1e-3)
        assert sol.C_quad == pytest.approx(0.5, abs=1e-3)
        assert abs(sol.C_eps - sol.C_quad) <= 1e-4
        exact = grim_reaper_exact(grid.nodes)
        exact -= field_mean(grid, exact)
        diff = sol.u_inf.interior - exact
        assert np.max(diff) - np.min(diff) <= 1e-3

    def test_defc_exact_ratio(self, grim_setup):
        # for the grim reaper the boundary and bulk integrals are both
        # multiples of sin(1/2), so the analytic ratio is exactly 1/2
        num = 2 * math.sin(0.5)
        den = 4 * math.sin(0.5)
        assert num / den == 0.5

    def test_hyperbolic_disk_iteration_budget(self):
        geom, grid, angle = make_problem("radial_ball", n=2, R=0.3, n_r=120,
                                         curvature={"model": "hyperbolic", "K": 1.0},
                                         phi="const:0.05")
        sol = solve_soliton(grid, angle)
        assert max(sol.newton_iters) <= 15

    def test_sign_consistency(self):
        for kind, kw in (("interval", {}),
                         ("radial_ball", {"n": 3, "R": 1.0}),
                         ("polar_disk", {"n_r": 24, "n_theta": 16})):
            geom, grid, angle = make_problem(kind, phi="const:-0.15", **kw)
            sol = solve_soliton(grid, angle)
            assert sol.C_quad > 0.0

    def test_flat_disk_regression(self):
        geom, grid, angle = make_problem("radial_ball", n=2, R=1.0, n_r=500,
                                         phi="const:-0.2")
        sol = solve_soliton(grid, angle)
        assert sol.C_quad > 0.4
        assert sol.C_quad == pytest.approx(FLAT_DISK_SPEED_BASELINE, abs=5e-4)

    def test_profile_mean_zero(self, grim_setup):
        grid, angle = grim_setup
        sol = solve_soliton(grid, angle)
        assert abs(field_mean(grid, sol.u_inf)) < 1e-12


class TestDirectSolve:
    """The eps = 0 bordered system is solved by one Newton solve."""

    @pytest.mark.parametrize("name,cfg", catalog_cases(), ids=[n for n, _ in catalog_cases()])
    def test_catalog_converges_in_few_iterations(self, name, cfg):
        geom, grid, angle = build_problem(parse_config(cfg))
        sol = solve_soliton(grid, angle)
        assert len(sol.newton_iters) == 1
        assert sum(sol.newton_iters) <= 8
        assert sol.residual <= 1e-10
        assert abs(sol.C_eps - sol.C_h) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st_.data())
    def test_random_admissible_inputs_converge(self, data):
        kind = data.draw(st_.sampled_from(["interval", "flat", "hyperbolic", "pinched_ch",
                                           "polar_disk"]))
        n_r = data.draw(st_.integers(8, 41))
        phi0 = data.draw(st_.floats(-0.94, 0.94))
        solver = {"N_r": n_r}
        if kind == "interval":
            a = data.draw(st_.floats(-2.0, -0.2))
            geometry = {"kind": "interval", "a": a, "b": a + data.draw(st_.floats(0.4, 3.0))}
            phi = f"const:{phi0!r}"
        elif kind == "polar_disk":
            geometry = {"kind": "polar_disk", "R": data.draw(st_.floats(0.3, 2.0))}
            coeffs = [phi0] + data.draw(st_.lists(st_.floats(-1.0, 1.0), max_size=6))
            scale = 0.94 / max(0.94, sum(abs(c) for c in coeffs))
            phi = "fourier:" + ",".join(repr(c * scale) for c in coeffs)
            solver = {"N_r": min(n_r, 21), "N_theta": 2 * data.draw(st_.integers(4, 12))}
        else:
            curvature = {"model": kind}
            if kind != "flat":
                curvature["K"] = data.draw(st_.floats(0.2, 3.0))
            geometry = {"kind": "radial_ball", "n": data.draw(st_.integers(2, 5)),
                        "R": data.draw(st_.floats(0.1, 3.0)), "curvature": curvature}
            phi = f"const:{phi0!r}"
        cfg = {"geometry": geometry, "angle": {"phi": phi}, "solver": solver}
        geom, grid, angle = build_problem(parse_config(cfg))
        sol = solve_soliton(grid, angle)
        assert sol.residual <= 1e-9
        # the fluxes scale with the ball's volume weight (~1e5 for K R = 8
        # in 3-D), so the telescoping holds to rounding relative to them
        rep = verify_compatibility(sol)
        assert rep["flux_gap"] <= 1e-12 * max(1.0, abs(rep["flux_boundary"]))


class TestDiscreteSpeed:
    @pytest.mark.parametrize("name", ["grim_reaper", "disk_fourier"])
    def test_matches_multiplier_and_telescoped_flux(self, name):
        geom, grid, angle = build_problem(parse_config(dict(catalog_cases())[name]))
        sol = solve_soliton(grid, angle)
        # C_h and C_eps differ only by the Newton tolerance
        assert abs(sol.C_h - sol.C_eps) <= 1e-8
        ext = sol.u_inf.values
        w = node_area_element(grid, ext)
        if grid.is_disk:
            mass = np.sum(grid.op_weights[:, None] / w) * grid.h_theta
        else:
            mass = np.sum(grid.op_weights / w)
        _, boundary_flux, _ = flux_balance(grid, ext)
        assert abs(sol.C_h * mass - boundary_flux) <= 1e-12
        # the residual measures u_inf against the discrete translator equation
        assert sol.residual < 1e-6


class TestVerifyCompatibility:
    def test_grim_reaper(self, grim_setup):
        grid, angle = grim_setup
        rep = verify_compatibility(solve_soliton(grid, angle))
        assert rep["speed_gap"] <= 1e-4
        assert rep["flux_gap"] <= 1e-12

    def test_bc_model_gap_first_order_on_ball(self):
        # the telescoped face sits h/2 outside the boundary, so on a ball,
        # measured in the same sphere measure as the angle integral, the
        # gap to the angle integral halves with h
        gaps = []
        for n_r in (50, 100):
            geom, grid, angle = make_problem("radial_ball", n=3, R=1.0, n_r=n_r,
                                             phi="const:-0.1")
            gaps.append(verify_compatibility(solve_soliton(grid, angle))["bc_model_gap"])
        assert 1.8 <= gaps[0] / gaps[1] <= 2.2

    def test_zero_angle_all_zero(self):
        geom, grid, angle = make_problem("interval", n_r=64)
        rep = verify_compatibility(solve_soliton(grid, angle))
        assert rep["C_eps"] == pytest.approx(0.0, abs=1e-12)
        assert rep["C_quad"] == pytest.approx(0.0, abs=1e-12)
        assert rep["flux_gap"] <= 1e-13

    def test_random_disk_angle(self):
        rng = np.random.default_rng(42)
        coeffs = rng.uniform(-1.0, 1.0, 4)
        coeffs *= 0.1 / np.sum(np.abs(coeffs))
        spec = "fourier:" + ",".join(repr(float(c)) for c in coeffs)
        geom, grid, angle = make_problem("polar_disk", n_r=32, n_theta=30, phi=spec)
        assert angle.phi0 <= 0.1 + 1e-12
        rep = verify_compatibility(solve_soliton(grid, angle))
        assert rep["flux_gap"] <= 1e-12
        assert rep["speed_gap"] <= 1e-3


class TestJacobian:
    @pytest.mark.parametrize("kind,kw", [
        ("interval", {"n_r": 48, "phi": "const:-0.3"}),
        ("radial_ball", {"n_r": 40, "n": 3, "R": 1.0, "phi": "const:0.2"}),
        ("polar_disk", {"n_r": 14, "n_theta": 18, "phi": "fourier:0.1,0.05,0.02"}),
        ("polar_disk", {"n_r": 8, "n_theta": 8, "phi": "fourier:0.1,0.05,0.02"}),
        ("polar_disk", {"n_r": 8, "n_theta": 10, "phi": "fourier:0.1,0.05,0.02"}),
    ])
    def test_matches_directional_derivative(self, kind, kw):
        geom, grid, angle = make_problem(kind, **kw)
        rng = np.random.default_rng(2)
        u0 = 0.1 * rng.standard_normal(grid.shape)
        jac = capillary_jacobian(grid, u0, angle, 0.05)
        v = rng.standard_normal(grid.shape)
        d = 1e-50
        exact = capillary_residual(grid, u0 + 1j * d * v, angle, 0.05).imag / d
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(jac @ v.ravel() - exact.ravel())) / scale < 1e-12

    @pytest.mark.parametrize("kind,kw", [
        ("interval", {"n_r": 16, "phi": "const:-0.3"}),
        ("polar_disk", {"n_r": 8, "n_theta": 8, "phi": "fourier:0.1,0.05,0.02"}),
        ("polar_disk", {"n_r": 9, "n_theta": 10, "phi": "fourier:0.1,0.05,0.02"}),
        ("polar_disk", {"n_r": 13, "n_theta": 12, "phi": "fourier:-0.2,0.05,0.02"}),
    ])
    def test_pattern_is_the_exact_stencil(self, kind, kw):
        # the stored entries are exactly the nonzeros of the Jacobian taken
        # one column at a time: no missing coupling, no structural zero
        geom, grid, angle = make_problem(kind, **kw)
        u0 = 0.2 * np.random.default_rng(3).standard_normal(grid.shape)
        jac = capillary_jacobian(grid, u0, angle, 0.05)
        assert jac.has_canonical_format
        n = grid.n_unknowns
        dense = np.empty((n, n))
        for c in range(n):
            u = u0.astype(complex).ravel()
            u[c] += 1e-50j
            out = capillary_residual(grid, u.reshape(grid.shape), angle, 0.05)
            dense[:, c] = out.ravel().imag / 1e-50
        stored = jac.copy()
        stored.data[:] = 1.0
        assert np.array_equal(stored.toarray() != 0.0, dense != 0.0)
        assert np.max(np.abs(jac.toarray() - dense)) == 0.0

    @pytest.mark.parametrize("kind,phi", [("interval", "const:-0.3"),
                                          ("polar_disk", "fourier:0.1,0.05,0.02")])
    def test_cached_pattern_survives_factorization(self, kind, phi, monkeypatch):
        # the pattern is shared by every Jacobian of the grid; factoring one
        # must leave it intact and canonical for the next
        geom, grid, angle = make_problem(kind, phi=phi)
        rng = np.random.default_rng(17)
        states = [0.3 * rng.standard_normal(grid.shape) for _ in range(2)]
        splu(capillary_jacobian(grid, states[0], angle, 0.05))
        again = capillary_jacobian(grid, states[1], angle, 0.05)
        assert again.has_canonical_format
        monkeypatch.setattr(operators, "_COLOR_CACHE", {})
        fresh = capillary_jacobian(grid, states[1], angle, 0.05)
        assert np.array_equal(again.indices, fresh.indices)
        assert np.array_equal(again.indptr, fresh.indptr)
        assert abs(again - fresh).max() == 0.0

    def test_probe_groups_read_off_the_stencil(self, monkeypatch):
        # the 40 x 40 disk's stencil admits far fewer probe groups than one
        # per pole column plus a fixed block coloring
        geom, grid, angle = make_problem("polar_disk", n_r=40, n_theta=40,
                                         phi="fourier:0.1,0.05,0.0")
        calls = []
        residual = operators.capillary_residual
        monkeypatch.setattr(operators, "capillary_residual",
                            lambda *a: calls.append(1) or residual(*a))
        capillary_jacobian(grid, np.zeros(grid.shape), angle, 0.0)
        assert len(calls) <= 16
