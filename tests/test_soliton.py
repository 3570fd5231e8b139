import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st_
from scipy.sparse.linalg import splu

from mcfsolve import operators, soliton
from mcfsolve.flow import SolverError

from mcfsolve import (NewtonPolicy, build_problem, capillary_jacobian,
                      capillary_residual, catalog_cases, field_mean,
                      flux_balance, make_field, node_area_element,
                      parse_config, refinement_study, solve_capillary_eps, solve_soliton,
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

    @settings(max_examples=40, deadline=None, derandomize=True)
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
            model = data.draw(st_.sampled_from(["flat", "hyperbolic", "pinched_ch"]))
            if model == "flat":
                geometry = {"kind": "polar_disk", "R": data.draw(st_.floats(0.3, 2.0))}
                coeffs = [phi0] + data.draw(st_.lists(st_.floats(-1.0, 1.0), max_size=6))
                bound = 0.94
            else:
                # K R <= 1 and |a_k| <= 0.3: the range in which
                # test_curved_disk.test_curved_fourier_disks_solve finds a
                # translator for every draw
                K = data.draw(st_.floats(0.2, 3.0))
                geometry = {"kind": "polar_disk", "R": data.draw(st_.floats(0.05, 1.0)) / K,
                            "curvature": {"model": model, "K": K}}
                coeffs = data.draw(st_.lists(st_.floats(-0.3, 0.3), min_size=1, max_size=5))
                bound = 0.9
            scale = bound / max(bound, sum(abs(c) for c in coeffs))
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


class TestBorderedFactorization:
    """Newton factors its bordered Jacobian with partial pivoting, on the
    disk in a minimum-degree ordering of A^T + A: far less fill than the
    default column ordering there, and accurate solves on every geometry."""

    @pytest.mark.parametrize("cfg", [
        dict(catalog_cases())["disk_fourier"],
        # K R = 1 and |phi| = 0.94: the pivots leave the diagonal here
        {"geometry": {"kind": "polar_disk", "R": 1.0,
                      "curvature": {"model": "hyperbolic", "K": 1.0}},
         "angle": {"phi": "fourier:-0.94"}, "solver": {"N_r": 40, "N_theta": 40}},
        # K R = 4.9: in a minimum-degree ordering with a pivot threshold of
        # 0.1, a solve's relative residual reaches order 1 on this ball
        {"geometry": {"kind": "radial_ball", "n": 3, "R": 2.8312484632649384,
                      "curvature": {"model": "hyperbolic", "K": 1.745589474504305}},
         "angle": {"phi": "const:0.9353550565811185"}, "solver": {"N_r": 73}},
    ], ids=["disk_fourier", "hyperbolic_disk", "hyperbolic_ball"])
    def test_fill_and_solve_residual(self, cfg, monkeypatch):
        factors, solves = [], []
        factor = soliton.splu

        class Recorded:
            def __init__(self, a, *args, **kwargs):
                self.a, self.lu = a, factor(a, *args, **kwargs)
                factors.append(self)

            def solve(self, b):
                x = self.lu.solve(b)
                rel = np.max(np.abs(self.a @ x - b)) / np.max(np.abs(b))
                solves.append((self.lu.L.nnz + self.lu.U.nnz, rel))
                return x

        monkeypatch.setattr(soliton, "splu", Recorded)
        geom, grid, angle = build_problem(parse_config(cfg))
        sol = solve_soliton(grid, angle)
        assert sum(sol.newton_iters) <= 8
        assert len(factors) == sum(sol.newton_iters)
        # the default column ordering stores 123,000-147,000 nonzeros in
        # L + U on the 40 x 40 disks
        assert max(fill for fill, _ in solves) <= 100_000
        assert max(rel for _, rel in solves) <= 1e-9


class TestNewtonPolicy:
    @pytest.mark.parametrize("kw", [{"tol": math.inf}, {"tol": math.nan}, {"tol": 0.0},
                                    {"max_iter": 1.5}, {"max_iter": True}, {"max_iter": 0}],
                             ids=["tol_inf", "tol_nan", "tol_zero", "max_iter_float",
                                  "max_iter_bool", "max_iter_zero"])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            NewtonPolicy(**kw)

    def test_accepts_an_integer_budget(self):
        assert NewtonPolicy(tol=1e-8, max_iter=1).max_iter == 1


def _pure_newton(grid, angle, policy=None):
    """The solve with every chord correction refused: a fresh Jacobian per step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(soliton, "_CHORD_CONTRACTION", 0.0)
        return solve_soliton(grid, angle, policy)


def _assert_same_translator(chord, newton, slack=0.0):
    assert abs(chord.C_eps - newton.C_eps) <= 5e-14 + slack
    assert abs(chord.C_h - newton.C_h) <= 5e-14 + slack
    assert np.max(np.abs(chord.u_inf.values - newton.u_inf.values)) <= 1e-12 + slack


# interval, a ball in each curvature model and a flat and a curved disk,
# angles up to the 0.94 limit, coarse and odd grids
@st_.composite
def _admissible_problems(draw):
    kind = draw(st_.sampled_from(["interval", "flat", "hyperbolic", "pinched_ch",
                                  "polar_disk", "curved_disk"]))
    n_r = draw(st_.integers(8, 41))
    phi0 = draw(st_.floats(-0.94, 0.94))
    if kind == "interval":
        a = draw(st_.floats(-2.0, -0.2))
        return make_problem("interval", a=a, b=a + draw(st_.floats(0.4, 3.0)), n_r=n_r,
                            phi=f"const:{phi0!r}")
    if kind in ("polar_disk", "curved_disk"):
        kw = {"n_r": min(n_r, 21), "n_theta": 2 * draw(st_.integers(4, 12))}
        if kind == "polar_disk":
            kw["R"] = draw(st_.floats(0.3, 2.0))
            coeffs = [phi0] + draw(st_.lists(st_.floats(-0.3, 0.3), max_size=4))
        else:
            K = draw(st_.floats(0.2, 3.0))
            kw["R"] = draw(st_.floats(0.05, 1.0)) / K
            kw["curvature"] = {"model": draw(st_.sampled_from(["hyperbolic", "pinched_ch"])),
                               "K": K}
            coeffs = draw(st_.lists(st_.floats(-0.3, 0.3), min_size=1, max_size=4))
        scale = 0.9 / max(0.9, sum(abs(c) for c in coeffs))
        return make_problem("polar_disk", phi="fourier:" + ",".join(repr(c * scale)
                                                                    for c in coeffs), **kw)
    curvature = {"model": kind}
    if kind != "flat":
        curvature["K"] = draw(st_.floats(0.2, 3.0))
    return make_problem("radial_ball", n=draw(st_.integers(2, 5)), R=draw(st_.floats(0.1, 3.0)),
                        curvature=curvature, n_r=n_r, phi=f"const:{phi0!r}")


class TestChordCorrections:
    """After each damped Newton step the same bordered LU takes chord
    corrections for as long as each cuts the residual below
    _CHORD_CONTRACTION times the last one."""

    @staticmethod
    def _record(monkeypatch):
        factors, solves = [], []
        factor = soliton.splu

        class Recorded:
            def __init__(self, a, *args, **kwargs):
                self.a, self.lu = a, factor(a, *args, **kwargs)
                factors.append(self)

            def solve(self, b):
                x = self.lu.solve(b)
                solves.append(np.max(np.abs(self.a @ x - b)) / np.max(np.abs(b)))
                return x

        monkeypatch.setattr(soliton, "splu", Recorded)
        return factors, solves

    @pytest.mark.parametrize("name", ["disk_fourier", "grim_reaper"])
    def test_each_factor_serves_several_solves(self, name, monkeypatch):
        factors, solves = self._record(monkeypatch)
        geom, grid, angle = build_problem(parse_config(dict(catalog_cases())[name]))
        sol = solve_soliton(grid, angle)
        assert len(factors) == sum(sol.newton_iters)
        assert len(solves) > len(factors)
        # a Newton step and the accepted corrections, plus at most one
        # refused correction per factor
        accepted = sum(sol.newton_iters) + sum(sol.chord_corrections)
        assert accepted <= len(solves) <= accepted + len(factors)
        assert max(solves) <= 1e-9

    @pytest.mark.parametrize("name,cfg", catalog_cases(), ids=[n for n, _ in catalog_cases()])
    def test_catalog_matches_pure_newton(self, name, cfg):
        geom, grid, angle = build_problem(parse_config(cfg))
        newton = _pure_newton(grid, angle)
        assert newton.chord_corrections == [0]
        chord = solve_soliton(grid, angle)
        assert chord.newton_iters == [1] < newton.newton_iters
        assert chord.residual_floor is None  # tol was met
        _assert_same_translator(chord, newton)

    @settings(max_examples=30, deadline=None)
    @given(_admissible_problems())
    def test_random_problems_match_pure_newton(self, problem):
        # either solve may stop anywhere below tol, short of the rounding
        # floor (pure Newton at tol 1e-10 and at 1e-12 differ by up to 0.2
        # times its residual), so the two agree up to the larger residual
        geom, grid, angle = problem
        chord, newton = solve_soliton(grid, angle), _pure_newton(grid, angle)
        _assert_same_translator(chord, newton, max(chord.residual, newton.residual))

    def test_refused_correction_refreshes_the_jacobian(self, monkeypatch):
        # no correction cuts the residual a 10^30-fold, so each is refused and
        # the solve is pure Newton with one wasted solve per factor
        factors, solves = self._record(monkeypatch)
        monkeypatch.setattr(soliton, "_CHORD_CONTRACTION", 1e-30)
        geom, grid, angle = build_problem(parse_config(dict(catalog_cases())["disk_fourier"]))
        sol = solve_soliton(grid, angle)
        assert sol.chord_corrections == [0]
        assert sum(sol.newton_iters) == len(factors) > 1
        assert len(solves) == 2 * len(factors)
        _assert_same_translator(sol, _pure_newton(grid, angle))

    def test_corrections_have_a_finite_budget(self, monkeypatch):
        # with every correction accepted each inner loop stops at max_iter
        monkeypatch.setattr(soliton, "_CHORD_CONTRACTION", math.inf)
        geom, grid, angle = make_problem("interval", n_r=64, phi=f"const:{PHI_GRIM!r}")
        sol = solve_soliton(grid, angle, NewtonPolicy(max_iter=5))
        assert sol.chord_corrections == [5 * sol.newton_iters[0]]
        assert sol.residual <= 1e-10

    def test_budget_counts_newton_iterations(self):
        # the angle 0.94 needs four Jacobians; one is not enough
        geom, grid, angle = make_problem("interval", n_r=200, phi="const:0.94")
        assert solve_soliton(grid, angle).newton_iters == [4]
        with pytest.raises(SolverError, match=r"did not converge at eps=0 in 1 iterations: "
                                              r"residual \d\.\d{3}e[+-]\d\d$"):
            solve_soliton(grid, angle, NewtonPolicy(max_iter=1))

    def test_stagnation_names_eps_iteration_and_residual(self, monkeypatch):
        # a factor of -J points uphill, so no step length lowers the residual
        factor = soliton.splu
        monkeypatch.setattr(soliton, "splu", lambda a, **kw: factor(-a, **kw))
        geom, grid, angle = make_problem("interval", n_r=64, phi=f"const:{PHI_GRIM!r}")
        with pytest.raises(SolverError, match=r"stagnated at eps=0, iteration 0: "
                                              r"residual \d\.\d{3}e[+-]\d\d$"):
            solve_soliton(grid, angle)

    def test_singular_jacobian_names_eps_iteration_and_residual(self, monkeypatch):
        def singular(a, **kw):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(soliton, "splu", singular)
        geom, grid, angle = make_problem("interval", n_r=64, phi=f"const:{PHI_GRIM!r}")
        with pytest.raises(SolverError, match=r"singular capillary Jacobian at eps=0, "
                                              r"iteration 0 \(residual \d\.\d{3}e[+-]\d\d\)"):
            solve_soliton(grid, angle)


class TestRoundingFloor:
    """A solve that stagnates or runs out of iterations above tol is
    accepted when its residual lies within eps ||J||_inf ||(v, mu_t)||_inf."""

    def test_disk_refinement_study_passes_the_tolerance(self):
        # the 160 x 160 level stagnates at a residual of 3.5e-10 > tol = 1e-10
        table = refinement_study(dict(catalog_cases())["disk_fourier"], 3)
        assert all(o >= 1.9 for o in table["c_orders"] + table["u_orders"])

    def test_fine_grim_reaper_solves_at_its_floor(self, monkeypatch):
        # the floor is tested before backtracking, so no step refused at the
        # floor is halved; the count includes the Jacobian probes
        calls = []
        residual = operators.capillary_residual
        monkeypatch.setattr(operators, "capillary_residual",
                            lambda *a: calls.append(1) or residual(*a))
        geom, grid, angle = make_problem("interval", n_r=6400, phi=f"const:{PHI_GRIM!r}")
        sol = solve_soliton(grid, angle)
        assert NewtonPolicy().tol < sol.residual <= sol.residual_floor < 1e-8
        assert sol.C_h == pytest.approx(0.5, abs=1e-7)
        assert len(calls) <= 30

    def test_wrong_jacobian_still_stagnates(self, monkeypatch):
        # one column scaled by 2: the steps stall far above the floor
        factor = soliton.splu

        def wrong(a, **kw):
            scale = np.ones(a.shape[1])
            scale[a.shape[1] // 2] = 2.0
            return factor(sp.csc_matrix(a @ sp.diags(scale)), **kw)

        monkeypatch.setattr(soliton, "splu", wrong)
        geom, grid, angle = make_problem("interval", n_r=64, phi=f"const:{PHI_GRIM!r}")
        with pytest.raises(SolverError, match="stagnated at eps=0"):
            solve_soliton(grid, angle)


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
    def test_cached_pattern_survives_factorization(self, kind, phi):
        # the pattern is shared by every Jacobian of the grid's shape;
        # factoring one must leave it intact and canonical for the next
        geom, grid, angle = make_problem(kind, phi=phi)
        rng = np.random.default_rng(17)
        states = [0.3 * rng.standard_normal(grid.shape) for _ in range(2)]
        splu(capillary_jacobian(grid, states[0], angle, 0.05))
        again = capillary_jacobian(grid, states[1], angle, 0.05)
        assert again.has_canonical_format
        operators._jacobian_pattern.cache_clear()  # the next call builds it afresh
        fresh = capillary_jacobian(grid, states[1], angle, 0.05)
        assert not np.shares_memory(fresh.indices, again.indices)
        assert np.array_equal(again.indices, fresh.indices)
        assert np.array_equal(again.indptr, fresh.indptr)
        assert abs(again - fresh).max() == 0.0

    @pytest.mark.parametrize("kind,kw", [
        ("interval", {"phi": "const:-0.3"}),
        ("radial_ball", {"R": 0.5, "curvature": {"model": "hyperbolic", "K": 1.0},
                         "phi": "const:-0.1"}),
        ("polar_disk", {"phi": "fourier:0.1,0.05,0.02"}),
    ])
    def test_grids_of_one_shape_share_patterns(self, kind, kw):
        # each CLI solve builds a new grid; the stencils are cached per shape,
        # so a second grid of the shape gets the first one's pattern objects
        _, grid, angle = make_problem(kind, **kw)
        _, other, _ = make_problem(kind, **kw)
        assert other is not grid and other.shape == grid.shape
        for pattern in (operators._jacobian_pattern, operators._lagged_pattern):
            first, second = pattern(grid.shape), pattern(other.shape)
            assert all(a is b for a, b in zip(first, second))
        v = 0.2 * np.random.default_rng(5).standard_normal(grid.shape)
        jac = capillary_jacobian(grid, v, angle, 0.0)
        jac_other = capillary_jacobian(other, v, angle, 0.0)
        # the per-solve bordered layout gives the matrix that inserting the
        # border into each Jacobian's arrays gives, bit for bit
        n = grid.n_unknowns
        quad = grid.quad_row.ravel()
        mean_row = quad / float(quad.sum())
        ends = jac.indptr[1:]
        inserted = sp.csc_matrix(
            (np.concatenate((np.insert(jac.data, ends, mean_row), -np.ones(n))),
             np.concatenate((np.insert(jac.indices, ends, n), np.arange(n))),
             np.append(jac.indptr + np.arange(n + 1), ends[-1] + 2 * n)),
            shape=(n + 1, n + 1))
        indices, indptr, data, jac_at = soliton._bordered_layout(other, mean_row)
        data[jac_at] = jac_other.data
        laid_out = sp.csc_matrix((data, indices, indptr), shape=(n + 1, n + 1))
        for a, b in ((laid_out.data, inserted.data), (laid_out.indices, inserted.indices),
                     (laid_out.indptr, inserted.indptr)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

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
