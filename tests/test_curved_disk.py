"""The polar disk in the flat, hyperbolic and pinched models: it reads its
metric sigma = s(r) from the volume weight, as the n = 2 ball does."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_

from mcfsolve import (StepPolicy, angle_from_spec, build_problem, check_existence,
                      ghost_fill, make_field, make_geometry, make_grid, parse_config,
                      run_to_stationarity, solve_soliton, verify_compatibility,
                      verify_convergence)
from mcfsolve.cli import main as cli_main
from mcfsolve.operators import mcf_from_extended, semi_implicit_matrix

CURVED_DISK = {
    "geometry": {"kind": "polar_disk", "R": 0.3,
                 "curvature": {"model": "hyperbolic", "K": 1.0}},
    "angle": {"phi": "fourier:0.05,0.02,0.01"},
    "solver": {"N_r": 24, "N_theta": 24},
}


@pytest.mark.parametrize("curvature,R", [
    ({"model": "flat"}, 1.0),
    ({"model": "hyperbolic", "K": 1.0}, 0.3),
    ({"model": "pinched_ch", "K": 1.0}, 0.3),
])
def test_constant_angle_disk_is_the_n2_ball(curvature, R):
    disk = make_geometry({"kind": "polar_disk", "R": R, "curvature": curvature})
    ball = make_geometry({"kind": "radial_ball", "n": 2, "R": R, "curvature": curvature})
    disk_grid, ball_grid = make_grid(disk, 40, 16), make_grid(ball, 40)
    on_disk = solve_soliton(disk_grid, angle_from_spec(disk_grid, "const:-0.1"))
    on_ball = solve_soliton(ball_grid, angle_from_spec(ball_grid, "const:-0.1"))
    assert abs(on_disk.C_h - on_ball.C_h) <= 1e-14
    assert np.max(np.abs(on_disk.u_inf.interior - on_ball.u_inf.interior[:, None])) <= 1e-14
    assert (disk.k1, disk.kappa0, disk.M1) == (ball.k1, ball.kappa0, ball.M1)


def laplace_beltrami_error(n):
    """max |W div(grad u / W) - Delta_g u| / eps over 1/4 <= r <= 3/4 for
    u = eps r cos(theta) on the hyperbolic disk of radius 1, where W - 1 is
    O(eps^2) and Delta_g u = (coth r - r / sinh(r)^2) cos(theta); the ghost
    and pole-mirror rows hold u itself."""
    geom = make_geometry({"kind": "polar_disk", "R": 1.0,
                          "curvature": {"model": "hyperbolic", "K": 1.0}})
    grid = make_grid(geom, n, n)
    eps, theta = 1e-4, grid.theta
    r_ext = np.concatenate(([grid.nodes[0]], grid.nodes, [1.0 + grid.h_r]))
    ext = eps * np.outer(r_ext, np.cos(theta))
    ext[0] = eps * grid.nodes[0] * np.cos(theta + np.pi)
    r = grid.nodes[:, None]
    exact = eps * (1.0 / np.tanh(r) - r / np.sinh(r) ** 2) * np.cos(theta)
    band = (grid.nodes >= 0.25) & (grid.nodes <= 0.75)
    return np.max(np.abs(mcf_from_extended(grid, ext) - exact)[band]) / eps


def test_operator_is_laplace_beltrami_at_small_slope():
    # the angular terms divide by s(r) = sinh r, not r: at r = 1/2 that is
    # a 9% difference in 1 / s^2, far above the O(h^2) error
    coarse, fine = laplace_beltrami_error(20), laplace_beltrami_error(40)
    assert fine <= 1e-2
    assert coarse / fine >= 3.5


def test_lagged_matrix_is_the_operator_on_curved_disk():
    # M(u) u is the nonlinear operator at u off the boundary ring, whose
    # ghost constant -2h p0 is lagged into the right-hand side
    geom, grid, angle = build_problem(parse_config(CURVED_DISK))
    r, th = grid.nodes[:, None], grid.theta[None, :]
    u0 = 0.3 * (r * np.cos(th) + r ** 2 * np.sin(2 * th + 0.4))
    ext = ghost_fill(grid, make_field(grid, u0), angle).values
    dt = 0.7 * grid.h_r
    a_mat = semi_implicit_matrix(grid, ext, angle, dt).toarray()
    m_u = ((np.eye(grid.n_unknowns) - a_mat) / dt) @ ext[1:-1].ravel()
    mcf = mcf_from_extended(grid, ext)
    gap = np.abs(m_u.reshape(grid.shape) - mcf)[:-1]
    assert np.max(gap) <= 1e-10 * np.max(np.abs(mcf))


def test_theta_c1_norm_in_arc_length():
    # the hyperbolic boundary circle of radius 0.3 is as long as the flat one
    # of radius sinh(0.3), so the same angle data has the same C^1 norm
    geom, grid, angle = build_problem(parse_config(CURVED_DISK))
    flat = make_geometry({"kind": "polar_disk", "R": float(np.sinh(0.3))})
    assert check_existence(geom, angle).theta_c1 == pytest.approx(
        check_existence(flat, angle).theta_c1, rel=1e-12)


# K R <= 1 and |a_k| <= 0.3 is where every draw has a translator.  Beyond it
# Newton can stagnate: on the hyperbolic disk with K = 2.25, R = 1.88 and phi
# up to 0.63 the flow does not settle either (max W ~ 98 and osc 54 at
# t = 30), so no translator is expected there.  Where the translator stops
# existing is an open question, not a range to widen here.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st_.data())
def test_curved_fourier_disks_solve(data):
    K = data.draw(st_.floats(0.2, 3.0))
    curvature = {"model": data.draw(st_.sampled_from(["hyperbolic", "pinched_ch"])), "K": K}
    coeffs = data.draw(st_.lists(st_.floats(-0.3, 0.3), min_size=1, max_size=5))
    scale = 0.9 / max(0.9, sum(abs(c) for c in coeffs))  # keeps |phi| <= 0.9
    cfg = {"geometry": {"kind": "polar_disk", "curvature": curvature,
                        "R": data.draw(st_.floats(0.05, 1.0)) / K},
           "angle": {"phi": "fourier:" + ",".join(repr(c * scale) for c in coeffs)},
           "solver": {"N_r": data.draw(st_.integers(8, 21)),
                      "N_theta": 2 * data.draw(st_.integers(4, 12))}}
    geom, grid, angle = build_problem(parse_config(cfg))
    sol = solve_soliton(grid, angle)
    assert sol.residual <= 1e-10
    rep = verify_compatibility(sol)
    assert rep["flux_gap"] <= 1e-12 * max(1.0, abs(rep["flux_boundary"]))
    assert abs(sol.C_h - sol.C_eps) <= 1e-10 * max(1.0, abs(sol.C_h))


def test_flow_on_hyperbolic_disk_converges():
    geom, grid, angle = build_problem(parse_config(CURVED_DISK))
    sol = solve_soliton(grid, angle)
    state, _ = run_to_stationarity(grid, angle, StepPolicy())
    assert verify_convergence(state, sol, tol=1e-3).passed
    # the translator exists and the flow converges, yet the existence
    # theorem's hypotheses fail, on the angle's C^1 norm alone
    report = check_existence(geom, angle)
    assert all(c.passed for c in report.conditions)
    assert report.phi0 <= report.eps0 < report.theta_c1


def test_cli_verify_and_check_on_hyperbolic_disk(tmp_path):
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(CURVED_DISK))
    assert cli_main(["verify", "--config", str(path), "--out", str(tmp_path / "v")]) == 0
    assert cli_main(["check", "--config", str(path), "--out", str(tmp_path / "c")]) == 2


def test_coarse_wide_disk_solves():
    # h = R / 7.5 > 1 puts the ghost more than one unit past R
    geom = make_geometry({"kind": "polar_disk", "R": 10.0})
    grid = make_grid(geom, 8, 16)
    sol = solve_soliton(grid, angle_from_spec(grid, "fourier:0.1,0.05"))
    assert grid.h_r > 1.0
    assert sol.C_h == pytest.approx(-0.02007441654516731, abs=1e-15)
