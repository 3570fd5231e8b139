import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_
from scipy.sparse.linalg import splu

from mcfsolve import (AngleData, angle_from_spec, field_mean, flux_balance,
                      ghost_fill, integrate_boundary, integrate_domain, make_field,
                      make_geometry, make_grid, node_area_element)
from mcfsolve import grids, operators
from mcfsolve.operators import _roll, mcf_from_extended, semi_implicit_matrix
from conftest import PHI_GRIM, grim_reaper_exact, make_problem


def draw_curvature(data, model):
    """The curvature block of a model, with K drawn for the curved ones."""
    if model == "flat":
        return {"model": model}
    return {"model": model, "K": data.draw(st_.floats(0.2, 3.0))}


def draw_problem(data):
    """A random admissible grid and angle: the interval, flat, hyperbolic and
    pinched balls, and the disk in the same three models with Fourier angle
    data; |phi| <= 0.95 and coarse, odd radial resolutions included."""
    kind = data.draw(st_.sampled_from(["interval", "flat", "hyperbolic", "pinched_ch",
                                       "polar_disk"]))
    n_r = data.draw(st_.integers(8, 41))
    phi0 = data.draw(st_.floats(-0.95, 0.95))
    if kind == "interval":
        a = data.draw(st_.floats(-2.0, -0.2))
        geom = make_geometry({"kind": "interval", "a": a,
                              "b": a + data.draw(st_.floats(0.4, 3.0))})
        grid = make_grid(geom, n_r)
        return grid, angle_from_spec(grid, f"const:{phi0!r}")
    if kind == "polar_disk":
        R = data.draw(st_.floats(0.3, 2.0))
        model = data.draw(st_.sampled_from(["flat", "hyperbolic", "pinched_ch"]))
        geom = make_geometry({"kind": "polar_disk", "R": R,
                              "curvature": draw_curvature(data, model)})
        grid = make_grid(geom, min(n_r, 21), 2 * data.draw(st_.integers(4, 12)))
        coeffs = [phi0] + data.draw(st_.lists(st_.floats(-1.0, 1.0), max_size=6))
        scale = 0.95 / max(0.95, sum(abs(c) for c in coeffs))
        return grid, angle_from_spec(grid, "fourier:" + ",".join(repr(c * scale) for c in coeffs))
    curvature = draw_curvature(data, kind)
    geom = make_geometry({"kind": "radial_ball", "n": data.draw(st_.integers(2, 5)),
                          "R": data.draw(st_.floats(0.1, 3.0)), "curvature": curvature})
    grid = make_grid(geom, n_r)
    return grid, angle_from_spec(grid, f"const:{phi0!r}")


def draw_field(data, grid, angle):
    rng = np.random.default_rng(data.draw(st_.integers(0, 2 ** 32 - 1)))
    amplitude = data.draw(st_.floats(0.0, 1.0))
    return ghost_fill(grid, make_field(grid, amplitude * rng.standard_normal(grid.shape)), angle)


def grim_grid(n_cells):
    geom = make_geometry({"kind": "interval", "a": -1.0, "b": 1.0})
    grid = make_grid(geom, n_cells)
    angle = angle_from_spec(grid, f"const:{PHI_GRIM!r}")
    return grid, angle


class TestMcfOperator:
    def test_constants_are_stationary(self):
        for kind in ("interval", "radial_ball", "polar_disk"):
            geom, grid, angle = make_problem(kind, phi="const:0.0")
            f = ghost_fill(grid, make_field(grid, 1.7), angle)
            out = mcf_from_extended(grid, f.values)
            assert np.all(out == 0.0)

    def test_grim_reaper_residual(self):
        # translator profile: W div(grad u / W) equals the speed 0.5
        grid, angle = grim_grid(400)  # h_r = 1/200
        f = ghost_fill(grid, make_field(grid, grim_reaper_exact), angle)
        out = mcf_from_extended(grid, f.values)
        assert np.max(np.abs(out - 0.5)) <= 1e-3

    def test_second_order_away_from_boundary(self):
        errs = []
        for n in (200, 400):
            grid, angle = grim_grid(n)
            f = ghost_fill(grid, make_field(grid, grim_reaper_exact), angle)
            out = mcf_from_extended(grid, f.values)
            errs.append(np.max(np.abs(out[1:-1] - 0.5)))
        assert errs[0] / errs[1] >= 3.5

    def test_polar_disk_paraboloid(self):
        # u = r^2/2: W div(grad u/W) = (2 + r^2)/(1 + r^2)
        exact = lambda r: (2.0 + r * r) / (1.0 + r * r)
        errs = []
        for n_r in (24, 48):
            geom, grid, angle = make_problem("polar_disk", n_r=n_r, n_theta=32,
                                             phi="const:0.0")
            f = ghost_fill(grid, make_field(grid, lambda r, t: 0.5 * r ** 2), angle)
            # interior rings only: the closure changes the boundary-ring flux
            out = mcf_from_extended(grid, f.values)[:-1]
            err = np.abs(out - exact(grid.nodes[:-1])[:, None])
            errs.append(np.max(err))
        assert errs[0] / errs[1] >= 3.5
        rng = np.random.default_rng(7)
        geom, grid, angle = make_problem("polar_disk", n_r=48, n_theta=32, phi="const:0.0")
        f = ghost_fill(grid, make_field(grid, lambda r, t: 0.5 * r ** 2), angle)
        out = mcf_from_extended(grid, f.values)
        for _ in range(10):
            i = rng.integers(0, grid.n_nodes - 1)
            j = rng.integers(0, grid.n_theta)
            assert abs(out[i, j] - exact(grid.nodes[i])) < 5e-3

    def test_even_symmetry_exact(self):
        grid, _ = grim_grid(64)
        angle = angle_from_spec(grid, "const:-0.3")
        u = np.cos(2.0 * grid.nodes) + 0.1 * grid.nodes ** 4
        f = ghost_fill(grid, make_field(grid, u), angle)
        out = mcf_from_extended(grid, f.values)
        assert np.array_equal(out, out[::-1])

    def test_w_at_least_one(self):
        rng = np.random.default_rng(3)
        for kind in ("interval", "radial_ball", "polar_disk"):
            geom, grid, angle = make_problem(kind, phi="const:0.2")
            f = ghost_fill(grid, make_field(grid, 0.3 * rng.standard_normal(grid.shape)), angle)
            assert np.all(node_area_element(grid, f.values) >= 1.0)


def reference_flux_record(grid, ext):
    """The flux record from one formula per array: c, W, s_r and W_f, and
    on the disk w, s_t and W_t, each in its own temporaries."""
    c = (ext[2:] - ext[:-2]) / (2.0 * grid.h_r)
    c2 = c * c
    s_r = (ext[1:] - ext[:-1]) / grid.h_r
    if not grid.is_disk:
        return c, np.sqrt(1.0 + c2), s_r, np.sqrt(1.0 + s_r * s_r), None, None
    ahead = _roll(ext, -1)
    w = (ahead - _roll(ext, 1)) / (2.0 * grid.h_theta * grid.sigma_ext)
    w2 = w * w
    w_node = np.sqrt(1.0 + c2 + w2[1:-1])
    wf_r = np.sqrt(1.0 + s_r * s_r + 0.5 * (w2[:-1] + w2[1:]))
    s_t = (ahead[1:-1] - ext[1:-1]) / grid.h_theta
    wf_t = np.sqrt(1.0 + (s_t / grid.sigma_ext[1:-1]) ** 2 + 0.5 * (c2 + _roll(c2, -1)))
    return c, w_node, s_r, wf_r, s_t, wf_t


@pytest.mark.parametrize("probe", ["real", "complex_step", "complex"])
@pytest.mark.parametrize("kind", ["interval", "radial_ball", "polar_disk"])
def test_flux_record_is_the_formulas(kind, probe):
    # the record shares its buffers and works in place, yet every array is
    # bit for bit the one its own formula gives, for real fields, for the
    # Jacobian's complex-step probes and for any complex field
    geom, grid, angle = make_problem(kind, phi="const:-0.3")
    rng = np.random.default_rng(23)
    u = 0.3 * rng.standard_normal(grid.shape)
    if probe == "complex_step":
        u = u + 1e-50j * (np.arange(grid.n_unknowns).reshape(grid.shape) % 3 == 1)
    elif probe == "complex":
        u = u + 0.1j * rng.standard_normal(grid.shape)
    ext = operators.extend_values(grid, u, angle)
    record = operators.flux_terms(grid, ext)
    for name, got, want in zip(record._fields, record, reference_flux_record(grid, ext)):
        if want is None:
            assert got is None, name
        else:
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


def test_pole_face_carries_zero_weight():
    for kind in ("radial_ball", "polar_disk"):
        geom, grid, angle = make_problem(kind)
        assert grid.sigma_faces[0] == 0.0
        assert grid.nodes[0] == pytest.approx(grid.h_r / 2)
        assert grid.nodes[-1] == grid.geom.R


def test_disk_operator_is_first_order_at_ring_0():
    # u = a r cos(theta) is a tilted plane, so W div(grad u / W) = 0; with the
    # pole mirror and ghost rows taken from u itself, what the operator
    # returns is its truncation error.  On every ring that is the angular
    # second difference's, a |4 sin^2(h_theta/2)/h_theta^2 - 1|/sigma: second
    # order at mid-radius (0.0152, 0.00396, 0.00101 of a for N = 20, 40, 80),
    # first order at ring 0 (0.3197, 0.1623, 0.0817) only because
    # sigma_0 = h_r/2; nothing at the pole adds to it
    a = 1e-4
    ring0, mid = [], []
    for n in (20, 40, 80):
        _, grid, _ = make_problem("polar_disk", n_r=n, n_theta=n)
        r = np.concatenate(([grid.nodes[0]], grid.nodes, [grid.geom.R + grid.h_r]))
        ext = a * np.outer(r, np.cos(grid.theta))
        ext[0] = -ext[0]  # ring 0 on the antipodal ray
        err = np.abs(mcf_from_extended(grid, ext)) / a
        ring0.append(err[0].max())
        mid.append(err[n // 2].max())
    assert ring0[0] < 0.4 and mid[0] < 0.02
    assert all(e0 >= 1.8 * e1 for e0, e1 in zip(ring0, ring0[1:]))
    assert all(e0 >= 3.5 * e1 for e0, e1 in zip(mid, mid[1:]))


class TestGhostFill:
    def test_zero_angle_is_homogeneous(self):
        grid, _ = grim_grid(32)
        angle = angle_from_spec(grid, "const:0.0")
        rng = np.random.default_rng(0)
        f = ghost_fill(grid, make_field(grid, rng.standard_normal(grid.shape)), angle)
        v = f.values
        assert v[0] == v[2] and v[-1] == v[-3]

    def test_closed_form_1d(self):
        p = AngleData(phi=np.array([-math.sin(0.5)])).normal_slope
        assert p[0] == pytest.approx(-math.tan(0.5), abs=1e-12)

    def test_closed_form_tangential(self):
        p = grids._slope_closed_form(0.5, 3.0)
        assert p == pytest.approx(0.5 * math.sqrt(4.0 / 0.75), abs=1e-12)
        assert p == pytest.approx(1.154701, abs=1e-6)

    def test_ill_posed_angle(self):
        with pytest.raises(ValueError):
            AngleData(phi=np.array([1.0]))

    def test_angle_data_checks_every_entry(self):
        # the ghost closure relies on AngleData for |phi| < 1, so no entry
        # may slip through
        with pytest.raises(ValueError):
            AngleData(phi=np.array([0.5, 1.2]))

    def test_idempotent(self):
        grid, angle = grim_grid(32)
        rng = np.random.default_rng(1)
        f = ghost_fill(grid, make_field(grid, rng.standard_normal(grid.shape)), angle)
        g = ghost_fill(grid, f, angle)
        assert np.array_equal(f.values, g.values)

    @pytest.mark.parametrize("kind,phi", [
        ("interval", "const:-0.4"),
        ("radial_ball", "const:0.3"),
        ("polar_disk", "fourier:0.1,0.2,0.1"),
    ])
    def test_bc_satisfied_exactly(self, kind, phi):
        # centered normal derivative over W reproduces phi to roundoff
        geom, grid, angle = make_problem(kind, phi=phi)
        rng = np.random.default_rng(5)
        f = ghost_fill(grid, make_field(grid, 0.2 * rng.standard_normal(grid.shape)), angle)
        v = f.values
        h = grid.h_r
        if kind == "interval":
            for sgn, p_dis, phi_b in (
                    (1.0, (v[2] - v[0]) / (2 * h), angle.phi[0]),
                    (-1.0, (v[-1] - v[-3]) / (2 * h), angle.phi[1])):
                p = sgn * p_dis
                assert abs(p / math.sqrt(1 + p * p) - phi_b) < 1e-14
        elif kind == "radial_ball":
            p = -(v[-1] - v[-3]) / (2 * h)
            assert abs(p / math.sqrt(1 + p * p) - angle.phi[0]) < 1e-14
        else:
            p = -(v[-1] - v[-3]) / (2 * h)
            tang = ((np.roll(v[-2], -1) - np.roll(v[-2], 1))
                    / (2 * grid.h_theta * grid.sigma_nodes[-1]))
            w = np.sqrt(1 + p * p + tang * tang)
            assert np.max(np.abs(p / w - angle.phi)) < 1e-14

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("kind,phi", [
        ("interval", "const:-0.4"),
        ("radial_ball", "const:0.3"),
        ("polar_disk", "fourier:0.1,0.2,0.1"),
    ])
    def test_in_place_closure_is_the_concatenated_one(self, kind, phi, dtype):
        # close_ghosts overwrites whatever the ghost slots held, and equals bit
        # for bit the ghosts built apart and concatenated onto the interior;
        # a complex interior keeps its dtype, as the complex-step Jacobian needs
        geom, grid, angle = make_problem(kind, phi=phi)
        rng = np.random.default_rng(8)
        interior = (0.2 * rng.standard_normal(grid.shape)).astype(dtype)
        if dtype is complex:
            interior += 1e-3j * rng.standard_normal(grid.shape)
        h = grid.h_r
        if kind == "interval":
            p = angle.normal_slope
            want = np.concatenate(([interior[1] - 2.0 * h * p[0]], interior,
                                   [interior[-2] - 2.0 * h * p[1]]))
        else:
            if grid.is_disk:
                tang = ((np.roll(interior[-1], -1) - np.roll(interior[-1], 1))
                        / (2.0 * grid.h_theta * grid.sigma_nodes[-1]))
                p = grids._slope_closed_form(angle.phi, tang * tang)
                mirror = np.roll(interior[0], grid.n_theta // 2)
            else:
                p, mirror = angle.normal_slope[0], interior[0]
            want = np.concatenate(([mirror], interior, [interior[-2] - 2.0 * h * p]))
        ext = np.full(grid.ext_shape, np.nan, dtype=dtype)
        ext[1:-1] = interior
        assert operators.close_ghosts(grid, ext, angle) is ext
        for got in (ext, operators.extend_values(grid, interior, angle)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        if dtype is float:
            filled = ghost_fill(grid, make_field(grid, interior), angle).values
            assert np.array_equal(filled, want)

    @settings(max_examples=200, deadline=None)
    @given(st_.data())
    def test_closure_reproduces_phi(self, data):
        # the centered boundary slope over W equals phi on every geometry; the
        # slope is recovered from a difference of field values over 2h, so it
        # carries their rounding divided by h on top of the closed form's
        grid, angle = draw_problem(data)
        v = draw_field(data, grid, angle).values
        h = grid.h_r
        tang = 0.0
        if grid.geom.kind == "interval":
            p = np.array([v[2] - v[0], v[-3] - v[-1]]) / (2 * h)
        else:
            p = (v[-3] - v[-1]) / (2 * h)
            if grid.is_disk:
                # the boundary circle's length element is sigma(R) dtheta
                tang = ((np.roll(v[-2], -1) - np.roll(v[-2], 1))
                        / (2 * grid.h_theta * grid.sigma_nodes[-1]))
        tol = 1e-14 + 8 * np.finfo(float).eps * np.max(np.abs(v)) / h
        assert np.max(np.abs(p / np.sqrt(1 + p * p + tang * tang) - angle.phi)) <= tol


class TestPeriodicShift:
    @pytest.mark.parametrize("shape", [(16,), (9,), (7, 16), (5, 8)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_equals_np_roll(self, shape, dtype):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            a += 1j * rng.standard_normal(shape)
        n = shape[-1]
        for shift in range(-n - 1, n + 2):
            out = _roll(a, shift)
            want = np.roll(a, shift, axis=-1)
            assert out.dtype == want.dtype and out.shape == want.shape
            assert np.array_equal(out, want), shift
            assert not np.shares_memory(out, a), shift


class TestQuadrature:
    def test_flat_disk_area(self):
        geom, grid, _ = make_problem("radial_ball", n=2, R=1.0, n_r=512)
        assert abs(integrate_domain(grid, np.ones(grid.shape)) - math.pi) < 1e-6

    def test_hyperbolic_disk_area(self):
        geom, grid, _ = make_problem("radial_ball", n=2, R=0.3, n_r=512,
                                     curvature={"model": "hyperbolic", "K": 1.0})
        exact = 2 * math.pi * (math.cosh(0.3) - 1.0)
        assert abs(integrate_domain(grid, np.ones(grid.shape)) - exact) < 1e-8

    def test_interval_length(self):
        geom, grid, _ = make_problem("interval")
        assert integrate_domain(grid, np.ones(grid.shape)) == pytest.approx(2.0, abs=1e-15)

    def test_boundary_zero(self):
        geom, grid, angle = make_problem("polar_disk", phi="const:0.0")
        assert integrate_boundary(grid, angle) == 0.0

    def test_boundary_interval(self):
        geom, grid, angle = make_problem("interval", phi=f"const:{PHI_GRIM!r}")
        assert integrate_boundary(grid, angle) == pytest.approx(-2 * math.sin(0.5), abs=1e-14)

    def test_boundary_disk_constant(self):
        geom, grid, angle = make_problem("polar_disk", R=1.0, phi="const:0.25")
        assert integrate_boundary(grid, angle) == pytest.approx(0.25 * 2 * math.pi, rel=1e-12)

    def test_mean_of_constant(self):
        geom, grid, _ = make_problem("radial_ball", n=3, R=1.0, n_r=64)
        assert field_mean(grid, np.full(grid.shape, 2.5)) == pytest.approx(2.5, rel=1e-13)


class TestDivergenceIdentity:
    @pytest.mark.parametrize("kind,phi", [
        ("interval", "const:-0.4"),
        ("radial_ball", "const:0.25"),
        ("polar_disk", "fourier:0.05,0.1,0.05"),
    ])
    def test_telescoping_exact(self, kind, phi):
        geom, grid, angle = make_problem(kind, phi=phi)
        rng = np.random.default_rng(11)
        for _ in range(3):
            f = ghost_fill(grid, make_field(grid, 0.4 * rng.standard_normal(grid.shape)), angle)
            _, _, gap = flux_balance(grid, f.values)
            assert abs(gap) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st_.data())
    def test_operator_sums_to_telescoped_flux(self, data):
        # the operator and the telescoping check share one kernel: the cell
        # measures times div = mcf / W sum to flux_balance's interior sum, and
        # that telescopes to the boundary flux up to rounding relative to it
        grid, angle = draw_problem(data)
        ext = draw_field(data, grid, angle).values
        interior_sum, boundary_flux, gap = flux_balance(grid, ext)
        weights = grid.op_weights[:, None] * grid.h_theta if grid.is_disk else grid.op_weights
        div = mcf_from_extended(grid, ext) / node_area_element(grid, ext)
        total = math.fsum((weights * div).ravel().tolist())
        assert abs(total - interior_sum) <= 1e-12 * max(1.0, abs(interior_sum))
        assert abs(gap) <= 1e-12 * max(1.0, abs(boundary_flux))


class TestSemiImplicitMatrix:
    @pytest.mark.parametrize("kind,phi", [
        ("interval", "const:0.0"),
        ("interval", "const:-0.4"),
        ("radial_ball", "const:0.0"),
        ("radial_ball", "const:0.25"),
        ("polar_disk", "const:0.0"),
        ("polar_disk", "fourier:0.05,0.1,0.05"),
    ])
    def test_lagged_operator_at_own_state(self, kind, phi):
        # M(u) u is the nonlinear operator at u, up to the lagged ghost
        # constant -2h p0 that only the boundary rows see
        geom, grid, angle = make_problem(kind, phi=phi)
        rng = np.random.default_rng(13)
        if grid.is_disk:
            r, th = grid.nodes[:, None], grid.theta[None, :]
            u0 = sum(rng.standard_normal() * r ** k * np.cos(k * th + rng.uniform(0, 6))
                     for k in range(4))
        else:
            u0 = sum(rng.standard_normal() * np.cos(k * grid.nodes) for k in range(4))
        ext = ghost_fill(grid, make_field(grid, 0.3 * u0), angle).values
        dt = 0.7 * grid.h_r
        a_mat = semi_implicit_matrix(grid, ext, angle, dt)
        m_u = ((np.eye(grid.n_unknowns) - a_mat.toarray()) / dt) @ ext[1:-1].ravel()
        mcf = mcf_from_extended(grid, ext)
        gap = np.abs(m_u.reshape(grid.shape) - mcf)
        scale = np.max(np.abs(mcf))
        if np.any(angle.phi):
            assert np.max(gap[-1]) > 1e-3 * scale
            gap = gap[1:-1] if kind == "interval" else gap[:-1]
        assert np.max(gap) <= 1e-10 * scale

    @pytest.mark.parametrize("kind,phi", [
        ("interval", "const:-0.4"),
        ("polar_disk", "fourier:0.05,0.1,0.05"),
    ])
    def test_cached_pattern_survives_factorization(self, kind, phi):
        # the pattern is shared by every lagged matrix of the grid's shape;
        # factoring one must leave it intact and canonical for the next
        geom, grid, angle = make_problem(kind, phi=phi)
        rng = np.random.default_rng(17)
        states = [ghost_fill(grid, make_field(grid, 0.3 * rng.standard_normal(grid.shape)),
                             angle).values for _ in range(2)]
        dt = 0.7 * grid.h_r
        splu(semi_implicit_matrix(grid, states[0], angle, dt))
        again = semi_implicit_matrix(grid, states[1], angle, dt)
        assert again.has_sorted_indices
        operators._lagged_pattern.cache_clear()  # the next call builds it afresh
        fresh = semi_implicit_matrix(grid, states[1], angle, dt)
        assert not np.shares_memory(fresh.indices, again.indices)
        assert np.array_equal(again.indices, fresh.indices)
        assert np.array_equal(again.indptr, fresh.indptr)
        assert abs(again - fresh).max() == 0.0
