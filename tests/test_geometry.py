import math

import numpy as np
import pytest
from scipy.integrate import quad

from mcfsolve import make_geometry, make_grid


def hyper_ball(R=0.3, n=2, K=1.0):
    return make_geometry({"kind": "radial_ball", "n": n, "R": R,
                          "curvature": {"model": "hyperbolic", "K": K}})


class TestMakeGeometry:
    def test_interval_flat(self):
        g = make_geometry({"kind": "interval", "a": -1.0, "b": 1.0})
        assert g.volume_weight(0.3) == 1.0
        assert g.ricci_lower == 0.0

    def test_hyperbolic_ball_example(self):
        g = hyper_ball()
        assert g.volume_weight(0.25) == pytest.approx(math.sinh(0.25), abs=1e-15)
        assert g.ricci_lower == -1.0
        assert g.k1 == pytest.approx(1.0 / 0.3)
        assert g.kappa0 == pytest.approx(1.0 / math.tanh(0.3))

    def test_flat_ball_n3(self):
        g = make_geometry({"kind": "radial_ball", "n": 3, "R": 1.0,
                           "curvature": {"model": "flat"}})
        assert g.volume_weight(0.5) == pytest.approx(0.25)
        assert g.ricci_lower == 0.0
        assert g.k1 == 1.0
        assert g.kappa0 == 1.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            make_geometry({"kind": "interval", "a": -1.0, "b": 1.0,
                           "curvature": {"model": "hyperbolic", "K": 1.0}})
        with pytest.raises(ValueError):
            make_geometry({"kind": "radial_ball", "n": 2, "R": -1.0,
                           "curvature": {"model": "flat"}})
        with pytest.raises(ValueError):
            make_geometry({"kind": "radial_ball", "n": 1, "R": 1.0,
                           "curvature": {"model": "flat"}})
        with pytest.raises(ValueError):
            make_geometry({"kind": "polar_disk", "n": 3, "R": 1.0})
        # a curved disk is accepted and keeps K, as a ball does
        disk = make_geometry({"kind": "polar_disk", "R": 1.0,
                              "curvature": {"model": "hyperbolic", "K": 1.0}})
        assert (disk.dim, disk.K) == (2, 1.0)
        with pytest.raises(ValueError):
            make_geometry({"kind": "interval", "a": -1.0, "b": 1.0, "bogus": 1})

    def test_pinched_uses_guaranteed_bounds(self):
        g = make_geometry({"kind": "radial_ball", "n": 3, "R": 0.35,
                           "curvature": {"model": "pinched_ch", "K": 1.0}})
        assert g.kappa0 == pytest.approx(1.0 / 0.35)
        # metric coefficients fall back to the extreme hyperbolic model
        assert g.volume_weight(0.2) == pytest.approx(math.sinh(0.2) ** 2)


class TestVolumeWeight:
    def test_flat_n2(self):
        g = make_geometry({"kind": "radial_ball", "n": 2, "R": 1.0,
                           "curvature": {"model": "flat"}})
        assert g.volume_weight(0.5) == 0.5

    def test_hyperbolic(self):
        assert hyper_ball().volume_weight(0.3) == pytest.approx(math.sinh(0.3), abs=1e-12)

    def test_pole(self):
        g = make_geometry({"kind": "radial_ball", "n": 3, "R": 1.0,
                           "curvature": {"model": "flat"}})
        assert g.volume_weight(0.0) == 0.0

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            hyper_ball().volume_weight(5.0)

    def test_monotone(self):
        for g in (hyper_ball(), make_geometry({"kind": "polar_disk", "R": 1.0})):
            r = np.linspace(0, g.R, 200)
            assert np.all(np.diff(g.volume_weight(r)) >= 0)


class TestSmoothedDistance:
    def test_exact_zone_interval(self):
        g = make_geometry({"kind": "interval", "a": -1.0, "b": 1.0})
        d, _ = g.smoothed_distance(0.9)
        assert d == pytest.approx(0.1, abs=1e-15)

    def test_plateau_value(self):
        # independent oracle: integrate the ramp derivative numerically
        g = make_geometry({"kind": "interval", "a": -1.0, "b": 1.0})
        delta = g.delta
        s5 = lambda x: x ** 3 * (10 - 15 * x + 6 * x * x)
        plateau, _ = quad(lambda x: 1.0 - s5(x), 0.0, 1.0)
        expected = 0.5 * delta + 0.5 * delta * plateau
        d, _ = g.smoothed_distance(0.0)
        assert d == pytest.approx(expected, abs=1e-12)
        assert d == pytest.approx(0.75, abs=1e-12)

    def test_exact_zone_ball(self):
        g = hyper_ball(R=0.3)
        d, _ = g.smoothed_distance(0.29)
        assert d == pytest.approx(0.01, abs=1e-15)

    def test_range_and_gradient_bound(self):
        for g in (make_geometry({"kind": "interval", "a": -1.0, "b": 1.0}),
                  hyper_ball(R=0.3),
                  make_geometry({"kind": "polar_disk", "R": 1.0})):
            grid = make_grid(g, 200)
            d, _ = g.smoothed_distance(grid.nodes)
            assert np.all(d >= 0.0) and np.all(d <= 1.0)
            fd = np.abs(np.diff(d) / np.diff(grid.nodes))
            assert np.max(fd) <= 1.0 + 5.0 * grid.h_r

    def test_c2_joints(self):
        g = make_geometry({"kind": "interval", "a": -1.0, "b": 1.0})
        for joint in (g.delta / 2, g.delta):
            h = 1e-5
            s = np.array([joint - 2 * h, joint - h, joint, joint + h, joint + 2 * h])
            d = g._psi(s)
            second = (d[:-2] - 2 * d[1:-1] + d[2:]) / h ** 2
            assert abs(second[0] - second[-1]) < 1e-3

    def test_hessian_bound_reported(self):
        g = make_geometry({"kind": "interval", "a": -1.0, "b": 1.0})
        _, c_d = g.smoothed_distance(0.0)
        assert c_d == pytest.approx(3.75)
        gb = hyper_ball(R=0.3, K=2.0)
        _, c_d = gb.smoothed_distance(0.1)
        r_inner = 0.3 - gb.delta / 2
        assert c_d == pytest.approx(3.75 / gb.delta + 2.0 / math.tanh(2.0 * r_inner))


class TestDefiningFunction:
    def test_flat_example(self):
        g = make_geometry({"kind": "radial_ball", "n": 2, "R": 1.0,
                           "curvature": {"model": "flat"}})
        h, hmin, hmax = g.defining_function(0.5)
        assert h == pytest.approx(-0.375)
        assert hmin == 1.0 and hmax == 1.0

    def test_hyperbolic_boundary(self):
        # K r coth(K r) / R at r = R = 0.3, K = 1
        g = hyper_ball(R=0.3)
        h, hmin, hmax = g.defining_function(0.3)
        assert h == pytest.approx(0.0, abs=1e-15)
        assert hmax == pytest.approx(0.3 / math.tanh(0.3) / 0.3, rel=1e-12)
        assert hmin == pytest.approx(1.0 / 0.3)

    def test_hyperbolic_pole_limit(self):
        g = hyper_ball(R=0.3)
        _, hmin, hmax = g.defining_function(1e-9)
        assert hmax == pytest.approx(1.0 / 0.3, rel=1e-9)

    def test_interval_unsupported(self):
        g = make_geometry({"kind": "interval", "a": -1.0, "b": 1.0})
        with pytest.raises(ValueError):
            g.defining_function(0.0)
        with pytest.raises(ValueError):
            g.k1

    def test_sign_and_convexity(self):
        g = hyper_ball(R=0.3)
        r = np.linspace(1e-6, 0.3, 500)
        h, hmin, _ = g.defining_function(r)
        assert abs(h[-1]) < 1e-15
        assert np.all(h[:-1] < 0)
        assert np.all(hmin >= g.k1 - 1e-12)

    def test_m1_is_boundary_hessian(self):
        g = hyper_ball(R=0.3)
        _, _, hmax = g.defining_function(0.3)
        assert g.M1 == pytest.approx(hmax)


def test_ricci_lower_matches_model():
    for n in (2, 3, 5):
        for K in (0.5, 1.0, 2.0):
            g = make_geometry({"kind": "radial_ball", "n": n, "R": 0.2,
                               "curvature": {"model": "hyperbolic", "K": K}})
            assert g.ricci_lower == -(n - 1) * K ** 2


def test_sphere_area():
    g2 = make_geometry({"kind": "radial_ball", "n": 2, "R": 1.0, "curvature": {"model": "flat"}})
    g3 = make_geometry({"kind": "radial_ball", "n": 3, "R": 1.0, "curvature": {"model": "flat"}})
    assert g2.sphere_area == pytest.approx(2 * math.pi)
    assert g3.sphere_area == pytest.approx(4 * math.pi)
