import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcfsolve import (AngleData, angle_from_spec, check_existence, make_geometry, make_grid,
                      radius_bound_ch, radius_bound_hyperbolic)
from mcfsolve.existence import effective_ricci_constant


def hyper2(R, phi="const:0.05"):
    geom = make_geometry({"kind": "radial_ball", "n": 2, "R": R,
                          "curvature": {"model": "hyperbolic", "K": 1.0}})
    grid = make_grid(geom, 16)
    return geom, angle_from_spec(grid, phi)


class TestRadiusBounds:
    def test_hyperbolic_values(self):
        assert radius_bound_hyperbolic(2) == pytest.approx(1 / (2 * math.sqrt(2)))
        assert radius_bound_hyperbolic(2) == pytest.approx(0.353553, abs=1e-6)
        assert radius_bound_hyperbolic(3) == pytest.approx(0.4)
        assert radius_bound_hyperbolic(10) == pytest.approx(9 / 19)

    def test_ch_values(self):
        assert radius_bound_ch(3, 1.0) == pytest.approx(math.sqrt(1 / 6))
        assert radius_bound_ch(3, 1.0) == pytest.approx(0.40825, abs=1e-5)
        assert radius_bound_ch(2, 2.0) == pytest.approx(1 / (4 * math.sqrt(2)))
        assert radius_bound_ch(4, 1.0) == pytest.approx(math.sqrt(2 / 10.5))

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            radius_bound_hyperbolic(1)
        with pytest.raises(ValueError):
            radius_bound_ch(1, 1.0)

    def test_monotonicity(self):
        ks = [0.5, 1.0, 2.0, 4.0]
        vals = [radius_bound_ch(3, k) for k in ks]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        ns = range(3, 12)
        vals = [radius_bound_hyperbolic(n) for n in ns]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestEffectiveRicci:
    def test_models(self):
        flat = make_geometry({"kind": "radial_ball", "n": 3, "R": 1.0,
                              "curvature": {"model": "flat"}})
        hyp = make_geometry({"kind": "radial_ball", "n": 3, "R": 0.3,
                             "curvature": {"model": "hyperbolic", "K": 2.0}})
        pin3 = make_geometry({"kind": "radial_ball", "n": 3, "R": 0.3,
                              "curvature": {"model": "pinched_ch", "K": 1.0}})
        pin2 = make_geometry({"kind": "radial_ball", "n": 2, "R": 0.3,
                              "curvature": {"model": "pinched_ch", "K": 1.0}})
        assert effective_ricci_constant(flat) == 0.0
        assert effective_ricci_constant(hyp) == pytest.approx(2 * 2 * 4.0)
        assert effective_ricci_constant(pin3) == pytest.approx((4 ** 2) / 2 - 2)
        assert effective_ricci_constant(pin2) == pytest.approx(2.0)


class TestCheckExistence:
    def test_hyperbolic_pass(self):
        geom, angle = hyper2(0.3)
        rep = check_existence(geom, angle)
        assert rep.overall
        rc2 = next(c for c in rep.conditions if c.name == "ric_cond2")
        assert rc2.lhs == pytest.approx(2.0)
        # best margin approaches sup alpha (1/R - alpha) = 1/(4 R^2)
        assert rc2.rhs == pytest.approx(1 / (4 * 0.3 ** 2), rel=1e-3)
        assert rep.eps0 == pytest.approx(0.25)

    def test_hyperbolic_fail(self):
        geom, angle = hyper2(0.4)
        rep = check_existence(geom, angle)
        assert not rep.overall
        rc2 = next(c for c in rep.conditions if c.name == "ric_cond2")
        assert not rc2.passed

    def test_flip_at_example_radius(self):
        def curv_ok(R):
            geom, angle = hyper2(R, phi="const:0.01")
            rep = check_existence(geom, angle)
            return next(c for c in rep.conditions if c.name == "ric_cond2").passed

        lo, hi = 0.3, 0.4
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if curv_ok(mid):
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - radius_bound_hyperbolic(2)) <= 1e-10

    def test_flat_passes_curvature_always(self):
        geom = make_geometry({"kind": "radial_ball", "n": 3, "R": 2.0,
                              "curvature": {"model": "flat"}})
        grid = make_grid(geom, 16)
        rep = check_existence(geom, angle_from_spec(grid, "const:0.05"))
        rc2 = next(c for c in rep.conditions if c.name == "ric_cond2")
        assert rc2.passed and rc2.lhs == 0.0
        assert rep.eps0 > 0.0

    def test_angle_size_gates_overall(self):
        geom, angle_small = hyper2(0.3, "const:0.05")
        rep = check_existence(geom, angle_small)
        assert rep.overall
        geom, angle_big = hyper2(0.3, "const:0.3")
        rep = check_existence(geom, angle_big)
        assert rep.phi0 > rep.eps0
        assert not rep.overall

    @pytest.mark.parametrize("phi", [0.05, -0.05, 0.3, -0.3])
    def test_verdict_follows_phi(self, phi):
        # phi0 is max |phi|, never a separately given (and possibly smaller) bound
        geom, _ = hyper2(0.3)
        rep = check_existence(geom, AngleData(phi=np.array([phi])))
        assert rep.phi0 == abs(phi)
        assert rep.overall == (abs(phi) <= rep.eps0)
        assert rep.overall == (abs(phi) < 0.25)

    def test_eps_alpha_equality_residual(self):
        geom, angle = hyper2(0.3)
        rep = check_existence(geom, angle)
        e = rep.eps_alpha
        lhs = e * (rep.M1 + 3.0) / (1.0 - e * e)
        assert abs(lhs - (rep.kappa0 - rep.alpha_star)) < 1e-10

    def test_interval_rejected(self):
        geom = make_geometry({"kind": "interval", "a": -1.0, "b": 1.0})
        grid = make_grid(geom, 16)
        with pytest.raises(ValueError):
            check_existence(geom, angle_from_spec(grid, "const:0.0"))

    def test_ric_cond_reported_conditional(self):
        geom, angle = hyper2(0.3)
        rep = check_existence(geom, angle)
        rc = next(c for c in rep.conditions if c.name == "ric_cond")
        assert "conditional" in rc.note

    def test_theta_regularity_gates_overall(self):
        geom = make_geometry({"kind": "polar_disk", "R": 1.0})
        grid = make_grid(geom, 16, 32)
        smooth = check_existence(geom, angle_from_spec(grid, "const:0.05"))
        assert smooth.theta_c1 == 0.0 and smooth.overall
        wiggly = check_existence(geom, angle_from_spec(grid, "fourier:0.0,0.0,0.05"))
        # small amplitude but high slope at mode 4
        geom4 = geom
        grid4 = make_grid(geom4, 16, 32)
        spec = "fourier:0.01," + ",".join(["0.0"] * 6) + ",0.05"
        rep4 = check_existence(geom4, angle_from_spec(grid4, spec))
        assert rep4.theta_c1 > rep4.eps0
        assert not rep4.overall

    def test_pinched_uses_lower_curvature_bound(self):
        geom = make_geometry({"kind": "radial_ball", "n": 3, "R": 0.35,
                              "curvature": {"model": "pinched_ch", "K": 1.0}})
        grid = make_grid(geom, 16)
        rep = check_existence(geom, angle_from_spec(grid, "const:0.1"))
        assert rep.kappa0 == pytest.approx(1.0 / 0.35)
        assert rep.radius_bound == pytest.approx(math.sqrt(1 / 6))
        assert rep.overall  # 0.35 < sqrt(1/6) and the angle fits

    def test_report_roundtrip_dict(self):
        geom, angle = hyper2(0.3)
        d = check_existence(geom, angle).to_dict()
        assert {"k1", "kappa0", "M1", "conditions", "overall"} <= set(d)
        assert all({"name", "lhs", "rhs", "pass"} <= set(c) for c in d["conditions"])


def _scan_alpha(k1, kappa0, m1, n, ric_eff, points=10_000):
    """Reference choice of alpha by a grid scan: alpha_max j / points for
    0 < j < points, taking the largest eps0 = min(eps_alpha, 1/4) among the
    alphas that meet the curvature condition, then the widest margin.
    Returns (alpha, eps0); assumes some alpha on the grid qualifies."""
    b = k1 * (n - 1)
    alphas = min(kappa0, b / 2.0) * np.arange(1, points) / points
    rhs = alphas * (b - alphas)
    gaps = kappa0 - alphas
    eps_a = (-(m1 + 3.0) + np.sqrt((m1 + 3.0) ** 2 + 4.0 * gaps * gaps)) / (2.0 * gaps)
    eps0 = np.where(ric_eff < rhs, np.minimum(eps_a, 0.25), 0.0)
    best = np.lexsort((rhs - ric_eff, eps0))[-1]
    return alphas[best], eps0[best]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_closed_form_alpha_matches_scan(data):
    model = data.draw(st.sampled_from(["flat", "hyperbolic", "pinched_ch"]))
    R = data.draw(st.floats(0.02, 3.0))
    if model == "flat" and data.draw(st.booleans()):
        geom = make_geometry({"kind": "polar_disk", "R": R})
        grid = make_grid(geom, 8, 8)
    else:
        curvature = {"model": model}
        if model != "flat":
            curvature["K"] = data.draw(st.floats(0.25, 4.0))
        geom = make_geometry({"kind": "radial_ball", "n": data.draw(st.integers(2, 6)),
                              "R": R, "curvature": curvature})
        grid = make_grid(geom, 8)
    rep = check_existence(geom, angle_from_spec(grid, "const:0.05"))
    cond = {c.name: c for c in rep.conditions}

    n, ric = geom.dim, rep.ric_eff
    b = rep.k1 * (n - 1)
    alpha_max = min(rep.kappa0, b / 2.0)
    feasible = ric < alpha_max * (b - alpha_max)
    assert cond["ric_cond2"].passed == feasible
    assert cond["alpha_range"].passed
    e = rep.eps_alpha
    assert abs(e * (rep.M1 + 3.0) / (1.0 - e * e) - (rep.kappa0 - rep.alpha_star)) < 1e-10

    alpha_lo = max(0.0, 0.5 * (b - math.sqrt(b * b - 4.0 * ric))) if feasible else alpha_max
    if alpha_max - alpha_lo > 2e-4 * alpha_max:
        alpha_scan, eps0_scan = _scan_alpha(rep.k1, rep.kappa0, rep.M1, n, ric)
        assert abs(rep.alpha_star - alpha_scan) <= 2e-4 * alpha_max
        assert abs(rep.eps0 - eps0_scan) <= 1e-4 * alpha_max
