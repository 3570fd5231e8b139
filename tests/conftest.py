import math

import numpy as np
import pytest

from mcfsolve import angle_from_spec, make_geometry, make_grid

PHI_GRIM = -math.sin(0.5)


def grim_reaper_exact(x):
    return -2.0 * np.log(np.cos(x / 2.0))


@pytest.fixture
def interval_geom():
    return make_geometry({"kind": "interval", "a": -1.0, "b": 1.0})


@pytest.fixture
def grim_setup(interval_geom):
    grid = make_grid(interval_geom, 200)
    angle = angle_from_spec(grid, f"const:{PHI_GRIM!r}")
    return grid, angle


def make_problem(kind, **kw):
    if kind == "interval":
        geom = make_geometry({"kind": "interval", "a": kw.get("a", -1.0), "b": kw.get("b", 1.0)})
        grid = make_grid(geom, kw.get("n_r", 64))
    elif kind == "radial_ball":
        geom = make_geometry({
            "kind": "radial_ball", "n": kw.get("n", 2), "R": kw.get("R", 1.0),
            "curvature": kw.get("curvature", {"model": "flat"}),
        })
        grid = make_grid(geom, kw.get("n_r", 64))
    else:
        geom = make_geometry({"kind": "polar_disk", "R": kw.get("R", 1.0),
                              "curvature": kw.get("curvature", {"model": "flat"})})
        grid = make_grid(geom, kw.get("n_r", 24), kw.get("n_theta", 16))
    angle = angle_from_spec(grid, kw.get("phi", "const:0.0"))
    return geom, grid, angle
