"""Geometry catalog for graph flows over rotationally symmetric domains.

Three domain kinds are supported, all with closed-form metric data:

* ``interval``: a flat segment (a, b) in one dimension.
* ``radial_ball``: a geodesic ball of radius R in an n-dimensional model
  space, reduced to the radial profile.  The ambient space is flat,
  hyperbolic with sectional curvature exactly -K^2, or a pinched
  Cartan-Hadamard space with sectional curvatures in [-K^2, 0].
* ``polar_disk``: the n = 2 ball on a full (r, theta) grid, in any model.

In geodesic polar coordinates the metric enters only through the radial
volume weight sigma(r) (r^{n-1} flat, (sinh(Kr)/K)^{n-1} hyperbolic), which
on the disk is also s(r), the length of a unit angle at radius r.  The
pinched model uses the hyperbolic weight as the extreme case; only the
existence checker distinguishes the two, through curvature bounds.

The module also builds the two scalar functions attached to a domain:

* a smoothed distance-to-boundary d with 0 <= d <= 1 and |grad d| <= 1,
  exact near the boundary and blended to a constant plateau by a quintic
  smoothstep ramp, together with an explicit Hessian bound C_d;
* the convex defining function h(r) = r^2/(2R) - R/2 with its Hessian
  eigenvalue range, the source of the convexity constants k1, kappa0, M1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "CurvatureModel",
    "Geometry",
    "make_geometry",
]


class CurvatureModel(str, Enum):
    FLAT = "flat"
    HYPERBOLIC = "hyperbolic"
    PINCHED_CH = "pinched_ch"


def _x_coth_x(x):
    """x*coth(x), safe at x = 0 (limit 1)."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-6
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 + x * x / 3.0, safe / np.tanh(safe))
    return out if out.ndim else float(out)


def _smoothstep5(x):
    # C^2 quintic smoothstep: 0 -> 1 on [0, 1] with zero slope/curvature at ends
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def _ramp_antiderivative(x):
    # int_0^x (1 - smoothstep5) dy; equals 1/2 at x = 1
    return x - x ** 4 * (2.5 + x * (x - 3.0))


@dataclass(frozen=True)
class Geometry:
    """A validated domain from the catalog.

    Attributes
    ----------
    kind : str
        One of ``interval``, ``radial_ball``, ``polar_disk``.
    dim : int
        Ambient dimension n (1 for intervals, 2 for the polar disk).
    curvature : CurvatureModel
        Sectional-curvature model of the ambient space.
    K : float
        Curvature scale; sectional curvature is -K^2 (hyperbolic) or
        bounded below by -K^2 (pinched).  Zero for flat.
    R : float
        Ball/disk radius (0 for intervals).
    a, b : float
        Interval endpoints (unused otherwise).
    """

    kind: str
    dim: int
    curvature: CurvatureModel
    K: float = 0.0
    R: float = 0.0
    a: float = 0.0
    b: float = 0.0

    # -- basic metric data ------------------------------------------------

    @property
    def inradius(self) -> float:
        if self.kind == "interval":
            return 0.5 * (self.b - self.a)
        return self.R

    @property
    def hyperbolic_weight(self) -> bool:
        return self.curvature in (CurvatureModel.HYPERBOLIC, CurvatureModel.PINCHED_CH)

    def volume_weight(self, r):
        """Radial area element sigma(r): sqrt(det g) in geodesic polar
        coordinates, normalized so sigma = 1 for the interval."""
        if self.kind == "interval":
            return np.ones_like(np.asarray(r, dtype=float)) if np.ndim(r) else 1.0
        r = np.asarray(r, dtype=float)
        # the ghost at R + h, h = R / (N_r - 1/2) with N_r >= 8, is at most R / 7.5 out
        if np.any(r < -1e-12) or np.any(r > self.R * (1.0 + 1.0 / 7.5 + 1e-12)):
            raise ValueError("radius outside the domain (ghost margin exceeded)")
        n = self.dim
        if self.hyperbolic_weight:
            s = np.sinh(self.K * r) / self.K
        else:
            s = r
        out = s ** (n - 1)
        return out if out.ndim else float(out)

    @property
    def ricci_lower(self) -> float:
        """Lower bound of the Ricci form on unit vectors."""
        if self.curvature is CurvatureModel.FLAT:
            return 0.0
        return -(self.dim - 1) * self.K ** 2

    @property
    def ricci_abs(self) -> float:
        """Uniform bound |Ric| on unit vectors."""
        return -self.ricci_lower

    @property
    def sphere_area(self) -> float:
        """Area of the unit (n-1)-sphere; boundary/volume factor for the
        rotationally symmetric reduction."""
        n = self.dim
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)

    # -- smoothed boundary distance ---------------------------------------

    @property
    def delta(self) -> float:
        """Onset of the distance plateau: min(1, inradius)."""
        return min(1.0, self.inradius)

    def boundary_distance(self, x):
        """Exact distance to the boundary."""
        x = np.asarray(x, dtype=float)
        if self.kind == "interval":
            s = np.minimum(x - self.a, self.b - x)
        else:
            s = self.R - x
        return s if s.ndim else float(s)

    def _psi(self, s):
        d = self.delta
        s = np.asarray(s, dtype=float)
        x = np.clip((s - 0.5 * d) / (0.5 * d), 0.0, 1.0)
        ramp = 0.5 * d + 0.5 * d * _ramp_antiderivative(x)
        out = np.where(s <= 0.5 * d, s, ramp)
        return out if out.ndim else float(out)

    def _psi_prime(self, s):
        d = self.delta
        s = np.asarray(s, dtype=float)
        x = np.clip((s - 0.5 * d) / (0.5 * d), 0.0, 1.0)
        out = np.where(s <= 0.5 * d, 1.0, 1.0 - _smoothstep5(x))
        return out if out.ndim else float(out)

    def smoothed_distance(self, x):
        """Smoothed distance to the boundary and its Hessian bound.

        Returns (d, C_d).  d equals the exact boundary distance within
        delta/2 of the boundary and levels off at 0.75*delta; C_d bounds
        |Hess d| for this construction, with the ambient distance-Hessian
        term evaluated on the exact-distance zone.
        """
        return self._psi(self.boundary_distance(x)), self.hess_d_bound

    def smoothed_distance_gradient(self, x):
        """Signed derivative of the smoothed distance along the coordinate
        (x for intervals, r for balls and disks)."""
        s = self.boundary_distance(x)
        g = self._psi_prime(s)
        if self.kind == "interval":
            x = np.asarray(x, dtype=float)
            sign = np.where(x - self.a < self.b - x, 1.0, -1.0)
            out = g * sign
        else:
            out = -g
        return out if np.ndim(out) else float(out)

    @property
    def hess_d_bound(self) -> float:
        d = self.delta
        ramp = 2.0 / d * 1.875  # max |smoothstep5'| = 15/8 on the ramp
        if self.kind == "interval":
            return ramp
        r_inner = self.R - 0.5 * d
        if self.hyperbolic_weight:
            metric = float(_x_coth_x(self.K * r_inner)) / r_inner  # K coth(K r)
        else:
            metric = 1.0 / r_inner
        return ramp + metric

    # -- convex defining function and boundary convexity -------------------

    def defining_function(self, r):
        """h(r) = r^2/(2R) - R/2 with the extreme Hessian eigenvalues.

        Returns (h, hess_min, hess_max).  The radial eigenvalue is 1/R; the
        tangential one is 1/R in flat space and K r coth(K r)/R in the
        hyperbolic model, which is also the pinched worst case.
        """
        if self.kind == "interval":
            raise ValueError("defining function requires a ball or disk domain")
        r = np.asarray(r, dtype=float)
        h = r * r / (2.0 * self.R) - 0.5 * self.R
        hess_min = np.full_like(h, 1.0 / self.R)
        if self.hyperbolic_weight:
            hess_max = _x_coth_x(self.K * r) / self.R
        else:
            hess_max = np.full_like(h, 1.0 / self.R)
        if h.ndim:
            return h, hess_min, hess_max
        return float(h), float(hess_min), float(hess_max)

    @property
    def k1(self) -> float:
        """Uniform Hessian lower bound of the defining function."""
        if self.kind == "interval":
            raise ValueError("k1 requires a ball or disk domain")
        return 1.0 / self.R

    @property
    def kappa0(self) -> float:
        """Minimal principal curvature of the boundary sphere.  For the
        pinched model this is the guaranteed lower bound 1/R."""
        if self.kind == "interval":
            raise ValueError("kappa0 requires a ball or disk domain")
        if self.curvature is CurvatureModel.HYPERBOLIC:
            return self.K / math.tanh(self.K * self.R)
        return 1.0 / self.R

    @property
    def M1(self) -> float:
        """sup over the closed domain of the defining-function Hessian norm."""
        if self.kind == "interval":
            raise ValueError("M1 requires a ball or disk domain")
        if self.hyperbolic_weight:
            return float(_x_coth_x(self.K * self.R)) / self.R
        return 1.0 / self.R


def config_number(value, path: str, kind: type = float):
    """A configuration value as kind (float or int), or a ValueError naming
    its field path: booleans, non-numbers, non-finite numbers and, for int,
    non-integral numbers are rejected."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x) and (kind is float or x.is_integer()):
            return kind(value)
    what = "an integer" if kind is int else "a finite number"
    raise ValueError(f"{path}: must be {what}, got {value!r}")


def make_geometry(config: dict) -> Geometry:
    """Build a validated Geometry from a configuration mapping.

    Examples of accepted mappings::

        {"kind": "interval", "a": -1.0, "b": 1.0}
        {"kind": "radial_ball", "n": 2,
         "curvature": {"model": "hyperbolic", "K": 1.0}, "R": 0.3}
        {"kind": "polar_disk",
         "curvature": {"model": "pinched_ch", "K": 1.0}, "R": 0.3}
    """
    if not isinstance(config, dict):
        raise ValueError("geometry config must be a mapping")
    cfg = dict(config)
    kind = cfg.pop("kind", None)
    if kind not in ("interval", "radial_ball", "polar_disk"):
        raise ValueError(f"geometry.kind must be interval|radial_ball|polar_disk, got {kind!r}")

    curv_cfg = cfg.pop("curvature", {"model": "flat"})
    if not isinstance(curv_cfg, dict) or "model" not in curv_cfg:
        raise ValueError("geometry.curvature must be a mapping with a 'model' key")
    extra_curv = set(curv_cfg) - {"model", "K"}
    if extra_curv:
        raise ValueError(f"geometry.curvature: unknown keys {sorted(extra_curv)}")
    try:
        model = CurvatureModel(curv_cfg["model"])
    except ValueError:
        raise ValueError(f"geometry.curvature.model: unknown model {curv_cfg['model']!r}") from None
    K = config_number(curv_cfg.get("K", 0.0), "geometry.curvature.K")
    if model is not CurvatureModel.FLAT and not K > 0.0:
        raise ValueError("geometry.curvature.K must be positive for curved models")
    if model is CurvatureModel.FLAT:
        K = 0.0

    if kind == "interval":
        for end in ("a", "b"):
            if end not in cfg:
                raise ValueError(f"geometry: interval requires endpoint {end!r}")
        a = config_number(cfg.pop("a"), "geometry.a")
        b = config_number(cfg.pop("b"), "geometry.b")
        if cfg:
            raise ValueError(f"geometry: unknown keys {sorted(cfg)}")
        if not a < b:
            raise ValueError("geometry: interval needs a < b")
        if model is not CurvatureModel.FLAT:
            raise ValueError("geometry: interval domains are flat")
        return Geometry(kind="interval", dim=1, curvature=model, a=a, b=b)

    if "R" not in cfg:
        raise ValueError("geometry: ball/disk requires a radius R")
    R = config_number(cfg.pop("R"), "geometry.R")
    if not R > 0.0:
        raise ValueError("geometry: radius R must be positive")

    n = config_number(cfg.pop("n", 2), "geometry.n", int)
    if cfg:
        raise ValueError(f"geometry: unknown keys {sorted(cfg)}")
    if kind == "polar_disk" and n != 2:
        raise ValueError("geometry: polar_disk is two-dimensional")
    if n < 2:
        raise ValueError("geometry: radial_ball requires dimension n >= 2")
    return Geometry(kind=kind, dim=n, curvature=model, K=K, R=R)
