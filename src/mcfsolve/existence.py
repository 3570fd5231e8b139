"""Solvability checks for the translator problem on convex model-space balls.

For a strictly convex domain with defining-function convexity k1, boundary
principal curvature kappa0, and Hessian bound M1, a translator with small
contact angle exists when, for some alpha < min(kappa0, k1 (n-1)/2), the
ambient curvature is dominated by the convexity margin,

    RIC_EFF < alpha * (k1 (n-1) - alpha),

and the admissible angle size eps_alpha solves

    kappa0 - alpha = eps * (M1 + 3) / (1 - eps^2).

RIC_EFF is the curvature constant entering the interior maximum estimate,
taken with the sharp per-model values: 0 (flat), 2 (n-1) K^2 (exactly
hyperbolic, where the mixed Ricci terms vanish), K^2 ((n+1)^2/2 - 2) for a
pinched Cartan-Hadamard space (2 K^2 when n = 2, where the mixed term is
zero).  The general-manifold form (n+1)|Ric| is not used on this catalog.

With b = k1 (n-1) and alpha_max = min(kappa0, b/2) the margin
alpha (b - alpha) increases on (0, alpha_max), so the curvature condition
holds for some alpha exactly when RIC_EFF < alpha_max (b - alpha_max), and
then on the open interval (alpha_lo, alpha_max) with alpha_lo =
max(0, (b - sqrt(b^2 - 4 RIC_EFF))/2).  eps_alpha falls as alpha grows and
equals 1/4 at alpha_q = kappa0 - 4 (M1 + 3)/15, so the largest usable angle
eps0 = min(eps_alpha, 1/4), with the widest margin as tie-break, is taken at

    alpha* = clip(alpha_q, alpha_lo + delta, alpha_max - delta),

and at alpha_max - delta, the widest failing margin, when no alpha
qualifies.  The feasible set is open, so its endpoints fail the strict
conditions; the inset delta = min(1e-4 alpha_max, (alpha_max - alpha_lo)/2)
keeps alpha* strictly inside it.  One condition carries
an estimate constant that is not computable from first principles; it is
reported as conditional on the strict curvature margin rather than
invented.

Closed-form admissible-radius bounds for geodesic balls:

    hyperbolic (curvature -1):  R < 1/(2 sqrt 2)  (n = 2),
                                R < (n-1)/(2n-1)  (n >= 3);
    pinched below by -K^2:      R < 1/(2 sqrt 2 K)  (n = 2),
                                R < sqrt((n-2) / (K^2 ((n+1)^2/2 - 2))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .geometry import CurvatureModel, Geometry
from .grids import AngleData

__all__ = ["Condition", "HypothesisReport", "check_existence",
           "radius_bound_hyperbolic", "radius_bound_ch", "effective_ricci_constant"]

_ALPHA_INSET = 1e-4  # delta / alpha_max: alpha* stays this far inside (alpha_lo, alpha_max)


@dataclass(frozen=True)
class Condition:
    name: str
    lhs: float
    rhs: float
    passed: bool
    note: str = ""

    def to_dict(self):
        d = {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "pass": self.passed}
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class HypothesisReport:
    k1: float
    kappa0: float
    M1: float
    ricci_abs: float
    ric_eff: float
    alpha_star: float
    eps_alpha: float
    eps0: float
    phi0: float
    theta_c1: float
    conditions: List[Condition]
    radius_bound: Optional[float]
    overall: bool

    def to_dict(self):
        return {**vars(self), "conditions": [c.to_dict() for c in self.conditions]}


def effective_ricci_constant(geom: Geometry) -> float:
    """Curvature constant on the left of the convexity condition."""
    n, K = geom.dim, geom.K
    if geom.curvature is CurvatureModel.FLAT:
        return 0.0
    if geom.curvature is CurvatureModel.HYPERBOLIC:
        return 2.0 * (n - 1) * K * K
    if n == 2:
        return 2.0 * K * K
    return K * K * ((n + 1) ** 2 / 2.0 - 2.0)


def radius_bound_hyperbolic(n: int) -> float:
    """Admissible ball radius in hyperbolic space of curvature -1
    (scale by 1/K for curvature -K^2)."""
    if n < 2:
        raise ValueError("radius bound requires ambient dimension n >= 2")
    if n == 2:
        return 1.0 / (2.0 * math.sqrt(2.0))
    return (n - 1) / (2.0 * n - 1.0)


def radius_bound_ch(n: int, K: float) -> float:
    """Admissible ball radius under a sectional-curvature floor -K^2."""
    if n < 2:
        raise ValueError("radius bound requires ambient dimension n >= 2")
    if not K > 0:
        raise ValueError("curvature scale K must be positive")
    if n == 2:
        return 1.0 / (2.0 * math.sqrt(2.0) * K)
    return math.sqrt((n - 2) / (K * K * ((n + 1) ** 2 / 2.0 - 2.0)))


def _largest_eps(a: float, b: float) -> float:
    """Largest eps with a * (1 - eps^2) = eps * b, i.e. the positive root of
    a eps^2 + b eps - a = 0; zero when the gap a is not positive."""
    if a <= 0.0:
        return 0.0
    return (-b + math.sqrt(b * b + 4.0 * a * a)) / (2.0 * a)


def _theta_c1_norm(geom: Geometry, angle: AngleData) -> float:
    """C^1 norm of the contact angle theta = arccos(|phi| form) along the
    boundary, in arc length.  Zero for constant data; for per-ray data the
    trigonometric interpolant is differentiated spectrally."""
    phi = np.asarray(angle.phi, dtype=float)
    if phi.size <= 1 or np.ptp(phi) == 0.0:
        return 0.0
    n = phi.size
    k = np.fft.rfftfreq(n, d=1.0 / n) * 1j
    phi_hat = np.fft.rfft(phi)
    s_R = geom.volume_weight(geom.R)  # arc length is s(R) dtheta, and sigma = s on the disk
    dphi = np.fft.irfft(k * phi_hat, n) / s_R
    d2phi = np.fft.irfft(k * k * phi_hat, n) / s_R ** 2
    s2 = 1.0 - phi * phi
    dtheta = -dphi / np.sqrt(s2)
    d2theta = -(d2phi * s2 + phi * dphi * dphi) / s2 ** 1.5
    return float(np.max(np.abs(dtheta)) + np.max(np.abs(d2theta)))


def check_existence(geom: Geometry, angle: AngleData) -> HypothesisReport:
    """Evaluate the solvability conditions for a ball/disk geometry and a
    contact-angle datum; see the module docstring for the condition set."""
    if geom.kind == "interval":
        raise ValueError("existence check requires defining-function data (ball or disk)")

    n = geom.dim
    k1, kappa0, m1 = geom.k1, geom.kappa0, geom.M1
    ric_eff = effective_ricci_constant(geom)
    b = k1 * (n - 1)
    alpha_max = min(kappa0, b / 2.0)

    inset = _ALPHA_INSET * alpha_max
    if ric_eff < alpha_max * (b - alpha_max):
        alpha_lo = max(0.0, 0.5 * (b - math.sqrt(b * b - 4.0 * ric_eff)))
        inset = min(inset, 0.5 * (alpha_max - alpha_lo))
        alpha_q = kappa0 - 4.0 * (m1 + 3.0) / 15.0  # eps_alpha = 1/4 here
        alpha_star = min(max(alpha_q, alpha_lo + inset), alpha_max - inset)
    else:
        alpha_star = alpha_max - inset
    rhs_star = alpha_star * (b - alpha_star)
    curv_pass = ric_eff < rhs_star
    eps_alpha = _largest_eps(kappa0 - alpha_star, m1 + 3.0)
    eps0 = min(eps_alpha, 0.25) if curv_pass else 0.0

    eps_lhs = eps0 * (m1 + 3.0) / (1.0 - eps0 * eps0) if eps0 < 1 else math.inf
    conditions = [
        Condition("alpha_range", alpha_star, float(alpha_max),
                  0.0 < alpha_star < alpha_max),
        Condition("ric_cond2", float(ric_eff), rhs_star, curv_pass),
        Condition("eps_cond", float(eps_lhs), float(kappa0 - alpha_star),
                  eps_lhs <= kappa0 - alpha_star + 1e-12 and eps_alpha > 0.0),
        Condition("ric_cond", float(ric_eff), rhs_star, curv_pass,
                  note="conditional: the estimate constant multiplying eps0 is "
                       "not computable; a strict margin here admits a small "
                       "enough eps0"),
    ]

    phi0 = angle.phi0
    theta_c1 = _theta_c1_norm(geom, angle)
    angle_ok = phi0 <= eps0 and theta_c1 <= eps0

    if geom.curvature is CurvatureModel.HYPERBOLIC:
        radius_bound = radius_bound_hyperbolic(n) / geom.K
    elif geom.curvature is CurvatureModel.PINCHED_CH:
        radius_bound = radius_bound_ch(n, geom.K)
    else:
        radius_bound = None

    overall = all(c.passed for c in conditions) and angle_ok
    return HypothesisReport(
        k1=k1, kappa0=kappa0, M1=m1, ricci_abs=geom.ricci_abs, ric_eff=ric_eff,
        alpha_star=alpha_star, eps_alpha=eps_alpha, eps0=eps0,
        phi0=phi0, theta_c1=theta_c1, conditions=conditions,
        radius_bound=radius_bound, overall=overall,
    )
