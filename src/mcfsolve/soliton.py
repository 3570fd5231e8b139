"""Translating-soliton solver: one bordered Newton solve.

The translator profile solves W div(grad u / W) = C with the contact-angle
boundary closure; the speed C is pinned by the boundary-flux balance

    C = -int_boundary phi dsigma / int_domain (1/W) dx.

The paper obtains the profile as the vanishing-regularization limit of
the capillary problems

    W div(grad u / W) = eps * u,

whose unique solution drifts like C/eps (``solve_capillary_eps``).  The
solver works with the split u = v + mu, unknowns (v, mu_t = eps*mu),
where v carries the shape with quadrature mean zero and mu_t the speed:

    W div(grad v / W) - eps*v - mu_t = 0,   mean(v) = 0.

The mean constraint removes the constant null space, so the bordered
Jacobian (exact, complex-step assembled) stays invertible at eps = 0
(Keller's bordering).  ``solve_soliton`` therefore solves the eps = 0
system directly by damped Newton with residual backtracking, started
from zero.  Three speeds come out:

C_quad
    the continuum estimator: the flux balance above with the analytic
    boundary integral of phi and the quadrature of 1/W; O(h^2)-close to
    the discrete speed and the quantity whose order criterion 8 measures.
C_eps
    the bordered multiplier: the converged mu_t of the eps = 0 system.
C_h
    the speed the discrete flow attains: the telescoped outer-face flux
    over sum_i sigma_i h / W_i (operators.discrete_speed).  It depends
    only on the profile; drift and speed checks measure against it.

C_eps and C_quad are independent up to discretization and guard each
other; C_h and C_eps agree up to the Newton tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .flow import SolverError
from .grids import AngleData, Field, Grid
from . import operators as ops

__all__ = ["NewtonPolicy", "SolitonResult", "solve_capillary_eps", "solve_soliton",
           "verify_compatibility"]


@dataclass
class NewtonPolicy:
    tol: float = 1e-10
    max_iter: int = 30
    max_backtracks: int = 20

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass
class SolitonResult:
    """A solved translator.

    ``u_inf`` is the ghost-closed profile with quadrature mean zero;
    ``C_eps``, ``C_quad`` and ``C_h`` are the three speeds of the module
    docstring; ``residual`` is max |W div(grad u_inf / W) - C_h|, how far
    u_inf is from solving the discrete translator equation (set by the
    Newton tolerance); ``newton_iters`` holds the iteration count of the
    one Newton solve.
    """

    u_inf: Field
    C_eps: float
    C_quad: float
    C_h: float
    residual: float
    newton_iters: List[int]
    grid: Grid
    angle: AngleData


def _newton_eps(grid: Grid, angle: AngleData, eps: float,
                v: np.ndarray, mu_t: float, policy: NewtonPolicy):
    """Damped Newton for the split system; returns (v, mu_t, iterations)."""
    n = grid.n_unknowns
    quad = grid.quad_row.ravel()
    vol = float(quad.sum())
    shape = grid.shape

    def residual(v_, mu_):
        r = ops.capillary_residual(grid, v_, angle, eps) - mu_
        mean_gap = float(quad @ v_.ravel()) / vol
        return r, mean_gap

    def norm(r, mean_gap):
        return max(float(np.max(np.abs(r))), abs(mean_gap))

    r, gap = residual(v, mu_t)
    nrm = norm(r, gap)
    for it in range(policy.max_iter):
        if nrm <= policy.tol:
            return v, mu_t, it
        jac = ops.capillary_jacobian(grid, v, angle, eps)
        # border: row n, the mean, closes each column; column n holds -1
        ends = jac.indptr[1:]
        data = np.concatenate((np.insert(jac.data, ends, quad / vol), -np.ones(n)))
        indices = np.concatenate((np.insert(jac.indices, ends, n), np.arange(n)))
        indptr = np.append(jac.indptr + np.arange(n + 1), ends[-1] + 2 * n)
        bordered = sp.csc_matrix((data, indices, indptr), shape=(n + 1, n + 1))
        rhs = -np.concatenate((r.ravel(), [gap]))
        try:
            delta = splu(bordered).solve(rhs)
        except RuntimeError as exc:
            raise SolverError(f"singular capillary Jacobian at eps={eps:g}, iteration {it} "
                              f"(residual {nrm:.3e}): {exc}") from exc
        dv = delta[:-1].reshape(shape)
        dmu = float(delta[-1])

        lam = 1.0
        for _ in range(policy.max_backtracks + 1):
            v_try = v + lam * dv
            mu_try = mu_t + lam * dmu
            r_try, gap_try = residual(v_try, mu_try)
            nrm_try = norm(r_try, gap_try)
            if nrm_try < nrm or nrm_try <= policy.tol:
                v, mu_t, r, gap, nrm = v_try, mu_try, r_try, gap_try, nrm_try
                break
            lam *= 0.5
        else:
            raise SolverError(f"Newton stagnated at eps={eps:g}, iteration {it}: "
                              f"residual {nrm:.3e}")
    if nrm <= policy.tol:
        return v, mu_t, policy.max_iter
    raise SolverError(f"Newton did not converge at eps={eps:g} in {policy.max_iter} "
                      f"iterations: residual {nrm:.3e}")


def solve_capillary_eps(grid: Grid, angle: AngleData, eps: float,
                        u_init: Optional[Field] = None,
                        policy: Optional[NewtonPolicy] = None) -> Field:
    """Solve W div(grad u/W) = eps*u with the contact-angle closure.

    Returns the ghost-closed solution field (including its 1/eps mean
    drift).  The final residual satisfies max |R| <= policy.tol.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    policy = policy or NewtonPolicy()
    if u_init is None:
        v0 = np.zeros(grid.shape)
        mu0 = 0.0
    else:
        interior = np.asarray(u_init.interior, dtype=float)
        mean0 = ops.field_mean(grid, interior)
        v0 = interior - mean0
        mu0 = eps * mean0
    v, mu_t, _ = _newton_eps(grid, angle, eps, v0, mu0, policy)
    u = v + mu_t / eps
    return ops.ghost_fill(grid, Field(_embed(grid, u)), angle)


def _embed(grid: Grid, interior: np.ndarray) -> np.ndarray:
    values = np.full(grid.ext_shape, np.nan)
    values[1:-1] = interior
    return values


def solve_soliton(grid: Grid, angle: AngleData,
                  policy: Optional[NewtonPolicy] = None) -> SolitonResult:
    """Bordered Newton on the eps = 0 system from zero; the multiplier,
    quadrature and discrete speeds; zero-mean profile."""
    policy = policy or NewtonPolicy()
    v, c_eps, it = _newton_eps(grid, angle, 0.0, np.zeros(grid.shape), 0.0, policy)
    v = v - ops.field_mean(grid, v)
    u_inf = ops.ghost_fill(grid, Field(_embed(grid, v)), angle)
    w_node = ops.node_area_element(grid, u_inf.values)
    denom = ops.integrate_domain(grid, 1.0 / w_node)
    c_quad = -ops.integrate_boundary(grid, angle) / denom
    c_h = ops.discrete_speed(grid, u_inf.values)
    res = float(np.max(np.abs(ops.mcf_from_extended(grid, u_inf.values) - c_h)))
    return SolitonResult(u_inf=u_inf, C_eps=float(c_eps), C_quad=float(c_quad),
                         C_h=float(c_h), residual=res, newton_iters=[it],
                         grid=grid, angle=angle)


def verify_compatibility(result: SolitonResult) -> dict:
    """Recompute the discrete divergence identity for a solved soliton,
    next to its three speeds; reporting only."""
    grid, angle = result.grid, result.angle
    ext = result.u_inf.values
    interior_sum, boundary_flux, gap = ops.flux_balance(grid, ext)
    # flux_balance sums over one unit of the ball's sphere measure
    scale = grid.geom.sphere_area if grid.geom.kind == "radial_ball" else 1.0
    bc_gap = abs(scale * boundary_flux + ops.integrate_boundary(grid, angle))
    return {
        "C_eps": result.C_eps,
        "C_quad": result.C_quad,
        "C_h": result.C_h,
        "speed_gap": abs(result.C_eps - result.C_quad),
        "flux_interior_sum": interior_sum,
        "flux_boundary": boundary_flux,
        "flux_gap": abs(gap),
        "bc_model_gap": bc_gap,
        "residual": result.residual,
    }
