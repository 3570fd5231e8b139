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

Each Newton iteration evaluates the Jacobian, factors it and takes one
damped, backtracked step.  The same factor then takes full chord
corrections v <- v + LU^-1(-R) (Kelley, Iterative Methods for Linear and
Nonlinear Equations, 1995, sec. 5.4), each kept only if it cuts max |R|
below _CHORD_CONTRACTION = 0.25 times the last value.  The first that
does not is discarded and the next iteration refreshes the Jacobian.
The corrections run on past tol while they still contract, so a solve
usually ends near the rounding floor, as Newton's quadratic last step
did: stopping at tol instead moved C_h by 1e-14 on a coarse wide disk.
Each Newton iteration takes at most max_iter corrections, and max_iter
still bounds the iterations, that is, the Jacobians and factorizations.
On the catalog one factorization and 7-16 corrections replace three or
four Newton iterations.

The residual cannot fall below rounding, and that floor grows with the
operator's largest coefficient (like h^-2 in 1-D, about N^4 at the
disk's pole), so a fine grid can stagnate above an absolute tol.  A
solve that stagnates or runs out of iterations above tol is therefore
accepted when max |R| <= eps ||J||_inf ||(v, mu_t)||_inf, with J the
last bordered Jacobian; anything above that still raises, so a wrong
Jacobian is still caught.  The floor is tested as soon as a Newton step
is refused, before any halving: a point within it has nothing left for
backtracking to find.  ``SolitonResult.residual_floor`` records that
bound; it is None when tol was met, and it is not part of any report.

Each factorization of the bordered matrix uses SuperLU's partial
pivoting, in a fill-reducing column order.  On the disk that is minimum
degree on A^T + A (``permc_spec="MMD_AT_PLUS_A"``): the pattern is
structurally symmetric, since the Jacobian's is the residual's exact
stencil and the border row (quad / vol) and column (-1) are both full,
and minimum degree orders the dense border node last.  On the 40 x 40
disk that stores about 90,000 nonzeros in L + U against 146,000 in the
default column order, and factors in about half the time.  In 1-D the
matrix is tridiagonal plus the border, whose natural order
(``"NATURAL"``) already fills nothing beyond the border; computing a
minimum-degree order there would cost about 30 us per factorization for
nothing.  Pivoting stays on, since the (n, n) entry is 0 and the
Jacobian is not an M-matrix: without it (threshold 0, symmetric mode) a
solve's relative residual reaches 6e-4 on the disk.  It stays partial:
a looser threshold factors no faster, and with minimum degree on a
hyperbolic ball with K R = 4.9, threshold 0.1 left a solve's relative
residual of order 1.  Like the flow's lagged factorization, this one
uses small supernodes (relax=1, panel_size=1): these stencils have few
dense column blocks, and on the disk both factor 20-40% faster with the
same fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .flow import SolverError
from .grids import AngleData, Field, Grid, make_field
from . import operators as ops

# step halvings per Newton iteration before the solve counts as stagnated
_MAX_BACKTRACKS = 20
# a chord correction is kept only if it cuts the residual below this share
_CHORD_CONTRACTION = 0.25

__all__ = ["NewtonPolicy", "SolitonResult", "solve_capillary_eps", "solve_soliton",
           "verify_compatibility"]


@dataclass
class NewtonPolicy:
    tol: float = 1e-10
    max_iter: int = 30

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer))
                or self.max_iter < 1):
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")


@dataclass
class SolitonResult:
    """A solved translator.

    ``u_inf`` is the ghost-closed profile with quadrature mean zero;
    ``C_eps``, ``C_quad`` and ``C_h`` are the three speeds of the module
    docstring; ``residual`` is max |W div(grad u_inf / W) - C_h|, how far
    u_inf is from solving the discrete translator equation (set by the
    Newton tolerance); ``newton_iters`` holds the Newton iteration count
    of the one solve (Jacobians and factorizations) and
    ``chord_corrections`` the chord corrections those factors took;
    ``residual_floor`` is None when Newton met its tolerance, and else the
    rounding floor under which it stopped (see _newton_eps).
    """

    u_inf: Field
    C_eps: float
    C_quad: float
    C_h: float
    residual: float
    newton_iters: List[int]
    chord_corrections: List[int]
    grid: Grid
    angle: AngleData
    residual_floor: Optional[float] = None


def _bordered_layout(grid: Grid, mean_row: np.ndarray):
    """CSC layout of the bordered Jacobian, built once per solve from the
    cached Jacobian pattern: (indices, indptr, data, jac_at).  Row n, the
    mean (mean_row), closes each column, and column n holds -1; both are
    already in data, and a Jacobian's data go to data[jac_at]."""
    n = grid.n_unknowns
    jac_indices, jac_indptr, _ = ops._jacobian_pattern(grid.shape)
    ends = jac_indptr[1:]
    data = np.concatenate((np.insert(np.zeros(len(jac_indices)), ends, mean_row), -np.ones(n)))
    indices = np.concatenate((np.insert(jac_indices, ends, n), np.arange(n, dtype=np.int32)))
    indptr = np.append(jac_indptr + np.arange(n + 1, dtype=np.int32), ends[-1] + 2 * n)
    # a column's entries move down by one border entry per column before it
    jac_at = np.arange(len(jac_indices)) + np.repeat(np.arange(n), np.diff(jac_indptr))
    return indices, indptr, data, jac_at


def _newton_eps(grid: Grid, angle: AngleData, eps: float,
                v: np.ndarray, mu_t: float, policy: NewtonPolicy):
    """Damped Newton with chord corrections for the split system; returns
    (v, mu_t, (iterations, corrections, floor)).  A solve that stagnates
    or runs out of iterations above tol is accepted, with floor set, if
    max |R| is within the rounding floor eps ||J||_inf ||(v, mu_t)||_inf of
    the last bordered Jacobian J; floor is None when tol was met."""
    n = grid.n_unknowns
    quad = grid.quad_row.ravel()
    vol = float(quad.sum())
    shape = grid.shape
    # in 1-D the natural order is already a minimum-degree one
    order = "MMD_AT_PLUS_A" if grid.is_disk else "NATURAL"
    indices, indptr, data, jac_at = _bordered_layout(grid, quad / vol)

    def evaluate(v_, mu_):
        """The point with its residual, mean gap and their max norm."""
        r_ = ops.capillary_residual(grid, v_, angle, eps) - mu_
        gap_ = float(quad @ v_.ravel()) / vol
        return v_, mu_, r_, gap_, max(float(np.max(np.abs(r_))), abs(gap_))

    def step(lu, r_, gap_):
        delta = lu.solve(-np.concatenate((r_.ravel(), [gap_])))
        return delta[:-1].reshape(shape), float(delta[-1])

    def floor(bordered_, v_, mu_):
        """eps ||J||_inf ||(v, mu_t)||_inf, the residual's rounding floor."""
        scale = max(float(np.max(np.abs(v_))), abs(mu_))
        return np.finfo(float).eps * float(abs(bordered_).sum(axis=1).max()) * scale

    v, mu_t, r, gap, nrm = evaluate(v, mu_t)
    corrections = 0
    for it in range(policy.max_iter):
        if nrm <= policy.tol:
            return v, mu_t, (it, corrections, None)
        lu = None  # the last iteration's factor goes before the next is made
        data[jac_at] = ops.capillary_jacobian(grid, v, angle, eps).data
        bordered = sp.csc_matrix((data, indices, indptr), shape=(n + 1, n + 1))
        try:
            lu = splu(bordered, permc_spec=order, relax=1, panel_size=1)
        except RuntimeError as exc:
            raise SolverError(f"singular capillary Jacobian at eps={eps:g}, iteration {it} "
                              f"(residual {nrm:.3e}): {exc}") from exc
        dv, dmu = step(lu, r, gap)
        lam = 1.0
        for _ in range(_MAX_BACKTRACKS + 1):
            trial = evaluate(v + lam * dv, mu_t + lam * dmu)
            if trial[-1] < nrm or trial[-1] <= policy.tol:
                v, mu_t, r, gap, nrm = trial
                break
            if lam == 1.0:  # a full step refused at the floor: halving it finds only rounding
                bound = floor(bordered, v, mu_t)
                if nrm <= bound:
                    return v, mu_t, (it + 1, corrections, bound)
            lam *= 0.5
        else:
            raise SolverError(f"Newton stagnated at eps={eps:g}, iteration {it}: "
                              f"residual {nrm:.3e}")

        # chord corrections on the same factor, kept while they contract
        for _ in range(policy.max_iter):
            dv, dmu = step(lu, r, gap)
            trial = evaluate(v + dv, mu_t + dmu)
            if not trial[-1] < _CHORD_CONTRACTION * nrm:
                break
            v, mu_t, r, gap, nrm = trial
            corrections += 1
    if nrm <= policy.tol:
        return v, mu_t, (policy.max_iter, corrections, None)
    bound = floor(bordered, v, mu_t)
    if nrm > bound:
        raise SolverError(f"Newton did not converge at eps={eps:g} in {policy.max_iter} "
                          f"iterations: residual {nrm:.3e}")
    return v, mu_t, (policy.max_iter, corrections, bound)


def solve_capillary_eps(grid: Grid, angle: AngleData, eps: float,
                        u_init: Optional[Field] = None,
                        policy: Optional[NewtonPolicy] = None) -> Field:
    """Solve W div(grad u/W) = eps*u with the contact-angle closure.

    Returns the ghost-closed solution field (including its 1/eps mean
    drift).  The final residual satisfies max |R| <= policy.tol, or lies
    within its rounding floor (see _newton_eps).
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
    return ops.ghost_fill(grid, make_field(grid, u), angle)


def solve_soliton(grid: Grid, angle: AngleData,
                  policy: Optional[NewtonPolicy] = None) -> SolitonResult:
    """Bordered Newton on the eps = 0 system from zero; the multiplier,
    quadrature and discrete speeds; zero-mean profile."""
    policy = policy or NewtonPolicy()
    v, c_eps, (it, chords, floor) = _newton_eps(grid, angle, 0.0, np.zeros(grid.shape), 0.0,
                                                policy)
    v = v - ops.field_mean(grid, v)
    u_inf = ops.ghost_fill(grid, make_field(grid, v), angle)
    terms = ops.flux_terms(grid, u_inf.values)  # read by all three below
    denom = ops.integrate_domain(grid, 1.0 / terms.w_node)
    c_quad = -ops.integrate_boundary(grid, angle) / denom
    c_h = ops.discrete_speed(grid, terms)
    res = float(np.max(np.abs(ops.mcf_from_extended(grid, terms) - c_h)))
    return SolitonResult(u_inf=u_inf, C_eps=float(c_eps), C_quad=float(c_quad),
                         C_h=float(c_h), residual=res, newton_iters=[it],
                         chord_corrections=[chords], grid=grid, angle=angle,
                         residual_floor=floor)


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
