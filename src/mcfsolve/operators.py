"""Flux-form discretization of the graph mean curvature operator.

The operator W * div(grad u / W), W = sqrt(1 + |grad u|^2), is discretized
in finite-volume (flux) form so that the weighted sum of the divergence
telescopes exactly to the outermost face fluxes:

    sum_i sigma_i h_r div_i = (outer face flux) - (inner face flux)

which is the discrete skeleton of the speed/angle compatibility relation.
Face fluxes are q = s / sqrt(1 + s^2 + tangential^2) from one-sided slopes
s at the face; the node prefactor W uses centered slopes.  The contact
angle enters through one ghost layer: the ghost value is chosen so the
centered normal derivative p at the boundary node solves

    p = phi * sqrt(1 + p^2 + |tangential grad|^2)

in closed form, p = phi * sqrt((1 + |tangential|^2) / (1 - phi^2)), which
is always solvable for |phi| < 1.  With that closure the flux built from
the centered slope at the boundary node equals phi exactly; the telescoped
outermost face flux uses the one-sided slope at the face h/2 outside the
boundary, so it matches the boundary integral of phi only up to
discretization error (``bc_model_gap`` in soliton.verify_compatibility).

Both sparse matrices, the Jacobian of the nonlinear residual and the
lagged matrix of the semi-implicit step, fill a pattern that depends on
the grid only and is built once per grid by _csc_pattern, in canonical CSC
order (rows sorted within each column) and read-only: SuperLU's duplicate
summing sorts an unsorted pattern in place, which would corrupt a shared
one.  A call only fills the data vector.

The Jacobian's pattern is the residual's exact stencil: tridiagonal in
1-D; on the disk the 3 x 3 block of neighbouring rings and rays, rays
j +- 2 of the last ring (ghost closure) and the three antipodal rays of
ring 0 (pole mirror).  The residual is complex-analytic in the field
values, so Im R(u + i*delta e_S)/delta gives the exact derivatives for a
probe group S of columns no two of which share a row.  The groups are
read off the pattern greedily: 3 in 1-D, 14 on the 40 x 40 disk.

The lagged matrix is the same flux form with its factors W_f, W_t and W
frozen, written directly from them: tridiagonal in 1-D, 5-point (periodic
in theta) plus the ghost coupling of the last ring on the disk.

Each quantity of the flux form is computed in one place.  node_terms
gives the centered slopes and W at the nodes, and flux_terms adds the face
slopes and factors; its FluxTerms record is what the operator, the lagged
matrix and the flow monitors read, so a flow step builds one record per
field.  One kernel, _flux_differences, gives the face fluxes and each
node's net flux for the interval (sigma = 1), the balls and the disk.
mcf_from_extended divides that net flux by the cell measure, and
flux_balance sums it.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .grids import AngleData, Field, Grid, _slope_closed_form

__all__ = [
    "ghost_fill",
    "mcf_operator",
    "integrate_domain",
    "integrate_boundary",
    "field_mean",
    "field_osc",
    "flux_balance",
    "discrete_speed",
    "capillary_residual",
    "capillary_jacobian",
    "contact_normal_slope",
    "node_area_element",
    "node_terms",
    "FluxTerms",
    "flux_terms",
    "semi_implicit_matrix",
]

_CSTEP = 1e-50


def contact_normal_slope(phi, tangential_sq=0.0):
    """Closed-form solution p of p = phi*sqrt(1 + p^2 + T) for |phi| < 1:
    the inward normal derivative matching contact angle phi when the
    squared tangential slope is T."""
    phi = np.asarray(phi, dtype=float)
    if np.any(np.abs(phi) >= 1.0):
        raise ValueError("ill-posed contact angle: |phi| must be below 1")
    out = _slope_closed_form(phi, tangential_sq)
    return out if out.ndim else float(out)


def _normal_slope(grid: Grid, interior: np.ndarray, angle: AngleData):
    """Closed-form boundary normal derivative(s) p for the ghost closure;
    AngleData guarantees |phi| < 1, so no guard is needed here.  In 1-D
    there is no tangential slope, and p is AngleData's cached constant."""
    if grid.is_disk:
        du = np.roll(interior[-1], -1) - np.roll(interior[-1], 1)
        tang = du / (2.0 * grid.h_theta * grid.geom.R)
        return _slope_closed_form(angle.phi, tang * tang)
    return angle.normal_slope


def extend_values(grid: Grid, interior: np.ndarray, angle: AngleData) -> np.ndarray:
    """Attach the ghost layer (and pole mirror) to interior values.

    Works for complex input so the same code path serves the complex-step
    Jacobian.
    """
    p = _normal_slope(grid, interior, angle)
    h = grid.h_r
    if grid.geom.kind == "interval":
        ghost_a = interior[1] - 2.0 * h * p[0]
        ghost_b = interior[-2] - 2.0 * h * p[1]
        return np.concatenate(([ghost_a], interior, [ghost_b]))
    if grid.is_disk:
        mirror = np.roll(interior[0], grid.n_theta // 2)
        ghost = interior[-2] - 2.0 * h * p
        return np.vstack((mirror[None, :], interior, ghost[None, :]))
    mirror = interior[0]
    ghost = interior[-2] - 2.0 * h * p[0]
    return np.concatenate(([mirror], interior, [ghost]))


def ghost_fill(grid: Grid, field: Field, angle: AngleData) -> Field:
    """Return a copy of the field with ghosts set by the contact-angle
    closure.  Idempotent: ghosts depend only on interior values."""
    interior = np.asarray(field.interior, dtype=float)
    if not np.isfinite(interior).all():
        raise ValueError("field has non-finite interior values")
    return Field(extend_values(grid, interior, angle), field.t)


def node_terms(grid: Grid, ext: np.ndarray):
    """Centered slopes and the area element at the real nodes of ext.

    Returns (c, w_ext, W): the radial (coordinate) slope c; on the disk the
    physical tangential slope of every extended row, pole mirror and ghost
    rows included (None in 1-D); and W = sqrt(1 + c^2 + w^2) with w the
    tangential slope of the real nodes.  Accepts complex input.
    """
    h = grid.h_r
    c = (ext[2:] - ext[:-2]) / (2.0 * h)
    if not grid.is_disk:
        return c, None, np.sqrt(1.0 + c * c)
    r = grid.nodes
    r_ext = np.concatenate(([r[0]], r, [grid.geom.R + h]))
    du = np.roll(ext, -1, axis=1) - np.roll(ext, 1, axis=1)
    w_ext = du / (2.0 * grid.h_theta * r_ext[:, None])
    w = w_ext[1:-1]
    return c, w_ext, np.sqrt(1.0 + c * c + w * w)


class FluxTerms(NamedTuple):
    """The flux-form quantities of one ghost-closed field (see flux_terms)."""

    c: np.ndarray                 # centered radial slope at the nodes
    w_ext: Optional[np.ndarray]   # disk: tangential slope of every extended row
    w_node: np.ndarray            # W at the nodes
    s_r: np.ndarray               # one-sided radial face slopes
    wf_r: np.ndarray              # their face factors W_f
    s_t: Optional[np.ndarray]     # disk: angular face slopes
    wf_t: Optional[np.ndarray]    # disk: their face factors W_t


def flux_terms(grid: Grid, ext: np.ndarray) -> FluxTerms:
    """Slopes and area elements of the flux form at ext: node_terms plus the
    one-sided radial face slopes with their factors W_f, and on the disk the
    angular face slopes with their factors W_t (None in 1-D).  The face
    fluxes are s / W_f; accepts complex input."""
    c, w_ext, w_node = node_terms(grid, ext)
    s_r = (ext[1:] - ext[:-1]) / grid.h_r
    if w_ext is None:
        return FluxTerms(c, None, w_node, s_r, np.sqrt(1.0 + s_r * s_r), None, None)
    ht = grid.h_theta
    wbar2 = 0.5 * (w_ext[:-1] ** 2 + w_ext[1:] ** 2)
    wf_r = np.sqrt(1.0 + s_r * s_r + wbar2)
    u = ext[1:-1]
    s_t = (np.roll(u, -1, axis=1) - u) / ht
    cbar2 = 0.5 * (c ** 2 + np.roll(c, -1, axis=1) ** 2)
    wf_t = np.sqrt(1.0 + (s_t / grid.nodes[:, None]) ** 2 + cbar2)
    return FluxTerms(c, w_ext, w_node, s_r, wf_r, s_t, wf_t)


def _terms(grid: Grid, ext) -> FluxTerms:
    """The record of ext, which may already be one."""
    return ext if isinstance(ext, FluxTerms) else flux_terms(grid, ext)


def _flux_differences(grid: Grid, terms: FluxTerms):
    """The flux-form kernel: (F, D) of a record.

    F holds the sigma-weighted radial face fluxes sigma_f s_f / W_f, and D
    each node's net outflow through its cell faces in the measure of the
    cell, sigma_i h (times h_theta on the disk), so that div_i = D_i /
    Grid.cell_weights.  sigma is 1 on the interval.
    """
    if terms.s_t is None:
        flux = grid.sigma_faces * (terms.s_r / terms.wf_r)
        return flux, flux[1:] - flux[:-1]
    flux = grid.sigma_faces[:, None] * (terms.s_r / terms.wf_r)
    q_t = terms.s_t / terms.wf_t
    net = ((flux[1:] - flux[:-1]) * grid.h_theta
           + (q_t - np.roll(q_t, 1, axis=1)) * (grid.h_r / grid.nodes[:, None]))
    return flux, net


def mcf_from_extended(grid: Grid, ext) -> np.ndarray:
    """W div(grad u / W) at the nodes of a ghost-closed array ext, or of
    its FluxTerms record."""
    terms = _terms(grid, ext)
    _, net = _flux_differences(grid, terms)
    return terms.w_node * (net / grid.cell_weights)


def mcf_operator(grid: Grid, field: Field) -> Field:
    """Apply W * div(grad u / W) to a ghost-closed field."""
    if not np.all(np.isfinite(field.values)):
        raise ValueError("mcf_operator needs finite, ghost-closed values")
    out = np.full(grid.ext_shape, np.nan)
    out[1:-1] = mcf_from_extended(grid, field.values)
    return Field(out, field.t)


def node_area_element(grid: Grid, ext: np.ndarray) -> np.ndarray:
    """W = sqrt(1 + |grad u|^2) at the real nodes."""
    return node_terms(grid, ext)[2]


# -- quadratures --------------------------------------------------------------


def _interior_of(f):
    return f.interior if isinstance(f, Field) else np.asarray(f)


def integrate_domain(grid: Grid, f) -> float:
    """Volume integral of a nodal field with the metric weight sigma
    (midpoint masses on the staggered cells, trapezoid on the interval)."""
    v = _interior_of(f)
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot integrate non-finite values")
    return float(np.vdot(grid.quad_row, v))


def integrate_boundary(grid: Grid, angle: AngleData) -> float:
    """Boundary integral of phi with the induced measure: unit weights at
    the interval endpoints, sigma(R) |S^{n-1}| for symmetric ball data,
    sigma(R) h_theta per ray on the disk."""
    geom = grid.geom
    if geom.kind == "interval":
        return float(angle.phi[0] + angle.phi[1])
    sig_R = float(geom.volume_weight(geom.R))
    if grid.is_disk:
        return float(sig_R * grid.h_theta * np.sum(angle.phi))
    return float(sig_R * geom.sphere_area * angle.phi[0])


def field_mean(grid: Grid, f) -> float:
    return integrate_domain(grid, f) / grid.quad_total


def field_osc(f) -> float:
    v = _interior_of(f)
    return float(v.max() - v.min())


def flux_balance(grid: Grid, ext: np.ndarray) -> Tuple[float, float, float]:
    """Exact-summation check of the discrete divergence identity.

    Returns (interior_sum, boundary_flux, gap) where interior_sum is
    sum_i sigma_i h div_i (times h_theta on the disk), boundary_flux the
    telescoped outermost-face flux, and gap their difference.  For any
    ghost-closed field the gap is pure roundoff.
    """
    flux, net = _flux_differences(grid, flux_terms(grid, ext))
    interior_sum = math.fsum(net.ravel().tolist())
    faces = flux[-1] - flux[0]  # outer minus inner face; the pole face has sigma = 0
    if grid.is_disk:
        bflux = math.fsum((faces * grid.h_theta).tolist())
    else:
        bflux = float(faces)
    return interior_sum, bflux, interior_sum - bflux


def discrete_speed(grid: Grid, ext: np.ndarray) -> float:
    """Speed C_h of the discrete translator through a ghost-closed profile.

    If W div(grad u / W) = C at every node, then div_i = C / W_i, and the
    telescoping identity of flux_balance gives
    C * sum_i sigma_i h / W_i (times h_theta on the disk) = boundary_flux.
    C_h is that ratio: the speed the discrete flow attains, as opposed to
    the flux-balance quadrature C_quad, which is only O(h^2)-close.
    """
    _, bflux, _ = flux_balance(grid, ext)
    mass = math.fsum((grid.cell_weights / node_area_element(grid, ext)).ravel().tolist())
    return bflux / mass


# -- nonlinear residual and its exact Jacobian --------------------------------


def capillary_residual(grid: Grid, interior: np.ndarray, angle: AngleData,
                       eps: float) -> np.ndarray:
    """R(u) = W div(grad u / W) - eps*u with the contact-angle ghost
    closure.  Accepts complex input (used by the Jacobian)."""
    ext = extend_values(grid, interior, angle)
    return mcf_from_extended(grid, ext) - eps * interior


_COLOR_CACHE: Dict[tuple, tuple] = {}


def _csc_pattern(n: int, rows: np.ndarray, cols: np.ndarray):
    """Read-only canonical CSC pattern (indices, indptr, gather) of an n x n
    matrix with entries at the slots (rows, cols), rows outside the matrix
    dropped: slot values v shaped like rows give the data as v.ravel()[gather]."""
    rows, cols = rows.ravel(), cols.ravel()
    kept = np.flatnonzero((rows >= 0) & (rows < n))
    gather = kept[np.lexsort((rows[kept], cols[kept]))]
    indices = rows[gather].astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.bincount(cols[gather], minlength=n))
    for arr in (indices, indptr, gather):
        arr.flags.writeable = False
    return indices, indptr, gather


def _coloring(grid: Grid):
    """Cached Jacobian pattern, the exact stencil of the module docstring,
    and its probe groups: (indices, indptr, groups).  Columns are grouped
    first-fit in column order, each joining the first group with which it
    shares no row; a group is (its columns, their data positions)."""
    key = (grid.geom.kind, grid.n_r, grid.n_theta)
    if key in _COLOR_CACHE:
        return _COLOR_CACHE[key]
    n = grid.n_unknowns
    k = np.arange(n).reshape(grid.shape)
    if grid.is_disk:
        nt = grid.n_theta
        ray = lambda dj: np.roll(k, -dj, axis=1)  # the node dj rays further on
        slots = [(ray(dj) + di * nt, k) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
        slots += [(ray(dj)[-1], k[-1]) for dj in (-2, 2)]
        slots += [(ray(nt // 2 + d)[0], k[0]) for d in (-1, 0, 1)]
    else:
        slots = [(k + d, k) for d in (-1, 0, 1)]
    rows = np.concatenate([r.ravel() for r, _ in slots])
    cols = np.concatenate([c.ravel() for _, c in slots])
    indices, indptr, _ = _csc_pattern(n, rows, cols)
    pattern = sp.csc_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    conflict = (pattern.T @ pattern).tocsr()  # columns sharing a row
    color = np.full(n, -1)
    for c in range(n):
        taken = set(color[conflict.indices[conflict.indptr[c]:conflict.indptr[c + 1]]].tolist())
        color[c] = next(g for g in range(n) if g not in taken)
    color_at = color[np.repeat(np.arange(n), np.diff(indptr))]
    groups = [(np.flatnonzero(color == g), np.flatnonzero(color_at == g))
              for g in range(color.max() + 1)]
    for members, fill in groups:
        members.flags.writeable = fill.flags.writeable = False
    _COLOR_CACHE[key] = (indices, indptr, groups)
    return _COLOR_CACHE[key]


def capillary_jacobian(grid: Grid, interior: np.ndarray, angle: AngleData,
                       eps: float) -> sp.csc_matrix:
    """Exact Jacobian of capillary_residual at the given state, in CSC on
    the grid's cached pattern: complex-step differentiation, one residual
    evaluation per probe group of _coloring."""
    n = grid.n_unknowns
    indices, indptr, groups = _coloring(grid)
    base = np.asarray(interior, dtype=complex).ravel()
    data = np.empty(len(indices))
    for cols, fill in groups:
        u = base.copy()
        u[cols] += 1j * _CSTEP
        out = capillary_residual(grid, u.reshape(grid.shape), angle, eps).ravel().imag / _CSTEP
        data[fill] = out[indices[fill]]
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))


# -- lagged-coefficient linear operator for semi-implicit stepping ------------


_PATTERN_CACHE: Dict[tuple, tuple] = {}


def _lagged_pattern(grid: Grid):
    """Cached CSC pattern of the lagged matrix: (indices, indptr, gather,
    diag), read-only and in canonical order (rows sorted within each
    column).  The slot values of semi_implicit_matrix, stacked per node in
    the order below, [right,] diag, [left,] above, give the data vector as
    stack.ravel()[gather]; diag are the diagonal's positions in it.
    """
    key = (grid.geom.kind, grid.n_r, grid.n_theta)
    if key in _PATTERN_CACHE:
        return _PATTERN_CACHE[key]
    n = grid.n_unknowns
    nt = grid.n_theta if grid.is_disk else 1
    k = np.arange(n).reshape(grid.shape)
    # CSC column k holds the rows coupling to node k: the node below through
    # its weight up, the node above through its weight down, and on the
    # disk the neighbouring rays
    if grid.is_disk:
        slot_rows = [k - nt, np.roll(k, 1, axis=1), k, np.roll(k, -1, axis=1), k + nt]
    else:
        slot_rows = [k - nt, k, k + nt]
    cols = np.repeat(np.arange(n), len(slot_rows))
    # _csc_pattern drops the pole-face rows and the rows past the boundary
    indices, indptr, gather = _csc_pattern(n, np.stack(slot_rows, axis=-1), cols)
    diag = np.flatnonzero(indices == cols[gather])
    diag.flags.writeable = False
    _PATTERN_CACHE[key] = (indices, indptr, gather, diag)
    return _PATTERN_CACHE[key]


def semi_implicit_matrix(grid: Grid, ext0, angle: AngleData,
                         dt: float) -> sp.csc_matrix:
    """I - dt*M with M the flux form with W factors frozen at ext0, a
    ghost-closed array or its FluxTerms record.  Used in increment form:
    (I - dt M) du = dt F(u_old).

    Node i couples to its radial neighbours with weight
    W_i sigma_f / (sigma_i h^2 W_f) through each face f, and on the disk to
    the neighbouring rays with weight W_i / (r_i^2 h_theta^2 W_t); the
    diagonal is minus their sum.  The lagged boundary normal slope enters
    the ghost closure only as an affine constant, already in F(u_old), so
    each ghost v[-2] - 2h p0 (and the left ghost v[1] - 2h p0 of the
    interval) folds its weight onto the node across the boundary node.
    The pole face has sigma = 0 and couples nothing.  ``angle`` is unused;
    the signature keeps it for existing callers.

    The matrix is structurally symmetric, and since every weight is
    positive and the ghost fold only moves weight onto an existing
    neighbour, it is a strictly row-diagonally dominant M-matrix: each row's
    diagonal exceeds the sum of its off-diagonal magnitudes by exactly 1.
    Gaussian elimination therefore needs no pivoting in any symmetric
    ordering, which is how flow.step factors it.
    """
    terms = _terms(grid, ext0)
    h = grid.h_r
    sf, sn = grid.sigma_faces, grid.sigma_nodes
    if grid.is_disk:
        sf, sn = sf[:, None], sn[:, None]
    radial = terms.w_node / (sn * h * h)
    down = radial * sf[:-1] / terms.wf_r[:-1]  # to node i-1
    up = radial * sf[1:] / terms.wf_r[1:]      # to node i+1
    diag = -(down + up)
    down[-1] += up[-1]  # outer ghost
    if grid.geom.kind == "interval":
        up[0] += down[0]  # left ghost
    # the wrapped end values fall on rows outside the grid, not in the pattern
    below = np.concatenate((up[-1:], up[:-1]))
    above = np.concatenate((down[1:], down[:1]))
    if grid.is_disk:
        angular = terms.w_node / (grid.nodes[:, None] * grid.h_theta) ** 2
        right = angular / terms.wf_t                     # to ray j+1
        left = angular / np.roll(terms.wf_t, 1, axis=1)  # to ray j-1
        diag -= right + left
        slots = (below, np.roll(right, 1, axis=1), diag, np.roll(left, -1, axis=1), above)
    else:
        slots = (below, diag, above)
    indices, indptr, gather, diag_at = _lagged_pattern(grid)
    data = np.stack(slots, axis=-1).ravel()[gather]
    data *= -dt
    data[diag_at] += 1.0
    n = grid.n_unknowns
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))
