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
the grid's shape only.  _csc_pattern builds each in canonical CSC order
(rows sorted within each column) and read-only: SuperLU's duplicate
summing sorts an unsorted pattern in place, which would corrupt a shared
one.  _jacobian_pattern (with its probe groups) and _lagged_pattern are
cached per shape, so every grid of a shape shares them; a call only fills
the data vector.  The key is the shape, not the Grid, because each solve
through the CLI builds a new Grid, most often of a shape seen before.

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

On the disk the flux form is second order away from the pole and first
order at ring 0, but nothing at the pole causes that.  For the tilted
plane u = a r cos(theta) the error on every ring is the truncation of the
angular second difference, a |4 sin^2(h_theta/2)/h_theta^2 - 1|/sigma,
about a h_theta^2/(12 sigma); it is first order at ring 0 only because
sigma_0 = h_r/2 there (see the README's design notes for the measured
errors).

Each quantity of the flux form is computed in one place.  flux_terms
gives the centered slopes and W at the nodes and the face slopes and
factors; its FluxTerms record is what the operator, the lagged matrix,
the speeds and the flow monitors read, so a flow step builds one record
per field.  One kernel, _flux_differences, gives the face fluxes and each
node's net flux for the interval (sigma = 1), the balls and the disk.
mcf_from_extended divides that net flux by the cell measure, and
flux_balance sums it.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .grids import AngleData, Field, Grid, _slope_closed_form

__all__ = [
    "ghost_fill",
    "integrate_domain",
    "integrate_boundary",
    "field_mean",
    "flux_balance",
    "discrete_speed",
    "capillary_residual",
    "capillary_jacobian",
    "node_area_element",
    "FluxTerms",
    "flux_terms",
    "semi_implicit_matrix",
]

_CSTEP = 1e-50


def _roll(a: np.ndarray, shift: int) -> np.ndarray:
    """np.roll(a, shift, axis=-1), the periodic shift along theta, by slicing:
    out[..., j] = a[..., j - shift], always a new array, never a view.
    np.roll's generic axis handling costs several times the data movement."""
    k = shift % a.shape[-1]
    return np.concatenate((a[..., -k:], a[..., :-k]), axis=-1) if k else a.copy()


def _normal_slope(grid: Grid, interior: np.ndarray, angle: AngleData):
    """Closed-form boundary normal derivative(s) p for the ghost closure;
    AngleData guarantees |phi| < 1, so no guard is needed here.  In 1-D
    there is no tangential slope, and p is AngleData's cached constant."""
    if grid.is_disk:
        du = _roll(interior[-1], -1) - _roll(interior[-1], 1)
        tang = du / (2.0 * grid.h_theta * grid.sigma_nodes[-1])
        return _slope_closed_form(angle.phi, tang * tang)
    return angle.normal_slope


def close_ghosts(grid: Grid, ext: np.ndarray, angle: AngleData) -> np.ndarray:
    """Set the ghost layer (and pole mirror) of ext in place from its
    interior rows ext[1:-1], and return ext: the one ghost closure, through
    which extend_values and flow.step both close their arrays."""
    interior = ext[1:-1]
    p = _normal_slope(grid, interior, angle)
    h = grid.h_r
    if grid.geom.kind == "interval":
        ext[0] = interior[1] - 2.0 * h * p[0]
        ext[-1] = interior[-2] - 2.0 * h * p[1]
    elif grid.is_disk:
        ext[0] = _roll(interior[0], grid.n_theta // 2)  # the antipodal rays
        ext[-1] = interior[-2] - 2.0 * h * p
    else:
        ext[0] = interior[0]
        ext[-1] = interior[-2] - 2.0 * h * p[0]
    return ext


def extend_values(grid: Grid, interior: np.ndarray, angle: AngleData) -> np.ndarray:
    """A new array of the interior values with the ghost layer (and pole
    mirror) attached by close_ghosts.

    Keeps a complex dtype, so the same code path serves the complex-step
    Jacobian.
    """
    ext = np.empty(grid.ext_shape, np.promote_types(interior.dtype, float))
    ext[1:-1] = interior
    return close_ghosts(grid, ext, angle)


def ghost_fill(grid: Grid, field: Field, angle: AngleData) -> Field:
    """Return a copy of the field with ghosts set by the contact-angle
    closure.  Idempotent: ghosts depend only on interior values."""
    interior = np.asarray(field.interior, dtype=float)
    if not np.isfinite(interior).all():
        raise ValueError("field has non-finite interior values")
    return Field(extend_values(grid, interior, angle), field.t)


class FluxTerms(NamedTuple):
    """The flux-form quantities of one ghost-closed field (see flux_terms)."""

    c: np.ndarray                 # centered radial slope at the nodes
    w_node: np.ndarray            # W at the nodes
    s_r: np.ndarray               # one-sided radial face slopes
    wf_r: np.ndarray              # their face factors W_f
    s_t: Optional[np.ndarray]     # disk: angular face slopes
    wf_t: Optional[np.ndarray]    # disk: their face factors W_t


def flux_terms(grid: Grid, ext: np.ndarray) -> FluxTerms:
    """Slopes and area elements of the flux form at ext: the centered radial
    slope c and W = sqrt(1 + c^2 + w^2) at the nodes, with w = u_theta /
    sigma the centered tangential slope on the disk; the one-sided radial
    face slopes with their factors W_f; and on the disk the angular face
    slopes with their factors W_t (None in 1-D).  The face fluxes are
    s / W_f; accepts complex input.  c and s_r share one array, as do W,
    W_f and W_t, so one square, one + 1 and one sqrt serve them all."""
    n = len(ext) - 2
    slopes = np.empty((2 * n + 1,) + ext.shape[1:], np.promote_types(ext.dtype, float))
    c, s_r = slopes[:n], slopes[n:]
    np.subtract(ext[2:], ext[:-2], out=c)
    np.subtract(ext[1:], ext[:-1], out=s_r)
    slopes /= grid.slope_steps
    if not grid.is_disk:
        roots = slopes * slopes
        roots += 1.0
        np.sqrt(roots, out=roots)
        return FluxTerms(c, roots[:n], s_r, roots[n:], None, None)
    roots = np.empty((3 * n + 1,) + ext.shape[1:], slopes.dtype)  # W, W_f and W_t
    np.multiply(slopes, slopes, out=roots[:2 * n + 1])
    w_node, wf_r, wf_t = roots[:n], roots[n:2 * n + 1], roots[2 * n + 1:]
    # w^2 on every extended row, pole mirror and ghost included, for the faces
    ahead = _roll(ext, -1)
    w2 = (ahead - _roll(ext, 1)) / (2.0 * grid.h_theta * grid.sigma_ext)
    w2 *= w2
    s_t = (ahead[1:-1] - ext[1:-1]) / grid.h_theta
    np.divide(s_t, grid.sigma_ext[1:-1], out=wf_t)
    wf_t *= wf_t
    # w_node holds c^2 until the + 1: the face's c^2 is its mean with the next ray's
    cbar2 = 0.5 * (w_node + _roll(w_node, -1))
    roots += 1.0
    w_node += w2[1:-1]
    wf_r += 0.5 * (w2[:-1] + w2[1:])
    wf_t += cbar2
    np.sqrt(roots, out=roots)
    return FluxTerms(c, w_node, s_r, wf_r, s_t, wf_t)


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
    flux = terms.s_r / terms.wf_r
    if terms.s_t is None:
        flux *= grid.sigma_faces
        return flux, flux[1:] - flux[:-1]
    flux *= grid.sigma_faces[:, None]
    net = flux[1:] - flux[:-1]
    net *= grid.h_theta
    q_t = terms.s_t / terms.wf_t
    q_t -= _roll(q_t, 1)
    q_t *= grid.h_r / grid.sigma_ext[1:-1]
    net += q_t
    return flux, net


def mcf_from_extended(grid: Grid, ext) -> np.ndarray:
    """W div(grad u / W) at the nodes of a ghost-closed array ext, or of
    its FluxTerms record."""
    terms = _terms(grid, ext)
    _, net = _flux_differences(grid, terms)
    net /= grid.cell_weights
    # W first: numpy's complex products are not bitwise commutative
    return np.multiply(terms.w_node, net, out=net)


def node_area_element(grid: Grid, ext: np.ndarray) -> np.ndarray:
    """W = sqrt(1 + |grad u|^2) at the real nodes of ext, or of its
    FluxTerms record."""
    return _terms(grid, ext).w_node


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


def flux_balance(grid: Grid, ext) -> Tuple[float, float, float]:
    """Exact-summation check of the discrete divergence identity at a
    ghost-closed array ext or its FluxTerms record.

    Returns (interior_sum, boundary_flux, gap) where interior_sum is
    sum_i sigma_i h div_i (times h_theta on the disk), boundary_flux the
    telescoped outermost-face flux, and gap their difference.  For any
    ghost-closed field the gap is pure roundoff.
    """
    flux, net = _flux_differences(grid, _terms(grid, ext))
    interior_sum = math.fsum(net.ravel().tolist())
    faces = flux[-1] - flux[0]  # outer minus inner face; the pole face has sigma = 0
    if grid.is_disk:
        bflux = math.fsum((faces * grid.h_theta).tolist())
    else:
        bflux = float(faces)
    return interior_sum, bflux, interior_sum - bflux


def discrete_speed(grid: Grid, ext) -> float:
    """Speed C_h of the discrete translator through a ghost-closed profile
    ext, or its FluxTerms record.

    If W div(grad u / W) = C at every node, then div_i = C / W_i, and the
    telescoping identity of flux_balance gives
    C * sum_i sigma_i h / W_i (times h_theta on the disk) = boundary_flux.
    C_h is that ratio: the speed the discrete flow attains, as opposed to
    the flux-balance quadrature C_quad, which is only O(h^2)-close.
    """
    terms = _terms(grid, ext)
    _, bflux, _ = flux_balance(grid, terms)
    mass = math.fsum((grid.cell_weights / terms.w_node).ravel().tolist())
    return bflux / mass


# -- nonlinear residual and its exact Jacobian --------------------------------


def capillary_residual(grid: Grid, interior: np.ndarray, angle: AngleData,
                       eps: float) -> np.ndarray:
    """R(u) = W div(grad u / W) - eps*u with the contact-angle ghost
    closure.  Accepts complex input (used by the Jacobian)."""
    ext = extend_values(grid, interior, angle)
    return mcf_from_extended(grid, ext) - eps * interior


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


@functools.cache
def _jacobian_pattern(shape: tuple):
    """The Jacobian's pattern on a grid of this shape, the exact stencil of
    the module docstring, and its probe groups: (indices, indptr, groups).
    Columns are grouped first-fit in column order, each joining the first
    group with which it shares no row; a group is (its columns, their data
    positions)."""
    n = math.prod(shape)
    k = np.arange(n).reshape(shape)
    if len(shape) == 2:
        nt = shape[1]
        ray = lambda dj: _roll(k, -dj)  # the node dj rays further on
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
    return indices, indptr, groups


def capillary_jacobian(grid: Grid, interior: np.ndarray, angle: AngleData,
                       eps: float) -> sp.csc_matrix:
    """Exact Jacobian of capillary_residual at the given state, in CSC on
    the cached pattern of the grid's shape: complex-step differentiation,
    one residual evaluation per probe group of _jacobian_pattern."""
    n = grid.n_unknowns
    indices, indptr, groups = _jacobian_pattern(grid.shape)
    base = np.asarray(interior, dtype=complex).ravel()
    data = np.empty(len(indices))
    for cols, fill in groups:
        u = base.copy()
        u[cols] += 1j * _CSTEP
        out = capillary_residual(grid, u.reshape(grid.shape), angle, eps).ravel().imag / _CSTEP
        data[fill] = out[indices[fill]]
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))


# -- lagged-coefficient linear operator for semi-implicit stepping ------------


@functools.cache
def _lagged_pattern(shape: tuple):
    """The lagged matrix's pattern on a grid of this shape: (indices, indptr,
    gather, diag), read-only and canonical.  The slot values, stacked per
    node as semi_implicit_matrix stacks them, (below, [right,] diag,
    [left,] above), give the data vector as stack.ravel()[gather]; diag
    are the diagonal's positions in it."""
    n = math.prod(shape)
    nt = shape[1] if len(shape) == 2 else 1
    k = np.arange(n).reshape(shape)
    # CSC column k holds the rows coupling to node k: the node below through
    # its weight up, the node above through its weight down, and on the
    # disk the neighbouring rays
    if len(shape) == 2:
        slot_rows = [k - nt, _roll(k, 1), k, _roll(k, -1), k + nt]
    else:
        slot_rows = [k - nt, k, k + nt]
    cols = np.repeat(np.arange(n), len(slot_rows))
    # _csc_pattern drops the pole-face rows and the rows past the boundary
    indices, indptr, gather = _csc_pattern(n, np.stack(slot_rows, axis=-1), cols)
    diag = np.flatnonzero(indices == cols[gather])
    diag.flags.writeable = False
    return indices, indptr, gather, diag


def semi_implicit_matrix(grid: Grid, ext0, angle: AngleData,
                         dt: float) -> sp.csc_matrix:
    """I - dt*M with M the flux form with W factors frozen at ext0, a
    ghost-closed array or its FluxTerms record.  Used in increment form:
    (I - dt M) du = dt F(u_old).

    Node i couples to its radial neighbours with weight
    W_i sigma_f / (sigma_i h^2 W_f) through each face f, and on the disk to
    the neighbouring rays with weight W_i / (sigma_i^2 h_theta^2 W_t); the
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
    ordering, which is how flow.step factors it.  The data fill the cached
    pattern of the grid's shape, _lagged_pattern.
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
        angular = terms.w_node / (sn * grid.h_theta) ** 2
        right = angular / terms.wf_t           # to ray j+1
        left = angular / _roll(terms.wf_t, 1)  # to ray j-1
        diag -= right + left
        slots = (below, _roll(right, 1), diag, _roll(left, -1), above)
    else:
        slots = (below, diag, above)
    indices, indptr, gather, diag_at = _lagged_pattern(grid.shape)
    data = np.stack(slots, axis=-1).ravel()[gather]
    data *= -dt
    data[diag_at] += 1.0
    n = grid.n_unknowns
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))

