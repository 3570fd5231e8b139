"""Structured grids, discrete scalar fields, and contact-angle data.

Grid layouts
------------
interval
    Vertex-centered nodes x_i = a + i*h, i = 0..N, with both endpoints on
    the boundary and one ghost node beyond each end.
radial_ball / polar_disk (radial direction)
    Staggered nodes r_i = (i + 1/2)*h with h = R/(N - 1/2), so the first
    node sits at h/2 (no node at the pole) and the last node lies exactly
    on the boundary r = R.  Cell faces fall on i*h; the innermost face is
    the pole, where sigma(0) = 0 removes the flux.  One ghost node at
    R + h, plus a mirror slot across the pole.
polar_disk (angular direction)
    Periodic nodes theta_j = j*h_theta, h_theta = 2*pi/N_theta, N_theta
    even (the pole mirror pairs antipodal rays).

Fields store one ghost layer: 1D values have shape (M+2,), disk values
(M+2, N_theta), with row 0 the pole mirror and row -1 the outer ghost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .geometry import Geometry

__all__ = ["Grid", "Field", "AngleData", "make_grid", "make_field", "angle_values",
           "angle_from_spec"]


@dataclass(frozen=True)
class Grid:
    geom: Geometry
    n_r: int
    h_r: float
    nodes: np.ndarray            # coordinates of real nodes (x or r)
    sigma_nodes: np.ndarray      # sigma at real nodes
    sigma_faces: np.ndarray      # sigma at faces (0 at the pole face)
    quad_masses: np.ndarray      # clipped-cell midpoint masses for quadrature
    n_theta: int = 0
    h_theta: float = 0.0
    theta: Optional[np.ndarray] = None

    @property
    def is_disk(self) -> bool:
        return self.geom.kind == "polar_disk"

    @property
    def shape(self):
        return (self.n_nodes, self.n_theta) if self.is_disk else (self.n_nodes,)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_unknowns(self) -> int:
        return self.n_nodes * (self.n_theta if self.is_disk else 1)

    @property
    def ext_shape(self):
        if self.is_disk:
            return (self.n_nodes + 2, self.n_theta)
        return (self.n_nodes + 2,)

    @property
    def op_weights(self) -> np.ndarray:
        """sigma_i * h_r: control weights of the flux form."""
        return self.sigma_nodes * self.h_r

    @cached_property
    def distance_terms(self):
        """Smoothed boundary distance d and its coordinate derivative at the
        real nodes, shaped to broadcast on the interior, and the bound C_d
        on |Hess d|; computed once per grid."""
        d, hess_d = self.geom.smoothed_distance(self.nodes)
        dd = self.geom.smoothed_distance_gradient(self.nodes)
        shape = (-1, 1) if self.is_disk else (-1,)
        return np.reshape(d, shape), np.reshape(dd, shape), hess_d

    @cached_property
    def monitor_base(self) -> np.ndarray:
        """S d + 1 with the gradient monitor's default S = C_d + 2, shaped
        like d in distance_terms; computed once per grid."""
        d, _, hess_d = self.distance_terms
        return (hess_d + 2.0) * d + 1.0

    @cached_property
    def quad_row(self) -> np.ndarray:
        """Quadrature weights of the volume integral, shaped like the field:
        the clipped-cell masses, times |S^{n-1}| on a ball and h_theta on
        each ray of the disk; computed once per grid."""
        if self.is_disk:
            return np.outer(self.quad_masses, np.full(self.n_theta, self.h_theta))
        if self.geom.kind == "radial_ball":
            return self.quad_masses * self.geom.sphere_area
        return self.quad_masses

    @cached_property
    def quad_total(self) -> float:
        """The domain's volume, the sum of quad_row; computed once per grid."""
        return float(self.quad_row.sum())

    @cached_property
    def cell_weights(self) -> np.ndarray:
        """Cell measures of the flux form, shaped like the field: sigma_i h_r,
        times h_theta on the disk."""
        return self.op_weights[:, None] * self.h_theta if self.is_disk else self.op_weights

    @cached_property
    def lagged_pattern(self):
        """CSC pattern of the semi-implicit step's lagged matrix
        (operators.semi_implicit_matrix): (indices, indptr, gather, diag),
        read-only and in canonical order (rows sorted within each column).
        The slot values, stacked per node in the order below, [right,] diag,
        [left,] above, give the data vector as stack.ravel()[gather]; diag
        are the diagonal's positions in it.  Computed once per grid."""
        n = self.n_unknowns
        nt = self.n_theta if self.is_disk else 1
        k = np.arange(n).reshape(self.shape)
        # CSC column k holds the rows coupling to node k: the node below through
        # its weight up, the node above through its weight down, and on the
        # disk the neighbouring rays
        if self.is_disk:
            slot_rows = [k - nt, np.roll(k, 1, axis=1), k, np.roll(k, -1, axis=1), k + nt]
        else:
            slot_rows = [k - nt, k, k + nt]
        cols = np.repeat(np.arange(n), len(slot_rows))
        # _csc_pattern drops the pole-face rows and the rows past the boundary
        indices, indptr, gather = _csc_pattern(n, np.stack(slot_rows, axis=-1), cols)
        diag = np.flatnonzero(indices == cols[gather])
        diag.flags.writeable = False
        return indices, indptr, gather, diag


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


def make_grid(geom: Geometry, n_r: int, n_theta: Optional[int] = None) -> Grid:
    """Build the structured grid for a geometry at resolution n_r
    (cells for intervals, nodes for radial grids) and n_theta rays for
    the polar disk."""
    if n_r < 8:
        raise ValueError("grid resolution N_r must be at least 8")

    n_t, h_theta, theta = 0, 0.0, None
    if geom.kind == "interval":
        h = (geom.b - geom.a) / n_r
        nodes = geom.a + h * np.arange(n_r + 1)
        nodes[-1] = geom.b
        sigma_nodes, sigma_faces = np.ones_like(nodes), np.ones(n_r + 2)
        masses = np.full(n_r + 1, h)
        masses[0] = masses[-1] = 0.5 * h
    else:
        # staggered radial layout shared by balls and the disk
        h = geom.R / (n_r - 0.5)
        nodes = (np.arange(n_r) + 0.5) * h
        nodes[-1] = geom.R
        faces = np.concatenate((h * np.arange(n_r), [geom.R + 0.5 * h]))
        sigma_nodes = np.asarray(geom.volume_weight(nodes))
        sigma_faces = np.asarray(geom.volume_weight(faces))
        sigma_faces[0] = 0.0  # pole face, exactly
        # clipped-cell midpoint masses: full cells [ih, (i+1)h], boundary half
        # cell [R - h/2, R] with sigma taken at the half-cell midpoint
        mids = nodes.copy()
        widths = np.full(n_r, h)
        mids[-1] = geom.R - 0.25 * h
        widths[-1] = 0.5 * h
        masses = np.asarray(geom.volume_weight(mids)) * widths
        if geom.kind == "polar_disk":
            n_t = 64 if n_theta is None else n_theta
            if n_t < 8 or n_t % 2:
                raise ValueError("polar_disk needs an even N_theta >= 8")
            h_theta = 2.0 * math.pi / n_t
            theta = h_theta * np.arange(n_t)
    return Grid(geom=geom, n_r=n_r, h_r=h, nodes=nodes, sigma_nodes=sigma_nodes,
                sigma_faces=sigma_faces, quad_masses=masses,
                n_theta=n_t, h_theta=h_theta, theta=theta)


@dataclass
class Field:
    """A scalar field on a grid, ghost layer included.

    ``values`` holds the extended array (first and last slots along the
    radial axis are ghosts / the pole mirror); ``interior`` views the real
    nodes.  ``t`` tags the field with its flow time.
    """

    values: np.ndarray
    t: float = 0.0

    @property
    def interior(self) -> np.ndarray:
        return self.values[1:-1]

    def copy(self) -> "Field":
        return Field(self.values.copy(), self.t)


def make_field(grid: Grid, data: Union[float, np.ndarray, Callable, None] = 0.0,
               t: float = 0.0) -> Field:
    """Allocate a field; ghosts start as NaN until closed by ghost_fill."""
    values = np.full(grid.ext_shape, np.nan)
    if data is None:
        data = 0.0
    if callable(data):
        if grid.is_disk:
            rr = grid.nodes[:, None]
            tt = grid.theta[None, :]
            values[1:-1] = data(rr, tt)
        else:
            values[1:-1] = data(grid.nodes)
    else:
        values[1:-1] = data
    return Field(values, t)


def _slope_closed_form(phi, tangential_sq):
    """p = phi * sqrt((1 + T) / (1 - phi^2)), the solution of
    p = phi * sqrt(1 + p^2 + T) for |phi| < 1; no guard on phi."""
    return phi * np.sqrt((1.0 + tangential_sq) / (1.0 - phi * phi))


@dataclass(frozen=True)
class AngleData:
    """Contact-angle datum phi on the boundary, |phi| <= phi0 < 1.

    ``phi`` holds (phi_a, phi_b) for intervals, a scalar array (1,) for
    radial balls, and per-ray values (N_theta,) for the disk.
    """

    phi: np.ndarray
    phi0: float
    _tilts: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.phi)):
            raise ValueError("contact angle must be finite")
        if not self.phi0 < 1.0 or np.any(np.abs(self.phi) >= 1.0):
            raise ValueError("contact angle magnitude must be strictly below 1")

    @cached_property
    def normal_slope(self) -> np.ndarray:
        """phi / sqrt(1 - phi^2) per entry of phi: the normal slope of the
        ghost closure where the tangential slope is zero, as on the 1-D
        grids; read-only and computed once."""
        p = _slope_closed_form(self.phi, 0.0)
        p.flags.writeable = False
        return p

    def extension(self, grid: Grid) -> np.ndarray:
        """phi extended to the interior nodes, constant along normal rays."""
        if grid.geom.kind == "interval":
            mid = 0.5 * (grid.geom.a + grid.geom.b)
            return np.where(grid.nodes < mid, self.phi[0], self.phi[1])
        if grid.is_disk:
            return np.broadcast_to(self.phi, (grid.n_nodes, grid.n_theta))
        return np.full(grid.n_nodes, self.phi[0])

    def monitor_tilt(self, grid: Grid) -> np.ndarray:
        """The extension times the coordinate derivative of the smoothed
        distance (Grid.distance_terms), so that the gradient monitor's
        phi <grad u, grad d> is monitor_tilt * c for the centered radial
        slope c; read-only and computed once per grid."""
        grid_of, tilt = self._tilts.get(id(grid), (None, None))
        if grid_of is not grid:
            tilt = self.extension(grid) * grid.distance_terms[1]
            tilt.flags.writeable = False
            self._tilts[id(grid)] = (grid, tilt)  # holding grid keeps its id unique
        return tilt


def angle_values(spec: str, theta: Optional[np.ndarray] = None) -> np.ndarray:
    """Evaluate an angle spec string, ``const:<v>`` or ``fourier:<a0,a1,b1,...>``
    (a0 + sum_k a_k cos(k theta) + b_k sin(k theta)), at the angles theta.
    Without theta (1-D grids) only constants are allowed, giving shape (1,).
    Raises ValueError on a malformed spec or a non-finite value."""
    if not isinstance(spec, str):
        raise ValueError(f"angle spec must look like 'const:<v>' or 'fourier:<coeffs>', got {spec!r}")
    head, _, body = spec.partition(":")
    if head not in ("const", "fourier"):
        raise ValueError(f"unknown spec kind {head!r}")
    if head == "fourier" and theta is None:
        raise ValueError("fourier angle data requires a polar_disk geometry")
    try:
        parts = [body] if head == "const" else [c for c in body.split(",") if c.strip()]
        coeffs = [float(c) for c in parts]
    except ValueError:
        what = "constant" if head == "const" else "fourier coefficients"
        raise ValueError(f"bad {what} {body!r}") from None
    if not coeffs:
        raise ValueError("fourier spec needs at least a0")
    phi = np.full(1 if theta is None else len(theta), coeffs[0])
    pairs = coeffs[1:]
    for k in range(0, len(pairs), 2):
        mode = k // 2 + 1
        phi += pairs[k] * np.cos(mode * theta)
        if k + 1 < len(pairs):
            phi += pairs[k + 1] * np.sin(mode * theta)
    if not np.all(np.isfinite(phi)):
        raise ValueError("contact angle must be finite")
    return phi


def angle_from_spec(grid: Grid, spec: str) -> AngleData:
    """AngleData of an angle spec (see angle_values) on the grid: per-ray
    values on the disk, (phi_a, phi_b) on the interval, one value on a
    ball.  AngleData rejects |phi| >= 1."""
    phi = angle_values(spec, grid.theta)
    if grid.geom.kind == "interval":
        phi = np.repeat(phi, 2)
    return AngleData(phi=phi, phi0=float(np.max(np.abs(phi))))
