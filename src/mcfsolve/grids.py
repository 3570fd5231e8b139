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
from dataclasses import dataclass
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

    @cached_property
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
    def sigma_ext(self) -> np.ndarray:
        """sigma at the pole-mirror, node and ghost rows as a column, computed once."""
        ghost = self.geom.volume_weight(self.geom.R + self.h_r)
        return np.concatenate(([self.sigma_nodes[0]], self.sigma_nodes, [ghost]))[:, None]

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
    def slope_steps(self) -> np.ndarray:
        """2 h_r for each node's centered slope, then h_r for each face's (flux_terms)."""
        steps = np.full(2 * self.n_nodes + 1, self.h_r)
        steps[:self.n_nodes] = 2.0 * self.h_r
        return steps[:, None] if self.is_disk else steps

    @cached_property
    def slopes_shape(self) -> tuple:
        """The shape of flux_terms' stacked slopes: a row per slope_steps entry."""
        return (2 * self.n_nodes + 1,) + self.shape[1:]


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

    def __post_init__(self):
        if not np.all(np.isfinite(self.phi)):
            raise ValueError("contact angle must be finite")
        if np.any(np.abs(self.phi) >= 1.0):
            raise ValueError("contact angle magnitude must be strictly below 1")

    @property
    def phi0(self) -> float:
        """max |phi|, the angle bound of the existence conditions."""
        return float(np.max(np.abs(self.phi)))

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
    return AngleData(phi=phi)
