"""Lagrange finite element spaces on a (possibly curved) mesh.

Spaces are scalar; vector fields store the two components interleaved,
so the vector coefficient of scalar DOF i occupies entries 2i, 2i+1.
The velocity space of degree k on a degree-k mesh reuses the mesh nodes
as DOFs, which makes mesh nodes and velocity DOFs interchangeable.

The flow spaces are the Taylor-Hood pairs of degree k = 2, 3.  Their
pressure space is always subdomain-discontinuous: DOFs sitting on the
interface are duplicated, one copy per phase, so pressure may jump
across the interface while staying continuous inside each subdomain.
Scalar spaces come in either continuity and in degree 1 as well, but
no other flow pair exists.

`evaluate_many` locates points with the locator of the space's mesh
(`Mesh.locator`), which the spaces of one mesh share; `PointLocator` and
`PointLocationError` are defined in `mesh` and importable from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .mesh import (MINUS, PLUS, Mesh, PointLocationError, PointLocator,
                   first_appearance)
from .reference import lattice_nodes, reference_element

if TYPE_CHECKING:
    from .assembly import DofMaps

GLOBAL = "global"
SUBDOMAIN = "subdomain-discontinuous"


class NewtonError(Exception):
    def __init__(self, element: int):
        super().__init__(f"reference-coordinate Newton did not converge "
                         f"in element {element}")
        self.element = element


@dataclass(frozen=True, eq=False)
class ScalarSpace:
    """Scalar Lagrange space of the given degree on a mesh.

    dof_of     (E, n_loc) global DOF per element and local node
    dof_phase  (n_dofs,) phase of the owning subdomain; 0 when shared by
               both phases (only possible for globally continuous spaces)
    """

    mesh: Mesh
    degree: int
    continuity: str
    dof_of: np.ndarray
    n_dofs: int
    dof_phase: np.ndarray

    def __post_init__(self):
        self.dof_of.setflags(write=False)
        self.dof_phase.setflags(write=False)

    @cached_property
    def positions(self) -> np.ndarray:
        """(n_dofs, 2) physical DOF positions, read-only.  They are
        computed on first read: a step between remeshes reads none, and
        a remesh reads only those of the new spaces."""
        if self.degree == self.mesh.degree and self.continuity == GLOBAL:
            return self.mesh.coords
        positions = dof_positions(self.mesh, self.degree, self.dof_of,
                                  self.n_dofs)
        positions.setflags(write=False)
        return positions

    @property
    def n_local(self) -> int:
        return self.dof_of.shape[1]

    def basis_values(self, ref_pts) -> np.ndarray:
        """Local basis at reference points; (n_local, n_pts)."""
        return reference_element(self.degree).shape_values(ref_pts)

    def basis_gradients(self, ref_pts) -> np.ndarray:
        """Local reference gradients; (n_local, n_pts, 2)."""
        return reference_element(self.degree).shape_gradients(ref_pts)


@dataclass(frozen=True, eq=False)
class FESpacePair:
    """Velocity/pressure pair with the velocity ring DOF sets.

    interface_dofs / boundary_dofs are scalar velocity DOF ids; the
    complement of their union is the zero-trace test space used for the
    harmonic mesh motion.  maps are the index maps of the pair's DOF
    numbering (`assembly.DofMaps`), shared by every pair of that
    numbering.
    """

    velocity: ScalarSpace
    pressure: ScalarSpace
    interface_dofs: np.ndarray
    boundary_dofs: np.ndarray
    maps: DofMaps

    def __post_init__(self):
        self.interface_dofs.setflags(write=False)
        self.boundary_dofs.setflags(write=False)

    @property
    def mesh(self) -> Mesh:
        return self.velocity.mesh

    def vector_dofs(self, scalar_ids: np.ndarray) -> np.ndarray:
        """Interleaved vector DOF ids of the given scalar DOF ids."""
        return np.column_stack([2 * scalar_ids, 2 * scalar_ids + 1]).ravel()


def build_scalar_space(mesh: Mesh, degree: int,
                       continuity: str = GLOBAL) -> ScalarSpace:
    if continuity not in (GLOBAL, SUBDOMAIN):
        raise ValueError(f"unknown continuity {continuity!r}")

    if degree == mesh.degree and continuity == GLOBAL:
        dof_of, n_dofs = mesh.elements, mesh.n_nodes
    else:
        dof_of, n_dofs = _number_dofs(mesh, degree, continuity == SUBDOMAIN)
    return ScalarSpace(mesh, degree, continuity, dof_of, n_dofs,
                       _phase_of_dofs(mesh, dof_of, n_dofs))


def _number_dofs(mesh: Mesh, degree: int, duplicated: bool):
    """DOF table and count of a degree-`degree` space.

    DOF keys are vertices, (edge id, j) for the degree-1 nodes inside each
    edge, and (element, j) for interior nodes; a duplicated space tags
    the keys on the interface with the phase of the element.  Keys are
    numbered by first appearance, element by element, vertices first,
    then edge nodes counted from the lower vertex id, then interior
    nodes; an edge's nodes are stored reversed where it runs from the
    higher vertex id to the lower.
    """
    tri = mesh.elements[:, :3]
    E = mesh.n_elements
    n_edge = degree - 1
    n_loc = (degree + 1) * (degree + 2) // 2
    n_int = n_loc - 3 - 3 * n_edge
    edge_of, ends, _ = mesh.edge_table()

    # phase tag + 1 of each key: 0 or 2 on the duplicated interface, else 1
    vertex_tag = edge_tag = np.ones((E, 3), dtype=np.int64)
    if duplicated and len(mesh.interface_edges):
        side = mesh.phase[:, None].astype(np.int64) + 1
        iface = edge_of[tuple(mesh.interface_edges.T)]
        vertex_tag = np.where(np.isin(tri, ends[iface]), side, 1)
        edge_tag = np.where(np.isin(edge_of, iface), side, 1)

    # key rows (kind, id, tag, j), in the order the slots are met
    keys = np.zeros((E, n_loc, 4), dtype=np.int64)
    keys[:, :3, 1] = tri
    keys[:, :3, 2] = vertex_tag
    edge_keys = keys[:, 3:3 + 3 * n_edge].reshape(E, 3, n_edge, 4)
    edge_keys[..., 0] = 1
    edge_keys[..., 1] = edge_of[..., None]
    edge_keys[..., 2] = edge_tag[..., None]
    edge_keys[..., 3] = np.arange(n_edge)
    keys[:, n_loc - n_int:, 0] = 2
    keys[:, n_loc - n_int:, 1] = np.arange(E)[:, None]
    keys[:, n_loc - n_int:, 3] = np.arange(n_int)
    ids, first = first_appearance(keys.reshape(-1, 4))

    dof_of = ids.reshape(E, n_loc)
    edge_ids = dof_of[:, 3:3 + 3 * n_edge].reshape(E, 3, n_edge)
    backward = (tri > tri[:, [1, 2, 0]])[..., None]
    edge_ids[:] = np.where(backward, edge_ids[..., ::-1], edge_ids)
    return dof_of, len(first)


def dof_positions(mesh: Mesh, degree: int, dof_of: np.ndarray,
                  n_dofs: int) -> np.ndarray:
    """Physical DOF positions of a degree-`degree` space with the given
    DOF table: the images of the reference lattice under each element's
    geometry map."""
    geom_vals = reference_element(mesh.degree).shape_values(
        lattice_nodes(degree))                          # (n_geom, n_lat)
    xs = mesh.coords[mesh.elements]                     # (E, n_geom, 2)
    pos = np.einsum("gl,egi->eli", geom_vals, xs)       # (E, n_lat, 2)
    positions = np.zeros((n_dofs, 2))
    positions[dof_of.ravel()] = pos.reshape(-1, 2)
    return positions


def _phase_of_dofs(mesh, dof_of, n_dofs):
    phase = np.zeros(n_dofs, dtype=np.int8)
    seen_plus = np.zeros(n_dofs, dtype=bool)
    seen_minus = np.zeros(n_dofs, dtype=bool)
    plus_rows = mesh.phase == PLUS
    seen_plus[np.unique(dof_of[plus_rows])] = True
    seen_minus[np.unique(dof_of[~plus_rows])] = True
    phase[seen_plus & ~seen_minus] = PLUS
    phase[seen_minus & ~seen_plus] = MINUS
    return phase


def build_taylor_hood(mesh: Mesh, k: int) -> FESpacePair:
    """Taylor-Hood pair of degree k = 2 or 3: the continuous degree-k
    velocity with the subdomain-discontinuous degree-(k-1) pressure."""
    if k not in (2, 3):
        raise ValueError(f"unsupported degree k={k}; Taylor-Hood needs "
                         f"k = 2 or 3")
    if mesh.degree != k:
        raise ValueError(f"mesh degree {mesh.degree} does not match k={k}")
    # imported here: assembly imports this module
    from .assembly import DofMaps

    velocity = build_scalar_space(mesh, k, GLOBAL)
    pressure = build_scalar_space(mesh, k - 1, SUBDOMAIN)
    interface_dofs = mesh.interface_node_ids()
    boundary_dofs = mesh.boundary_node_ids()
    return FESpacePair(velocity, pressure, interface_dofs, boundary_dofs,
                       DofMaps(velocity, pressure, interface_dofs,
                               boundary_dofs))


# ---------------------------------------------------------------------------
# interpolation and evaluation


def interpolate(space: ScalarSpace, f, vector: bool = False) -> np.ndarray:
    """Nodal interpolation of f onto the space.

    f maps (x, y) -> value (scalar, or length-2 for vector=True); a pair
    (f_plus, f_minus) supplies per-phase values for two-valued functions
    on the interface.
    """
    if isinstance(f, tuple):
        f_plus, f_minus = f
    else:
        f_plus = f_minus = f
    pos = space.positions
    width = 2 if vector else 1
    out = np.zeros((space.n_dofs, width))
    minus = space.dof_phase == MINUS
    for rows, fn in (((~minus), f_plus), (minus, f_minus)):
        if rows.any():
            vals = np.asarray([fn(x, y) for x, y in pos[rows]], dtype=float)
            out[rows] = vals.reshape(-1, width)
    return out.ravel() if vector else out[:, 0]


def evaluate_many(space: ScalarSpace, coeffs: np.ndarray, pts,
                  phase=None, vector: bool = False) -> np.ndarray:
    """Evaluate a FE function at many physical points.

    phase picks the branch for subdomain-discontinuous spaces (and
    allows slight polynomial extension past the interface when a point
    falls just inside the other phase's elements).
    """
    elems, ref = space.mesh.locator().locate(pts, phase=phase)
    return evaluate_at(space, coeffs, elems, ref, vector=vector)


def evaluate_at(space: ScalarSpace, coeffs: np.ndarray, elems, ref,
                vector: bool = False) -> np.ndarray:
    """Evaluate at per-point (element, reference coordinate) pairs."""
    vals = space.basis_values(ref.T if ref.ndim == 1 else ref)  # (n_loc, P)
    dofs = space.dof_of[elems]                                  # (P, n_loc)
    if vector:
        cf = coeffs.reshape(-1, 2)
        return np.einsum("lp,pli->pi", vals, cf[dofs])
    return np.einsum("lp,pl->p", vals, coeffs[dofs])
