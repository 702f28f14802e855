"""ALE machinery: harmonic mesh velocity, mesh motion, remeshing.

The mesh velocity equals the fluid velocity on the interface (bitwise,
by construction) and vanishes on the outer boundary; in the bulk it is
the discrete harmonic extension of those boundary values, solved
componentwise.  Remeshing keeps the interface nodes verbatim, so the
interface curve itself is never perturbed, and transfers fields by point
evaluation on the old mesh.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse.linalg import splu

from . import mesh as meshmod
from .assembly import gather, index_maps, scalar_laplacian
from .fespace import (
    GLOBAL,
    FESpacePair,
    ScalarSpace,
    build_taylor_hood,
    dof_positions,
    evaluate_many,
)
from .mesh import Mesh, MeshGenerationError, interface_cycle, quality
from .reference import edge_element, edge_local_nodes


class RemeshError(Exception):
    def __init__(self, message: str, ring: np.ndarray):
        super().__init__(
            f"{message}; interface polyline has {len(ring)} vertices, "
            f"bbox x [{ring[:, 0].min():.4f}, {ring[:, 0].max():.4f}] "
            f"y [{ring[:, 1].min():.4f}, {ring[:, 1].max():.4f}]"
        )
        self.ring = ring


def harmonic_extension(mesh: Mesh, spaces: FESpacePair,
                       u: np.ndarray) -> np.ndarray:
    """Discrete harmonic mesh velocity matching u on the interface.

    Interface DOFs of the result equal those of u bitwise, boundary DOFs
    are exactly zero, and interior DOFs minimize the Dirichlet energy of
    each subdomain (one global solve; the fixed interface row decouples
    the subdomains).

    The interior block is factored in SuperLU's MMD column order, which
    depends on its sparsity pattern alone.  That order is computed once
    per DOF numbering and cached with the numbering's index maps; the
    later calls factor the block, its columns permuted into that order,
    with the NATURAL ordering and no ordering work of their own.
    """
    V = spaces.velocity
    L = scalar_laplacian(mesh, V)
    fixed = np.zeros(V.n_dofs, dtype=bool)
    fixed[spaces.interface_dofs] = True
    fixed[spaces.boundary_dofs] = True
    free = ~fixed

    w = np.zeros((V.n_dofs, 2))
    uv = u.reshape(-1, 2)
    w[spaces.interface_dofs] = uv[spaces.interface_dofs]
    w[spaces.boundary_dofs] = 0.0

    # w vanishes on the free DOFs, whose columns therefore add only +-0:
    # this equals -L[free][:, fixed] @ w[fixed] bitwise, up to signs of 0
    rhs = -(L @ w)[free]
    key = (spaces.interface_dofs, spaces.boundary_dofs)
    ordering = []                       # the MMD factor, on a new numbering

    def mmd_order():
        lu = splu(L[free][:, free].tocsc(), permc_spec="MMD_AT_PLUS_A")
        ordering.append(lu)
        return _inverse_order(lu.perm_c)

    order = index_maps(V).keyed("interior_order", key + (L.indices,),
                                mmd_order)
    # gathered on every call, so that only the first of a numbering slices
    Lff = gather(V, "interior", key + (order,),
                 lambda L: L[free][:, free][:, order].tocsc(), L)
    del L
    if ordering:
        # the factor that gave the order solves this call: it has the L,
        # U and row pivots of Lff's NATURAL factor (see _inverse_order)
        solve = ordering.pop().solve
    else:
        lu = splu(Lff, permc_spec="NATURAL")
        x = np.empty(len(order))

        def solve(b):
            x[order] = lu.solve(b)
            return x
    for c in range(2):
        w[free, c] = solve(rhs[:, c])
    return w.ravel()


def _inverse_order(perm_c: np.ndarray) -> np.ndarray:
    """The inverse of the column permutation perm_c of SuperLU's MMD
    factor of a matrix A, as a read-only array order.

    perm_c is the MMD order on A^T + A followed by the postorder of the
    column elimination tree, and both depend on the sparsity pattern
    alone.  Factored with the NATURAL ordering, A[:, order] has the same
    L, U and row pivots as A under MMD, and its solution y is x[order].
    perm_c itself in place of its inverse gives far more fill.
    """
    order = np.empty_like(perm_c)
    order[perm_c] = np.arange(len(order), dtype=order.dtype)
    order.setflags(write=False)
    return order


def advance_mesh(x: np.ndarray, w: np.ndarray, tau: float) -> np.ndarray:
    """Forward-Euler node update x + tau * w."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if len(w) != len(x):
        raise ValueError(f"mesh velocity has {len(w)} entries, the mesh "
                         f"has {len(x)} coordinates")
    return x + tau * w


def move_mesh(mesh: Mesh, x_new: np.ndarray) -> Mesh:
    """Mesh with the same connectivity at new node positions."""
    return meshmod.displace(mesh, x_new - mesh.x)


def spaces_with_mesh(spaces: FESpacePair, mesh: Mesh) -> FESpacePair:
    """Rebind spaces to a mesh with identical connectivity (moved nodes)."""
    def rebind(s: ScalarSpace) -> ScalarSpace:
        if s.degree == mesh.degree and s.continuity == GLOBAL:
            positions = mesh.coords
        else:
            positions = dof_positions(mesh, s.degree, s.dof_of, s.n_dofs)
        return ScalarSpace(mesh, s.degree, s.continuity, s.dof_of, s.n_dofs,
                           positions, s.dof_phase)

    return FESpacePair(rebind(spaces.velocity), rebind(spaces.pressure),
                       spaces.interface_dofs, spaces.boundary_dofs)


def check_and_remesh(mesh: Mesh, spaces: FESpacePair, fields: dict,
                     rect, h: float,
                     angle_threshold: float = math.pi / 18.0):
    """Regenerate the mesh if its minimum angle dropped below the threshold.

    fields maps names to ("velocity" | "pressure", coefficients); the
    returned dict holds the coefficients transferred to the new mesh by
    point evaluation (phase-aware for pressure).  Returns
    (mesh, spaces, fields, did_remesh, min_angle), min_angle being that of
    the returned mesh.
    """
    q = quality(mesh)
    if q.min_angle > angle_threshold:
        return mesh, spaces, fields, False, q.min_angle

    verts, edges = interface_cycle(mesh)
    ring = mesh.coords[verts]
    k = mesh.degree
    segment_curve = _old_edge_curve(mesh, verts, edges)
    try:
        new_mesh = meshmod.fit_interface_mesh(
            rect, ring, h, k,
            segment_curve=segment_curve, min_angle=angle_threshold)
    except MeshGenerationError as err:
        raise RemeshError(f"remeshing failed to beat the angle threshold "
                          f"({err})", ring) from err

    new_spaces = build_taylor_hood(new_mesh, k)
    out = {}
    for name, (kind, coeffs) in fields.items():
        if kind == "velocity":
            out[name] = (kind, transfer_velocity(spaces, new_spaces, coeffs))
        elif kind == "pressure":
            out[name] = (kind, transfer_pressure(spaces, new_spaces, coeffs))
        else:
            raise ValueError(f"unknown field kind {kind!r}")
    return new_mesh, new_spaces, out, True, quality(new_mesh).min_angle


def _old_edge_curve(mesh: Mesh, verts: np.ndarray, edges):
    """Parametrize each interface segment by the old curved edge geometry."""
    k = mesh.degree
    edge = edge_element(k)
    n = len(verts)

    def curve(i0, i1, s):
        if (i0 + 1) % n == i1:
            e, le = edges[i0]
            forward = True
        elif (i1 + 1) % n == i0:
            e, le = edges[i1]
            forward = False
        else:
            raise ValueError(f"({i0}, {i1}) is not a ring segment")
        ids = mesh.elements[e, edge_local_nodes(k, le)]
        pos = mesh.coords[ids]                          # ordered along the edge
        a = int(verts[i0 if forward else i1])
        if ids[0] != a:
            pos = pos[::-1]
        s = np.asarray(s, dtype=float)
        if not forward:
            s = 1.0 - s
        return edge.shape_values(s).T @ pos

    return curve


def transfer_velocity(old: FESpacePair, new: FESpacePair,
                      coeffs: np.ndarray) -> np.ndarray:
    """Nodal transfer of a continuous velocity-space vector field."""
    V = new.velocity
    vals = evaluate_many(old.velocity, coeffs, V.positions,
                         phase=V.dof_phase, vector=True)
    return vals.ravel()


def transfer_pressure(old: FESpacePair, new: FESpacePair,
                      coeffs: np.ndarray) -> np.ndarray:
    """Phase-aware nodal transfer of a pressure field."""
    P = new.pressure
    vals = evaluate_many(old.pressure, coeffs, P.positions,
                         phase=P.dof_phase)
    return vals
