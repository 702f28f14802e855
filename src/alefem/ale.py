"""ALE machinery: harmonic mesh velocity, mesh motion, remeshing.

The mesh velocity equals the fluid velocity on the interface (bitwise,
by construction) and vanishes on the outer boundary; in the bulk it is
the discrete harmonic extension of those boundary values.  Every factor
of the interior block of the mesh Laplacian, the block gathered through
the index maps of its numbering (`DofMaps.interior`), is made one way
(`splu`).  The first extension of a numbering is a direct solve by a
factor of its own configuration (`harmonic_extension`); the steps after
it keep one factor of the numbering across steps and extend by CG
preconditioned with it (`LaggedFactor`).  Remeshing
redistributes the interface vertices at equal arc length, about h apart,
along the old degree-k interface curve, and places the new interface
edge nodes on that curve too, so the curve is kept up to the
interpolation error of its new edges while its spacing is repaired;
fields are transferred by point evaluation on the old mesh.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.sparse.linalg import spilu

from . import mesh as meshmod
from .assembly import Gather, scalar_laplacian
from .fespace import (
    FESpacePair,
    ScalarSpace,
    build_taylor_hood,
    evaluate_many,
)
from .linalg import SolverError
from .mesh import (
    Mesh,
    MeshGenerationError,
    geometry,
    interface_cycle,
    quality,
)
from .reference import edge_element, edge_local_nodes

# CG iterations that one extension may spend on the lagged factor; after
# an extension that spent more, the next step refactors (see
# `LaggedFactor`).
# At h=0.04 an iteration costs about 0.45 ms and a factor about 9 ms, and
# the iterations climb from 4 after a refactor, so that rise_h04
# refactors every 8-15 steps; caps of 6, 8 and 12 gave its step times
# within noise of each other.
MAX_ITERATIONS = 8

# Residual, relative to the right-hand side, at which CG stops a column
TOLERANCE = 1e-13

# CG iterations after which an extension refactors at once and finishes
# on the fresh factor
_CG_LIMIT = 30


class RemeshError(Exception):
    def __init__(self, message: str, ring: np.ndarray):
        super().__init__(
            f"{message}; interface polyline has {len(ring)} vertices, "
            f"bbox x [{ring[:, 0].min():.4f}, {ring[:, 0].max():.4f}] "
            f"y [{ring[:, 1].min():.4f}, {ring[:, 1].max():.4f}]"
        )
        self.ring = ring


class Extension(NamedTuple):
    """A mesh velocity w with what its solve spent: CG iterations on the
    lagged factor, and the factorizations of the interior block made for
    it (0 when it reused the factor of an earlier step)."""

    w: np.ndarray
    iterations: int
    factorizations: int


def harmonic_extension(mesh: Mesh, spaces: FESpacePair, u: np.ndarray,
                       L=None) -> np.ndarray:
    """Discrete harmonic mesh velocity matching u on the interface.

    Interface DOFs of the result equal those of u bitwise, boundary DOFs
    are exactly zero, and interior DOFs minimize the Dirichlet energy of
    each subdomain (one global solve; the fixed interface row decouples
    the subdomains).  L is the mesh Laplacian of mesh
    (`mesh_laplacian`), assembled here when not given.

    This is a direct solve, componentwise, by a factor of the interior
    block of L, made and freed here.  A step whose state carries a
    lagged factor extends by CG on it instead (see `LaggedFactor`).
    """
    if L is None:
        L = mesh_laplacian(mesh, spaces)
    w, free, rhs = _lift(L, spaces, u)
    lu = splu(spaces.maps.interior([L]))
    for c in range(2):
        w[free, c] = lu.solve(rhs[:, c])
    return w.ravel()


def mesh_laplacian(mesh: Mesh, spaces: FESpacePair):
    """The scalar Laplacian of mesh on the velocity numbering of
    spaces."""
    return scalar_laplacian(geometry(mesh), spaces.velocity,
                            spaces.maps.scalar)


def _lift(L, spaces: FESpacePair, u: np.ndarray):
    """(w, free, rhs) of the extension of u by mesh Laplacian L: w is
    (n_dofs, 2), holding u on the interface and 0 elsewhere, free masks
    the DOFs on neither the interface nor the boundary, and rhs is the
    right-hand side of the interior block's system."""
    free = np.ones(spaces.velocity.n_dofs, dtype=bool)
    free[spaces.interface_dofs] = False
    free[spaces.boundary_dofs] = False
    w = np.zeros((spaces.velocity.n_dofs, 2))
    w[spaces.interface_dofs] = u.reshape(-1, 2)[spaces.interface_dofs]
    # w vanishes on the free DOFs, whose columns therefore add only +-0:
    # this equals -L[free][:, fixed] @ w[fixed] bitwise, up to signs of 0
    return w, free, -(L @ w)[free]


def splu(A):
    """The LU factor of A, the interior block of a mesh Laplacian, as
    `DofMaps.interior` gathers it.  perfbench/tracing.py times every
    harmonic factorization by wrapping this name.

    It is SuperLU's incomplete LU with no drop tolerance and the basic
    drop rule alone, which drops nothing: the full LU, to rounding.  The
    incomplete path is taken for its fill_factor, the first guess of the
    factor's size, from which SuperLU grows the factor as it needs.
    scipy's splu guesses 20 times the block's entries and keeps all it
    reserved: at h=0.04 a factor touched 2.0 MB of the 35-46 MB of
    address space it held, where with fill_factor=2 it holds 2.8 MB
    (14.7 MB against 150 MB at h=0.02, touching 11.4 MB).  Held across
    steps, the large reservation kept that much of the malloc heap from
    reuse: rise_h04 runs that stepped on one thread (pinned to one CPU)
    peaked at 171 MB with a lagged splu factor, at 150-153 MB with this
    one, and at 153-156 MB when each step factored anew
    (BENCH_pr22.json).

    The block is factored in MMD order on A^T + A with relax=1, which
    keeps SuperLU from merging columns into relaxed supernodes whose
    explicit zeros it stores and factors: after two rising-bubble steps,
    on one CPU of a 2-CPU Xeon VM, SuperLU's default relaxation stored
    575,054 entries against 204,457 and took 30.7 ms against 9.1 ms at
    h=0.04, and 4,491,119 against 1,111,769 entries and 596 ms against
    57 ms at h=0.02.
    """
    return spilu(A, drop_tol=0.0, fill_factor=2, drop_rule="basic",
                 permc_spec="MMD_AT_PLUS_A", relax=1)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The inner products of the columns of a and b."""
    return np.einsum("ij,ij->j", a, b)


class LaggedFactor:
    """The factor of one numbering's interior block that the states of
    a run hand on from step to step (`stepper.State`), with what CG
    needs between them: the interior values of the last extension, from
    which the next one starts, and work arrays.  Between remeshes the
    block changes only by O(tau) per step, so a factor of an earlier
    configuration preconditions CG on the current one.

    An extension that spends more than MAX_ITERATIONS leaves its L in
    stale, and the next step factors it once it has released the old
    mesh's geometry table (see `stepper.step`).
    """

    def __init__(self, L, block: Gather):
        self.block = block
        n = block.shape[0]
        self.lu = None
        self.factorizations = 0         # made since the last extension
        self.refactor(L)
        self.x = np.zeros((n, 2))
        self.r, self.p, self.t = (np.empty((n, 2)) for _ in range(3))

    def refactor(self, L) -> None:
        """Replace the factor by one of L's block, freeing the old one
        before the new one is made."""
        self.stale = None
        self.lu = None
        self.lu = splu(self.block([L]))
        self.factorizations += 1

    def extend(self, L, spaces: FESpacePair, u: np.ndarray) -> Extension:
        """The harmonic extension of u by mesh Laplacian L of this
        numbering, to a residual of TOLERANCE per component."""
        w, free, rhs = _lift(L, spaces, u)
        A = self.block([L])
        iterations, converged = self._cg(A, rhs)
        if not converged:
            # too far off to go on: refactor at once and finish from x
            self.refactor(L)
            more, converged = self._cg(A, rhs)
            iterations += more
            if not converged:
                raise SolverError(f"harmonic extension: CG did not reach "
                                  f"{TOLERANCE:g} on a fresh factor")
        elif iterations > MAX_ITERATIONS:
            self.stale = L
        w[free] = self.x
        made, self.factorizations = self.factorizations, 0
        return Extension(w.ravel(), iterations, made)

    def _cg(self, A, b: np.ndarray) -> tuple[int, bool]:
        """Preconditioned CG on the columns of A x = b from x, in place:
        each iteration solves by the factor for both columns at once, and
        a column stops once its residual is within TOLERANCE of its b (a
        zero b gives x = 0).  Returns (iterations, converged), stopping
        unconverged after _CG_LIMIT iterations."""
        x, r, p, t = self.x, self.r, self.p, self.t
        target = (TOLERANCE * np.linalg.norm(b, axis=0)) ** 2
        x[:, target == 0.0] = 0.0
        np.subtract(b, A @ x, out=r)
        rz = None
        for k in range(_CG_LIMIT + 1):
            active = _dots(r, r) > target
            if not active.any():
                return k, True
            if k == _CG_LIMIT:
                return k, False
            z = self.lu.solve(r)
            rz_old, rz = rz, _dots(r, z)
            if rz_old is None:
                p[:] = z
            else:
                p *= np.divide(rz, rz_old, out=np.zeros(2),
                               where=rz_old != 0.0)
                p += z
            q = A @ p
            alpha = np.divide(rz, _dots(p, q), out=np.zeros(2),
                              where=active)
            np.multiply(p, alpha, out=t)
            x += t
            np.multiply(q, alpha, out=t)
            r -= t


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
    """Rebind spaces to a mesh with identical connectivity (moved nodes),
    sharing their numbering and its index maps.  Their DOF positions are
    computed when first read."""
    def rebind(s: ScalarSpace) -> ScalarSpace:
        return ScalarSpace(mesh, s.degree, s.continuity, s.dof_of, s.n_dofs,
                           s.dof_phase)

    return FESpacePair(rebind(spaces.velocity), rebind(spaces.pressure),
                       spaces.interface_dofs, spaces.boundary_dofs,
                       spaces.maps)


def check_and_remesh(mesh: Mesh, spaces: FESpacePair, fields: dict,
                     rect, h: float,
                     angle_threshold: float = math.pi / 18.0):
    """Regenerate the mesh if its minimum angle dropped below the threshold.

    fields maps names to ("velocity" | "pressure", coefficients); the
    returned dict holds the coefficients transferred to the new mesh by
    point evaluation (phase-aware for pressure).  Returns
    (mesh, spaces, fields, did_remesh, min_angle), min_angle being that of
    the returned mesh.  The new mesh's interface vertices are spaced
    about h apart along the old interface curve (`_redistribute`).  On a
    remesh the geometry table of mesh is released before the new mesh is
    built.
    """
    q = quality(mesh)
    if q.min_angle > angle_threshold:
        return mesh, spaces, fields, False, q.min_angle

    verts, edges = interface_cycle(mesh)
    k = mesh.degree
    ring, segment_curve = _redistribute(
        _old_edge_curve(mesh, verts, edges), len(verts), h)
    mesh.release_tables()
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
    """Parametrize each interface segment by the old curved edge geometry:
    curve(i, s) evaluates the edge from verts[i] to the next vertex of the
    cycle at the parameters s in [0, 1]."""
    k = mesh.degree
    edge = edge_element(k)

    def curve(i, s):
        e, le = edges[i]
        ids = mesh.elements[e, edge_local_nodes(k, le)]
        pos = mesh.coords[ids]                          # ordered along the edge
        if ids[0] != verts[i]:
            pos = pos[::-1]
        return edge.shape_values(np.asarray(s, dtype=float)).T @ pos

    return curve


# Samples per old interface segment by which `_redistribute` measures
# arc length
_ARC_SAMPLES = 64


def _redistribute(curve, n_old: int, h: float):
    """A new ring on the closed curve of n_old segments, segment i being
    curve(i, s) for s in [0, 1] (see `_old_edge_curve`): round(L / h)
    vertices, at least 3, at equal arc length, L the curve's length.
    Returns (ring, segment_curve), segment_curve evaluating the curve
    between consecutive new vertices at equal arc length too.

    Arc length is the length of the polyline through _ARC_SAMPLES points
    per segment, inverted by linear interpolation; every point returned
    is evaluated on the curve itself.
    """
    s = np.linspace(0.0, 1.0, _ARC_SAMPLES + 1)[:-1]
    pts = np.vstack([curve(i, s) for i in range(n_old)])
    steps = np.linalg.norm(np.diff(pts, axis=0, append=pts[:1]), axis=1)
    # arc length at the samples, the closing vertex appended
    arc = np.concatenate([[0.0], np.cumsum(steps)])
    param = np.append((np.arange(n_old)[:, None] + s).ravel(), n_old)
    n_new = max(3, round(arc[-1] / h))
    spacing = arc[-1] / n_new

    def at_arc(a):
        t = np.interp(a, arc, param)
        seg = np.minimum(t.astype(int), n_old - 1)
        out = np.empty((len(t), 2))
        for i in np.unique(seg):
            on = seg == i
            out[on] = curve(i, t[on] - i)
        return out

    def segment_curve(i0, i1, s):
        if (i0 + 1) % n_new != i1:
            raise ValueError(f"({i0}, {i1}) is not a forward ring segment")
        return at_arc((i0 + np.asarray(s, dtype=float)) * spacing)

    return at_arc(np.arange(n_new) * spacing), segment_curve


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
