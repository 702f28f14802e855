"""ALE machinery: harmonic mesh velocity, mesh motion, remeshing.

The mesh velocity equals the fluid velocity on the interface (bitwise,
by construction) and vanishes on the outer boundary; in the bulk it is
the discrete harmonic extension of those boundary values.  Every factor
of the interior block of the mesh Laplacian, the block gathered through
the index maps of its numbering (`DofMaps.interior`), is made one way
(`splu`).  Every extension solves on the lagged factor of its
numbering (`linalg.LaggedFactor`, see `extend`): directly on a factor
of its own configuration, as the first extension of a numbering does
(`harmonic_extension`), and by CG preconditioned with the factor of an
earlier configuration otherwise.  Remeshing
redistributes the interface vertices at equal arc length, about h apart,
along the old degree-k interface curve, and places the new interface
edge nodes on that curve too, so the curve is kept up to the
interpolation error of its new edges while its spacing is repaired;
fields are transferred by point evaluation on the old mesh.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import spilu

from . import mesh as meshmod
from .assembly import scalar_laplacian
from .fespace import (
    FESpacePair,
    ScalarSpace,
    build_taylor_hood,
    evaluate_many,
)
from .linalg import LaggedFactor
from .mesh import (
    REMESH_ANGLE,
    Mesh,
    MeshGenerationError,
    edge_nodes,
    interface_cycle,
    quality,
)
from .reference import edge_element

# CG iterations that one extension may spend on the lagged factor; after
# an extension that spent more, the next one refactors (see
# `linalg.LaggedFactor`).
# At h=0.04, on one CPU of a shared 2-CPU Xeon VM, an iteration costs
# about 1.5 ms in a rise_h04 run (951 in 150 steps; the (n, 2) solve by
# the factor is 0.6 ms of it and A @ p 0.1 ms) and a factor 16-25 ms.
# The iterations climb from 5 after a refactor, so that rise_h04
# refactors every 9-16 steps once its first factor is spent.  Caps of 6,
# 8 and 12 gave its step times within noise of each other when an
# iteration cost 0.45 ms.
MAX_ITERATIONS = 8

# Residual, relative to the right-hand side, at which CG stops a column
TOLERANCE = 1e-13

# CG iterations after which an extension refactors at once and solves
# directly on the fresh factor
_CG_LIMIT = 30


class RemeshError(Exception):
    """A failed fit of ring, made from curve by `_redistribute`."""

    def __init__(self, message: str, ring: np.ndarray, curve: np.ndarray):
        super().__init__(
            f"{message}; interface polyline has {len(ring)} vertices, "
            f"bbox x [{ring[:, 0].min():.4f}, {ring[:, 0].max():.4f}] "
            f"y [{ring[:, 1].min():.4f}, {ring[:, 1].max():.4f}]"
        )
        self.ring = ring
        self.curve = curve


def harmonic_extension(spaces: FESpacePair, u: np.ndarray,
                       lagged: LaggedFactor | None = None) -> np.ndarray:
    """Discrete harmonic mesh velocity matching u on the interface, as
    the flat vector of its DOFs.

    Interface DOFs of the result equal those of u bitwise, boundary DOFs
    are exactly zero, and interior DOFs minimize the Dirichlet energy of
    each subdomain (one global solve; the fixed interface row decouples
    the subdomains).

    This is a direct solve, componentwise, by a factor of the interior
    block of the mesh Laplacian of spaces, made by lagged, a
    `LaggedFactor` of their numbering that holds no factor (made here
    when not given), which keeps the factor for the extensions after
    this one (see `extend`).
    """
    if lagged is None:
        lagged = LaggedFactor(MAX_ITERATIONS)
    L = scalar_laplacian(spaces.velocity, spaces.maps.scalar)
    return extend(L, spaces, u, lagged)


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


def extend(L, spaces: FESpacePair, u: np.ndarray, lagged: LaggedFactor,
           start: np.ndarray | None = None) -> np.ndarray:
    """The harmonic extension w of u by mesh Laplacian L, of the
    numbering of spaces, as the flat vector of its DOFs, on the factor
    that lagged holds, which counts the solve's CG iterations: directly,
    componentwise, on a factor made here from L's interior block, and
    otherwise by block CG preconditioned with the factor of an earlier
    configuration, from the interior values of start, the previous
    extension, to a residual of TOLERANCE per component.  A CG that has
    not converged after _CG_LIMIT iterations refactors (see
    `linalg.LaggedFactor`).
    """
    free = spaces.maps.interior_mask
    w = np.zeros((spaces.velocity.n_dofs, 2))
    w[spaces.interface_dofs] = u.reshape(-1, 2)[spaces.interface_dofs]
    # w vanishes on the free DOFs, whose columns therefore add only +-0:
    # this equals -L[free][:, fixed] @ w[fixed] bitwise, up to signs of 0
    rhs = -(L @ w)[free]
    A = spaces.maps.interior([L])
    x = (np.zeros_like(rhs) if start is None
         else start.reshape(-1, 2)[free])

    def attempt(lu, fresh):
        if not fresh:
            return _cg(A, rhs, x, lu)
        for c in range(2):
            x[:, c] = lu.solve(rhs[:, c])
        return x, 0, True

    w[free] = lagged.solve(lambda: splu(A), attempt)
    return w.ravel()


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The inner products of the columns of a and b."""
    return np.einsum("ij,ij->j", a, b)


def _cg(A, b: np.ndarray, x: np.ndarray, lu):
    """Block CG on the columns of A x = b from x, in place,
    preconditioned by the factor lu: each iteration solves by lu for
    both columns at once, and a column stops once its residual is within
    TOLERANCE of its b (a zero b gives x = 0).  Returns (x, iterations,
    converged), stopping unconverged after _CG_LIMIT iterations."""
    target = (TOLERANCE * np.linalg.norm(b, axis=0)) ** 2
    x[:, target == 0.0] = 0.0
    r = b - A @ x
    p, t = np.empty_like(x), np.empty_like(x)
    rz = None
    for k in range(_CG_LIMIT + 1):
        active = _dots(r, r) > target
        if not active.any():
            return x, k, True
        if k == _CG_LIMIT:
            return x, k, False
        z = lu.solve(r)
        rz_old, rz = rz, _dots(r, z)
        if rz_old is None:
            p[:] = z
        else:
            p *= np.divide(rz, rz_old, out=np.zeros(2), where=rz_old != 0.0)
            p += z
        q = A @ p
        alpha = np.divide(rz, _dots(p, q), out=np.zeros(2), where=active)
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


def check_and_remesh(spaces: FESpacePair, u: np.ndarray, p: np.ndarray,
                     rect, h: float, angle_threshold: float = REMESH_ANGLE):
    """Regenerate the mesh of spaces if its minimum angle dropped below
    the threshold.

    Returns (spaces, u, p, did_remesh), the arguments if the mesh is
    kept; did_remesh is at index 3, where perfbench/tracing.py reads it.
    On a remesh, u and p are transferred to the new spaces by point
    evaluation on the old mesh (phase-aware for p), whose geometry table
    is released first.  The new mesh's interface vertices are spaced
    about h apart along the old interface curve, the node array its
    interface edges gather (`_redistribute`).
    """
    mesh = spaces.mesh
    if quality(mesh).min_angle > angle_threshold:
        return spaces, u, p, False

    _, edges = interface_cycle(mesh)
    curve = mesh.coords[edge_nodes(mesh, edges)]          # (n, k+1, 2)
    ring, segment_curve = _redistribute(curve, h)
    mesh.release_tables()
    try:
        new_mesh = meshmod.fit_interface_mesh(
            rect, ring, h, mesh.degree,
            segment_curve=segment_curve, min_angle=angle_threshold)
    except MeshGenerationError as err:
        raise RemeshError(f"remeshing failed: {err}", ring, curve) from err

    new_spaces = build_taylor_hood(new_mesh, mesh.degree)
    return (new_spaces, transfer_velocity(spaces, new_spaces, u),
            transfer_pressure(spaces, new_spaces, p), True)


# Samples per old interface segment by which `_redistribute` measures
# arc length
_ARC_SAMPLES = 64


def _redistribute(pos: np.ndarray, h: float):
    """A new ring on the old interface curve pos, the (n, k+1, 2) node
    positions of its segments in cycle order, segment i running from
    pos[i, 0] to pos[i, -1] = pos[i + 1 mod n, 0]: round(L / h)
    vertices, at least 3, at equal arc length, L the curve's length.
    Returns (ring, segment_curve), segment_curve(i, s) giving the points
    of new ring segment i, from vertex i to i + 1, at the parameters s,
    at equal arc length too; i and s broadcast against each other.

    Arc length is the length of the polyline through _ARC_SAMPLES points
    per segment, inverted by linear interpolation; every point returned
    is evaluated on the curve itself.
    """
    basis = edge_element(pos.shape[1] - 1).shape_values
    n_old = len(pos)
    s = np.linspace(0.0, 1.0, _ARC_SAMPLES + 1)[:-1]
    pts = (basis(s).T @ pos).reshape(-1, 2)
    steps = np.linalg.norm(np.diff(pts, axis=0, append=pts[:1]), axis=1)
    # arc length at the samples, the closing vertex appended
    arc = np.concatenate([[0.0], np.cumsum(steps)])
    param = np.append((np.arange(n_old)[:, None] + s).ravel(), n_old)
    n_new = max(3, round(arc[-1] / h))
    spacing = arc[-1] / n_new

    def segment_curve(i, s):
        i, s = np.broadcast_arrays(i, np.asarray(s, dtype=float))
        t = np.interp((i + s) * spacing, arc, param)
        seg = np.minimum(t.astype(int), n_old - 1)
        # the points of one i on one old segment share one product by the
        # basis, as one call per segment i made them: at k=3 BLAS rounds
        # the basis values of one point otherwise than those of several
        key = i * n_old + seg
        out = np.empty(t.shape + (2,))
        for g in np.unique(key):
            on, j = key == g, g % n_old
            out[on] = basis(t[on] - j).T @ pos[j]
        return out

    # segment 0 at s = 0, 1, ... walks the whole ring
    return segment_curve(0, np.arange(n_new)), segment_curve


def transfer_velocity(old: FESpacePair, new: FESpacePair,
                      coeffs: np.ndarray) -> np.ndarray:
    """Nodal transfer of a continuous velocity-space vector field."""
    V = new.velocity
    return evaluate_many(old.velocity, coeffs, V.positions,
                         phase=V.dof_phase, vector=True).ravel()


def transfer_pressure(old: FESpacePair, new: FESpacePair,
                      coeffs: np.ndarray) -> np.ndarray:
    """Phase-aware nodal transfer of a pressure field."""
    P = new.pressure
    return evaluate_many(old.pressure, coeffs, P.positions,
                         phase=P.dof_phase)
