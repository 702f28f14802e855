"""ALE machinery: harmonic mesh velocity, mesh motion, remeshing.

The mesh velocity equals the fluid velocity on the interface (bitwise,
by construction) and vanishes on the outer boundary; in the bulk it is
the discrete harmonic extension of those boundary values, solved
componentwise.  Every extension, on the calling thread or on a step's
worker, factors the interior block of the mesh Laplacian one way
(`_operator`), the block gathered through the index maps of its
numbering (`DofMaps.interior`).  Remeshing redistributes the interface
vertices at equal arc length, about h apart, along the old degree-k
interface curve, and places the new interface edge nodes on that curve
too, so the curve is kept up to the interpolation error of its new
edges while its spacing is repaired; fields are transferred by point
evaluation on the old mesh.
"""

from __future__ import annotations

import math
import os
import queue
import threading
import traceback
import weakref
from concurrent.futures import Future

import numpy as np
from scipy.sparse.linalg import splu

from . import mesh as meshmod
from .assembly import Gather, scalar_laplacian
from .fespace import (
    FESpacePair,
    ScalarSpace,
    build_taylor_hood,
    evaluate_many,
)
from .mesh import (
    Mesh,
    MeshGenerationError,
    geometry,
    interface_cycle,
    quality,
)
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

    The operator of the extension, the mesh Laplacian L and the factor
    of its interior block, depends on the configuration alone; only the
    lift of u on the fixed DOFs and the two triangular solves need u.
    Here the operator is built on the calling thread; a step reads the
    next configuration's L off its viscous form and factors it on its
    worker (see `HarmonicWorker`), by the same `_operator`.
    """
    maps = spaces.maps
    L = scalar_laplacian(geometry(mesh), spaces.velocity, maps.scalar)
    return _extend(*_operator(L, maps.interior), spaces, u)


def _free(spaces: FESpacePair) -> np.ndarray:
    """Mask of the velocity DOFs on neither the interface nor the
    boundary."""
    free = np.ones(spaces.velocity.n_dofs, dtype=bool)
    free[spaces.interface_dofs] = False
    free[spaces.boundary_dofs] = False
    return free


def _extend(L, solve, spaces: FESpacePair, u: np.ndarray) -> np.ndarray:
    """The harmonic extension of u by the operator (L, solve)."""
    free = _free(spaces)
    w = np.zeros((spaces.velocity.n_dofs, 2))
    uv = u.reshape(-1, 2)
    w[spaces.interface_dofs] = uv[spaces.interface_dofs]
    w[spaces.boundary_dofs] = 0.0
    # w vanishes on the free DOFs, whose columns therefore add only +-0:
    # this equals -L[free][:, fixed] @ w[fixed] bitwise, up to signs of 0
    rhs = -(L @ w)[free]
    for c in range(2):
        w[free, c] = solve(rhs[:, c])
    return w.ravel()


def _operator(L, block: Gather):
    """The operator (L, solve) of mesh Laplacian L, block being the
    gather of its interior block (`DofMaps.interior`).

    The block is factored in SuperLU's MMD order on A^T + A with
    relax=1, which keeps SuperLU from merging columns into relaxed
    supernodes whose explicit zeros it stores and factors.  After two
    rising-bubble steps, on one CPU of a 2-CPU Xeon VM, SuperLU's
    default relaxation stored 572,890 entries against 203,056 and took
    23.9 ms against 8.7 ms at h=0.04, and 4,484,356 against 1,105,402
    entries and 371 ms against 51 ms at h=0.02.
    """
    return L, splu(block([L]), permc_spec="MMD_AT_PLUS_A", relax=1).solve


def _prepare(held: list, *operator) -> None:
    """The job that builds an operator (see `_operator`) into held[0],
    freeing the one there first."""
    held[0] = None
    held[0] = _operator(*operator)


def _extend_held(held: list, prepared: Future, spaces: FESpacePair,
                 u: np.ndarray) -> np.ndarray:
    """The job that extends u by the operator in held[0] and uses it up;
    when the `_prepare` job prepared raised, this raises its error."""
    op, held[0] = held[0], None
    if op is None:
        raise prepared.exception()
    return _extend(*op, spaces, u)


def submit_inline(fn, *args) -> Future:
    """A done future of fn(*args), run at once on the calling thread."""
    done = Future()
    _settle(done, fn, args)
    return done


class HarmonicWorker:
    """Where a step runs the jobs it hands over: a thread that works
    alongside the calling thread when the process may use two CPUs, the
    calling thread itself when it may use one.  The jobs, their order
    and what the calling thread does meanwhile are listed in the doc of
    `stepper`.

    The moved mesh of step n is the configuration on which step n + 1
    extends, so its operator, the mesh Laplacian that the A_mu job hands
    back and the factor of its interior block (`prepare`, by the
    `_operator` of `harmonic_extension`), is built in step n and used up
    by the extension of the new u that step n starts (`extend`).  The two
    jobs hand it over in one slot, held, which only jobs and the end of
    the thread touch, so every factor is made, used and freed where the
    jobs run: scipy's SuperLU wrapper records each allocation in a
    registry of the allocating thread and frees a pointer only on that
    thread, so a factor released elsewhere would leak its memory.  The
    caller gets back only the future of w.  An operator whose extension
    was never started, because the saddle solve raised, is freed by the
    next `prepare`, or when the thread ends (on one CPU, with the
    worker).  The other jobs hand back arrays and sparse matrices, never
    a factor.

    The geometry table and physical gradients of a mesh, and the index
    maps of a numbering (the gather of the interior block among them),
    are built on first use and kept by the mesh and the numbering.
    Every one that a job reads is built on the calling thread before the
    job is handed over, so the thread only reads them and the two
    threads never both build one.  An exception of a job is raised, with
    its type unchanged, by the call that waits for its result: for
    `prepare`, the wait for the extension by its operator; an exception
    of an extension that no step waits for is discarded.

    A thread overlaps nothing without a second CPU: pinned to one CPU of
    a 2-CPU Xeon VM, building the harmonic operator on one made the
    fastest `rise_h04` step 12% slower.  So the first `submit` reads how
    many CPUs the process may use and fixes, for the worker's life,
    where its jobs run; held is never touched from two threads.  The
    step hands over the same jobs either way, and its results are
    bitwise the same when BLAS runs on one thread (see `cli`).

    The thread starts with the first job; `close` joins it.  A worker
    that is garbage-collected unclosed, or left open at interpreter
    exit, stops and joins its thread the same way, so that the thread
    frees its factors before the interpreter is torn down.
    """

    def __init__(self):
        # whether jobs run on the calling thread; None until the first
        self._inline: bool | None = None
        self._jobs: queue.SimpleQueue | None = None
        self._stop = None
        self._held = [None]
        # the future of the `_prepare` job handed over last
        self._prepared: Future | None = None

    def submit(self, fn, *args) -> Future:
        """A future of fn(*args), run on the thread, or done already
        when the jobs run on the calling thread.  fn must build nothing
        that is built on first use (see the class doc)."""
        if self._inline is None:
            self._inline = _cpus_available() < 2
        if self._inline:
            return submit_inline(fn, *args)
        if self._stop is None or not self._stop.alive:
            self._jobs = queue.SimpleQueue()
            thread = threading.Thread(target=_serve,
                                      args=(self._jobs, self._held),
                                      name="alefem-harmonic", daemon=True)
            thread.start()
            self._stop = weakref.finalize(self, _stop, self._jobs, thread)
        done = Future()
        self._jobs.put((done, fn, args))
        return done

    def prepare(self, spaces: FESpacePair, L) -> None:
        """Hand over the factoring of the operator of mesh Laplacian L
        on spaces (see `_operator`)."""
        self._prepared = self.submit(_prepare, self._held, L,
                                     spaces.maps.interior)

    def extend(self, spaces: FESpacePair, u: np.ndarray) -> Future:
        """Hand over the extension of u by the operator that `prepare`
        handed over last, on the configuration of spaces; returns the
        future of w.  u must not change until w is done."""
        return self.submit(_extend_held, self._held, self._prepared,
                           spaces, u)

    def close(self) -> None:
        """Join the thread, which frees its last operator first."""
        if self._stop is not None:
            self._stop()


def _stop(jobs: queue.SimpleQueue, thread: threading.Thread) -> None:
    """End the loop of a worker's thread and join it, unless called on
    that thread itself (by a garbage collection that ran there)."""
    jobs.put(None)
    if thread is not threading.current_thread():
        thread.join()


def _cpus_available() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        return os.cpu_count() or 1


def _detached(err: Exception) -> Exception:
    """err with the locals of its finished frames cleared and the frame
    of `_settle` left out of its traceback, so that another thread
    holding err holds no factor of this one."""
    tb = err.__traceback__.tb_next
    traceback.clear_frames(tb)
    return err.with_traceback(tb)


def _settle(done: Future, fn, args: tuple) -> None:
    """Set done to the result of fn(*args), or its exception."""
    try:
        result = fn(*args)
    except Exception as err:
        done.set_exception(_detached(err))
    else:
        done.set_result(result)


def _serve(jobs: queue.SimpleQueue, held: list) -> None:
    """The loop of a `HarmonicWorker`'s thread.  It empties held when it
    ends, so that the thread frees the operator left there."""
    while (job := jobs.get()) is not None:
        _settle(*job)
        job = None              # not kept alive while waiting for the next
    held[0] = None


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
