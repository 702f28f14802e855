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


def harmonic_extension(mesh: Mesh, spaces: FESpacePair, u: np.ndarray,
                       worker: HarmonicWorker | None = None) -> np.ndarray:
    """Discrete harmonic mesh velocity matching u on the interface.

    Interface DOFs of the result equal those of u bitwise, boundary DOFs
    are exactly zero, and interior DOFs minimize the Dirichlet energy of
    each subdomain (one global solve; the fixed interface row decouples
    the subdomains).

    The operator of the extension, the mesh Laplacian L and the factor
    of its interior block, depends on the configuration alone; only the
    lift of u on the fixed DOFs and the two triangular solves need u.
    When worker started the extension of this u on this mesh and
    spaces, by the operator it prepared, that is the result (see
    `HarmonicWorker`); otherwise the operator is built here, on the
    calling thread.  Either way a factor
    is used and freed only by the thread that made it, because scipy
    frees the memory of a SuperLU factor only on that thread.

    The interior block is factored in SuperLU's MMD column order, which
    depends on its sparsity pattern alone.  That order is computed once
    per DOF numbering, by the first extension on it, and kept with the
    numbering's index maps (`DofMaps.interior`); the later operators
    factor the block, its columns permuted into that order, with the
    NATURAL ordering and no ordering work of their own.
    """
    if worker is not None:
        w = worker.extend(mesh, spaces, u)
        if w is not None:
            return w
    maps = spaces.maps
    L = scalar_laplacian(geometry(mesh), spaces.velocity, maps.scalar)
    if maps.interior is None:
        free = _free(spaces)
        lu = splu(L[free][:, free].tocsc(), permc_spec="MMD_AT_PLUS_A")
        order = _inverse_order(lu.perm_c)
        maps.interior = order, Gather(
            lambda L: L[free][:, free][:, order].tocsc(), [L])
        # the factor that gave the order solves this call: it has the L,
        # U and row pivots of the block's NATURAL factor in that order
        # (see _inverse_order)
        solve = lu.solve
    else:
        order, block = maps.interior
        solve = _natural_solve(block([L]), order)
    return _extend(L, solve, spaces, u)


def _free(spaces: FESpacePair) -> np.ndarray:
    """Mask of the velocity DOFs on neither the interface nor the
    boundary."""
    free = np.ones(spaces.velocity.n_dofs, dtype=bool)
    free[spaces.interface_dofs] = False
    free[spaces.boundary_dofs] = False
    return free


def _natural_solve(Lff, order: np.ndarray):
    """solve(b) of the interior block, given as Lff = block[:, order],
    by the NATURAL factor of Lff; its result is overwritten by the next
    call."""
    lu = splu(Lff, permc_spec="NATURAL")
    x = np.empty(len(order))

    def solve(b):
        x[order] = lu.solve(b)
        return x
    return solve


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


def _prepare(geom, V: ScalarSpace, scalar, order: np.ndarray,
             block: Gather):
    """The operator (L, solve) of a configuration from its geometry
    table and its numbering's scalar sum order, interior order and
    interior gather, all built already."""
    L = scalar_laplacian(geom, V, scalar)
    return L, _natural_solve(block([L]), order)


class HarmonicWorker:
    """One thread that works alongside the step on the main thread.

    Its jobs, in the order a step hands them over:

    - the upper halves of the moved mesh's geometry table and of its
      physical gradients (see `mesh.GeometryTables`), while the main
      thread builds the lower halves;
    - the viscous form A_mu and the divergence form C, while the main
      thread assembles M_rho, the convection form and the pressure mean
      (see `stepper.flow_solve`);
    - the harmonic operator of the moved mesh (`prepare`), once the
      saddle matrix is gathered, while the saddle solve runs;
    - the extension of the new u by that operator, started as soon as
      the flow solve has u, while the main thread checks the mesh and
      records the state; the next step picks w up (`extend`).

    The moved mesh of step n is the configuration on which step n + 1
    extends, so its operator, the mesh Laplacian and the factor of its
    interior block, is built in step n and used up by the extension
    started there.  The thread keeps every factor it makes and runs the
    solves with it: scipy's SuperLU wrapper records each allocation in
    a registry of the allocating thread and frees a pointer only on
    that thread, so a factor released elsewhere would leak its memory.
    The main thread gets back only w.  An operator whose extension was
    never started, because the saddle solve raised, is freed on the
    thread by the next `prepare` or by `close`.  The other jobs
    (`submit`) run a function on the arrays they are handed and hand
    back arrays and sparse matrices, never a factor.

    The geometry table and physical gradients of a mesh, and the index
    maps and interior order of a numbering, are built on first use and
    kept by the mesh and the numbering.  Every one that a job reads is
    built on the main thread before the job is handed over, so the
    thread only reads them and the two threads never both build one.
    An exception of a job is raised, with its type unchanged, by the
    call that waits for its result: for `prepare`, the `extend` that
    picks w up; an exception of an extension that is not picked up is
    discarded.

    The overlap needs a second CPU.  On one, the thread can only take
    turns with the main thread: pinned to one CPU of a 2-CPU Xeon VM,
    the fastest `rise_h04` step took 12% longer (median of 10 runs) when
    the harmonic operator was built on the thread.  So when the process
    may run on one CPU alone, `submitter` gives None, nothing is handed
    over and no thread starts: the step builds the geometry and
    assembles every matrix in one piece on the calling thread, and the
    next extension builds the operator itself.  The results are bitwise
    the same on either path.

    The thread starts with the first job; `close` joins it.  A worker
    that is garbage-collected unclosed, or left open at interpreter
    exit, stops and joins its thread the same way, so that the thread
    frees its factors before the interpreter is torn down.
    """

    def __init__(self):
        self._jobs: queue.SimpleQueue | None = None
        self._thread: threading.Thread | None = None
        self._stop = None
        # (mesh, spaces, copy of u, future of w) of the extension started
        self._ahead = None

    def _send(self, kind: str, args: tuple, done: Future | None) -> None:
        if self._thread is None:
            self._jobs = queue.SimpleQueue()
            self._thread = threading.Thread(target=_serve, args=(self._jobs,),
                                            name="alefem-harmonic",
                                            daemon=True)
            self._thread.start()
            self._stop = weakref.finalize(self, _stop, self._jobs,
                                          self._thread)
        self._jobs.put((kind, args, done))

    def submitter(self):
        """`submit`, or None when the process may use one CPU only and
        nothing is handed over."""
        return self.submit if _cpus_available() >= 2 else None

    def submit(self, fn, *args, **kwargs) -> Future:
        """A future of fn(*args, **kwargs), run on the thread.  fn must
        build nothing that is built on first use (see the class doc)."""
        done = Future()
        self._send("call", (fn, args, kwargs), done)
        return done

    def prepare(self, mesh: Mesh, spaces: FESpacePair):
        """Start building the operator of mesh and spaces on the thread,
        when their numbering has its order; the first extension on a
        numbering orders it, on the calling thread.  The physical
        gradients of the velocity space must exist already, so that
        the two threads never both build them.

        Returns the function that starts the extension of a u by the
        operator, on the thread, so that the `extend` of the same u on
        mesh and spaces finds w done; None when the numbering has no
        order yet.  Like `submit`, it is for a process that may use two
        CPUs (see `submitter`).
        """
        maps = spaces.maps
        if maps.interior is None:
            return None
        self._send("prepare", (geometry(mesh), spaces.velocity, maps.scalar,
                               *maps.interior), None)

        def extend_ahead(u: np.ndarray) -> None:
            u = u.copy()                    # the caller may change u
            done = Future()
            self._send("extend", (spaces, u), done)
            self._ahead = (mesh, spaces, u, done)
        return extend_ahead

    def extend(self, mesh: Mesh, spaces: FESpacePair,
               u: np.ndarray) -> np.ndarray | None:
        """The extension of u started on mesh and spaces, or None when
        the one started last was on others or of a u that differs in
        some byte."""
        ahead, self._ahead = self._ahead, None
        if (ahead is None or ahead[0] is not mesh or ahead[1] is not spaces
                or ahead[2].tobytes() != u.tobytes()):
            return None
        return ahead[3].result()

    def close(self) -> None:
        """Join the thread, which frees its last operator first."""
        self._ahead = None
        if self._thread is not None:
            self._stop()
            self._thread = None


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
    of the thread's loop left out of its traceback, so that another
    thread holding err holds no factor of this one."""
    tb = err.__traceback__.tb_next
    traceback.clear_frames(tb)
    return err.with_traceback(tb)


def _settle(done: Future, fn, args: tuple, kwargs: dict) -> None:
    """Set done to the result of fn(*args, **kwargs), or its exception."""
    try:
        result = fn(*args, **kwargs)
    except Exception as err:
        done.set_exception(_detached(err))
    else:
        done.set_result(result)


def _serve(jobs: queue.SimpleQueue) -> None:
    """The loop of a `HarmonicWorker`'s thread.  prepared, the operator
    of the last "prepare" job or the exception it raised, is the only
    reference to the thread's factors, so each is freed here."""
    prepared = None
    while (job := jobs.get()) is not None:
        kind, args, done = job
        job = None
        if kind == "call":
            _settle(done, *args)
            args = done = None
            continue
        if kind == "prepare":
            prepared = None                 # free the old factor first
            try:
                prepared = _prepare(*args)
            except Exception as err:
                prepared = _detached(err)
            args = None
            continue
        # "extend" uses the operator up
        op, prepared = prepared, None
        w = error = None
        if isinstance(op, Exception):
            error = op
        else:
            try:
                w = _extend(*op, *args)
            except Exception as err:
                error = _detached(err)
        op = args = None                # freed before the caller goes on
        if error is None:
            done.set_result(w)
        else:
            done.set_exception(error)
        done = w = error = None
    prepared = None


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
    the returned mesh.  On a remesh the geometry table of mesh is
    released before the new mesh is built.
    """
    q = quality(mesh)
    if q.min_angle > angle_threshold:
        return mesh, spaces, fields, False, q.min_angle

    verts, edges = interface_cycle(mesh)
    ring = mesh.coords[verts]
    k = mesh.degree
    segment_curve = _old_edge_curve(mesh, verts, edges)
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
