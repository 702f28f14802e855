"""Linearly semi-implicit Euler integrator for the coupled flow.

Each step: (1) solve the harmonic extension of the current velocity to
get the mesh velocity, (2) move the nodes by one forward-Euler update
carrying all coefficients nodally, (3) assemble and solve one linear
saddle problem on the new mesh with the convection field frozen at the
old velocity relative to the mesh, (4) remesh if the minimum angle
dropped too far.  Diffusion, pressure and divergence are implicit; the
constant gravity enters explicitly.

The mesh velocity w^n, the harmonic extension of u^n on mesh^n, is a
function of the state, and the state carries its future (`State.w`).
Assembly, quality checks and observables of one mesh configuration all
read the geometry table that its mesh keeps (`Mesh.tables`), and every
configuration of one DOF numbering shares the index maps that its
spaces keep (`FESpacePair.maps`).  So a step without a remesh builds
exactly one table, that of the moved mesh, and no index map.  Once (1)
has w, the step releases the table of the mesh it leaves, which nothing
reads again: kept, it raised the peak memory of a run at h=0.04 by 10%.

Each step hands part of its work to the state's `HarmonicWorker`,
which runs it on a second thread when the process may use two CPUs and
at once on the calling thread when it may use one.  The step is the
same either way, and so are its results, bitwise, when BLAS runs on one
thread (see `HarmonicWorker`).  The jobs, in the order (3) hands them
over, and what the calling thread does meanwhile on two CPUs:

- the upper halves of the moved mesh's geometry table and physical
  gradients, while it builds the lower halves and assembles the load;
- A_mu and C, while it assembles M_rho, the convection form and the
  pressure mean;
- once the saddle matrix is gathered, the harmonic operator of the
  moved mesh (the configuration the next step extends on), while it
  runs the saddle solve;
- once `flow_solve` returns u, the extension of u by that operator
  (the w of the next state, unless the step remeshes), while it checks
  the mesh and records the state.
"""

from __future__ import annotations

import math
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from .ale import (
    HarmonicWorker,
    advance_mesh,
    check_and_remesh,
    harmonic_extension,
    move_mesh,
    spaces_with_mesh,
    submit_inline,
)
from .assembly import (
    PhaseParams,
    assemble,
    assemble_convection,
    assemble_load,
    momentum_matrix,
    pressure_mean_vector,
)
from .fespace import FESpacePair, build_taylor_hood
from .linalg import SaddleFactor, SaddleSystem, solve_saddle
from .mesh import (
    Mesh,
    bubble_problem,
    generate_bubble_mesh,
    geometry,
    quality,
)
from .observables import BenchmarkRecord, benchmark_record


@dataclass(frozen=True)
class SimConfig:
    """The settings of one run.  Its fields and those of PhaseParams are
    the keys of a config file (see `cli`)."""

    params: PhaseParams
    k: int
    h: float
    tau: float
    T: float
    rect: tuple = (0.0, 0.0, 1.0, 2.0)
    circle_center: tuple = (0.5, 0.5)
    circle_radius: float = 0.25
    remesh_angle: float = math.pi / 18.0
    record_every: int = 1

    def __post_init__(self):
        if self.tau <= 0 or self.h <= 0 or self.T < 0:
            raise ValueError("tau and h must be positive, T non-negative")
        if self.k not in (2, 3):
            raise ValueError(f"unsupported degree k={self.k}; the "
                             f"Taylor-Hood pairs need k = 2 or 3")
        if self.record_every < 1:
            raise ValueError(f"record_every must be at least 1, "
                             f"got {self.record_every}")
        steps = self.T / self.tau
        if abs(steps - round(steps)) > 1e-9 * max(steps, 1.0):
            raise ValueError(f"T={self.T} is not a whole number of steps "
                             f"of tau={self.tau} ({steps:.6g} steps)")
        problem = bubble_problem(self.rect, self.circle_center,
                                 self.circle_radius, self.h)
        if problem is not None:
            raise ValueError(problem)
        # a triangle has an angle of at most pi/3, so no mesh beats a
        # larger threshold
        if not 0.0 < self.remesh_angle < math.pi / 3.0:
            raise ValueError(f"remesh_angle must lie in (0, pi/3), got "
                             f"{self.remesh_angle}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.tau))


@dataclass(frozen=True)
class State:
    """Everything one step hands to the next.

    min_angle is the minimum angle of mesh and remesh_count the remeshes
    so far.  factor is the saddle factor that preconditions the next flow
    solve (None makes that solve factor afresh); saddle_iterations are
    the iterations of the last flow solve and saddle_factorizations the
    factorizations since initialize().  harmonic is the step worker,
    made with the first state and handed from state to state; `run`
    closes it.  w is the future of the mesh velocity of (mesh, u), which
    the step that made the state started on harmonic; it is None after
    initialize() and after a remesh (see `mesh_velocity`).  The state is
    frozen and u read-only, so w cannot go stale.
    """

    t: float
    mesh: Mesh
    spaces: FESpacePair
    u: np.ndarray
    p: np.ndarray
    min_angle: float
    remesh_count: int = 0
    factor: SaddleFactor | None = None
    saddle_iterations: int = 0
    saddle_factorizations: int = 0
    harmonic: HarmonicWorker = field(default_factory=HarmonicWorker)
    w: Future | None = None

    def __post_init__(self):
        self.u.setflags(write=False)


def initialize(config: SimConfig) -> State:
    mesh = generate_bubble_mesh(config.rect, config.circle_center,
                                config.circle_radius, config.h, config.k)
    spaces = build_taylor_hood(mesh, config.k)
    u = np.zeros(2 * spaces.velocity.n_dofs)
    p = np.zeros(spaces.pressure.n_dofs)
    return State(t=0.0, mesh=mesh, spaces=spaces, u=u, p=p,
                 min_angle=quality(mesh).min_angle)


def flow_solve(mesh: Mesh, spaces: FESpacePair, params: PhaseParams,
               tau: float, u_old: np.ndarray, transport: np.ndarray,
               load: np.ndarray, boundary_values: np.ndarray | None = None,
               factor: SaddleFactor | None = None,
               harmonic: HarmonicWorker | None = None):
    """One implicit solve of the momentum/divergence system.

    Solves (M_rho / tau + B(transport) + A_mu) u - C^T p = load + M_rho
    u_old / tau with no-slip rows replaced by boundary_values (zero by
    default) and the zero-mean pressure constraint, preconditioned by
    factor when one is given (see `solve_saddle`).  Half of the physical
    gradients, A_mu and C are jobs of harmonic (see `HarmonicWorker`),
    which then prepares the harmonic operator of mesh during the saddle
    solve; without harmonic the jobs run on the calling thread and
    nothing is prepared.
    Returns (u, p, multiplier, stats).
    """
    submit = submit_inline if harmonic is None else harmonic.submit
    # built here, so that the jobs only read them
    geometry(mesh).physical_gradients(spaces.velocity, submit)
    spaces.maps.vector, spaces.maps.divergence
    jobs = [submit(assemble, kind, mesh, spaces, params)
            for kind in ("A_mu", "C")]
    M_rho = assemble("M_rho", mesh, spaces, params)
    B_conv = assemble_convection(mesh, spaces, params, transport)
    m = pressure_mean_vector(mesh, spaces)
    A_mu, C = (job.result() for job in jobs)
    del jobs                    # the futures hold A_mu and C too

    rhs_u = load + M_rho @ u_old / tau
    Kuu = momentum_matrix(spaces, M_rho, A_mu, B_conv, tau)
    del M_rho, A_mu, B_conv

    n_u = 2 * spaces.velocity.n_dofs
    bnd = spaces.vector_dofs(spaces.boundary_dofs)
    free = np.ones(n_u, dtype=bool)
    free[bnd] = False
    u_bc = np.zeros(n_u)
    if boundary_values is not None:
        u_bc[bnd] = boundary_values[bnd]

    # u_bc vanishes on the free DOFs, whose columns therefore add only
    # +-0: these liftings equal those through the sliced blocks bitwise
    rhs_f = rhs_u[free] - (Kuu @ u_bc)[free]
    rhs_p = C @ u_bc
    A0 = spaces.maps.saddle([Kuu, C])
    del Kuu, C
    # after assembly, so that its workspace does not add to theirs, and
    # after the physical gradients exist
    if harmonic is not None:
        harmonic.prepare(mesh, spaces)
    uf, p, lam, stats = solve_saddle(SaddleSystem(
        A0=A0, rhs_u=rhs_f, rhs_p=rhs_p, mean_vector=m), factor)
    u = u_bc.copy()
    u[free] = uf
    return u, p, lam, stats


def mesh_velocity(state: State) -> np.ndarray:
    """The mesh velocity of state: its w, or, when it has none, the
    harmonic extension of its u built on the calling thread."""
    if state.w is None:
        return harmonic_extension(state.mesh, state.spaces, state.u)
    return state.w.result()


def step(state: State, config: SimConfig) -> State:
    """Advance the coupled system by one time step."""
    params = config.params
    tau = config.tau

    # (1) mesh velocity from the current velocity
    w = mesh_velocity(state)
    state.mesh.release_tables()         # before the moved mesh's is built

    # (2) move the mesh, carrying all coefficients nodally
    x_new = advance_mesh(state.mesh.x, w, tau)
    mesh = move_mesh(state.mesh, x_new)
    spaces = spaces_with_mesh(state.spaces, mesh)

    # (3) implicit flow solve with convection frozen at u^n - w^n, on
    # the moved mesh's geometry table, built in halves with the worker
    mesh.tables(state.harmonic.submit)
    load = assemble_load(mesh, spaces, params)
    u, p, _, stats = flow_solve(mesh, spaces, params, tau, state.u,
                                transport=state.u - w, load=load,
                                factor=state.factor, harmonic=state.harmonic)
    w_next = state.harmonic.extend(spaces, u)

    # (4) remesh on the angle criterion
    fields = {"u": ("velocity", u), "p": ("pressure", p)}
    mesh2, spaces2, fields2, did_remesh, min_angle = check_and_remesh(
        mesh, spaces, fields, config.rect, config.h,
        angle_threshold=config.remesh_angle)
    if did_remesh:
        u = fields2["u"][1]
        p = fields2["p"][1]
    return State(
        t=state.t + tau, mesh=mesh2, spaces=spaces2, u=u, p=p,
        min_angle=min_angle,
        remesh_count=state.remesh_count + int(did_remesh),
        # a factor of the old mesh cannot precondition the new one
        factor=None if did_remesh else stats.factor,
        saddle_iterations=stats.iterations,
        saddle_factorizations=(state.saddle_factorizations
                               + stats.factorizations),
        harmonic=state.harmonic,
        w=None if did_remesh else w_next)


def record_state(state: State, config: SimConfig) -> BenchmarkRecord:
    return benchmark_record(state.t, state.mesh, state.spaces.velocity,
                            state.u, config.params, state.min_angle,
                            state.remesh_count)


def run(config: SimConfig, sinks=()):
    """Run the simulation; returns (final state, list of records).

    sinks are callables invoked as sink(step_index, state, record) at
    every recorded step (including the initial state).  The harmonic
    worker of the states is closed on return, also when a step or a
    sink raises.
    """
    state = initialize(config)
    try:
        records = [record_state(state, config)]
        for sink in sinks:
            sink(0, state, records[-1])
        n = config.n_steps
        for i in range(1, n + 1):
            state = step(state, config)
            if i % config.record_every == 0 or i == n:
                rec = record_state(state, config)
                records.append(rec)
                for sink in sinks:
                    sink(i, state, rec)
    finally:
        state.harmonic.close()
    return state, records
