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
thread (see `HarmonicWorker`).  The jobs, in the order the step hands
them over, and what the calling thread does meanwhile on two CPUs:

- once (1) has w and has released the old mesh's geometry table, the
  factoring of the interior block of a new numbering's mesh Laplacian,
  when (1) was a direct solve, or else the refactoring of the worker's
  lagged factor, when the extension of the step before spent more than
  `ale.MAX_ITERATIONS` CG iterations, and nothing otherwise; then the
  upper half of the moved mesh's geometry table, while it moves the
  mesh, builds the lower half and assembles the load;
- A_mu with the mesh Laplacian of the moved mesh (the configuration the
  next step extends on), both read off one gradient Gram, while it
  assembles C, M_rho, the convection form and the pressure mean, and
  then runs the saddle solve, during which the worker factors nothing.
  So both take about as long: at h=0.04 on a 2-CPU Xeon VM, the Gram
  23.5 ms and the rest 24.3 ms (medians of 28 steps); with C on the
  worker, the calling thread waited 6.7 ms per step for it;
- once `flow_solve` returns u, the extension of u by that Laplacian, by
  CG preconditioned with the lagged factor, the w of the next state
  unless the step remeshes, while it checks the mesh and records the
  state.

A step that remeshes frees the lagged factor, whose numbering is dead,
before it returns; the next step extends on the calling thread by a
direct solve, as the first step does.
"""

from __future__ import annotations

import math
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from .ale import (
    Extension,
    HarmonicWorker,
    advance_mesh,
    check_and_remesh,
    harmonic_extension,
    mesh_laplacian,
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
    viscous_and_laplacian,
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
    factorizations since initialize().  harmonic_iterations are the CG
    iterations of the mesh velocity the last step moved by (0 for a
    direct solve), and harmonic_factorizations the factorizations made
    for the mesh velocities the steps since initialize() moved by.
    harmonic is the step worker, made with the first state and handed
    from state to state; `run` closes it.  w is the future of the
    `Extension` of u on mesh, which the step that made the state started
    on harmonic; it is None after initialize() and after a remesh (see
    `mesh_velocity`).  The state is frozen and u read-only, so w cannot
    go stale.
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
    harmonic_iterations: int = 0
    harmonic_factorizations: int = 0
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
    factor when one is given (see `solve_saddle`).  A_mu with the mesh
    Laplacian L is a job of harmonic (see `HarmonicWorker`), which then
    takes L for the extension of u (`HarmonicWorker.prepare`); without
    harmonic the job runs on the calling thread.  Returns (u, p,
    multiplier, stats).
    """
    submit = submit_inline if harmonic is None else harmonic.submit
    # built here, so that the job only reads them
    geometry(mesh)
    maps = spaces.maps
    maps.scalar, maps.vector, maps.interior
    job = submit(viscous_and_laplacian, mesh, spaces, params)
    C = assemble("C", mesh, spaces, params)
    M_rho = assemble("M_rho", mesh, spaces, params)
    B_conv = assemble_convection(mesh, spaces, params, transport)
    m = pressure_mean_vector(mesh, spaces)
    A_mu, L = job.result()
    del job                     # the future holds A_mu and L too

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
    A0 = maps.saddle([Kuu, C])
    del Kuu, C
    if harmonic is not None:
        harmonic.prepare(L)
    del L
    uf, p, lam, stats = solve_saddle(SaddleSystem(
        A0=A0, rhs_u=rhs_f, rhs_p=rhs_p, mean_vector=m), factor)
    u = u_bc.copy()
    u[free] = uf
    return u, p, lam, stats


def mesh_velocity(state: State, L=None) -> Extension:
    """The mesh velocity of state: its w, or, when it has none, the
    harmonic extension of its u by a direct solve on the calling thread
    (no CG iterations, one factorization), by L, the mesh Laplacian of
    state.mesh, when given."""
    if state.w is None:
        return Extension(harmonic_extension(state.mesh, state.spaces,
                                            state.u, L), 0, 1)
    return state.w.result()


def step(state: State, config: SimConfig) -> State:
    """Advance the coupled system by one time step."""
    params = config.params
    tau = config.tau
    harmonic = state.harmonic

    # (1) mesh velocity from the current velocity.  A state without w
    # starts a numbering: the worker factors the interior block of the
    # Laplacian of its direct extension, as the step's first job.
    L = mesh_laplacian(state.mesh, state.spaces) if state.w is None else None
    extension = mesh_velocity(state, L)
    w = extension.w
    state.mesh.release_tables()         # before the moved mesh's is built
    # after the release, where the step's memory is at its low point
    harmonic.refactor(state.spaces, L)
    del L

    # (2) move the mesh, carrying all coefficients nodally
    x_new = advance_mesh(state.mesh.x, w, tau)
    mesh = move_mesh(state.mesh, x_new)
    spaces = spaces_with_mesh(state.spaces, mesh)

    # (3) implicit flow solve with convection frozen at u^n - w^n, on
    # the moved mesh's geometry table, built in halves with the worker
    mesh.tables(harmonic.submit)
    load = assemble_load(mesh, spaces, params)
    u, p, _, stats = flow_solve(mesh, spaces, params, tau, state.u,
                                transport=state.u - w, load=load,
                                factor=state.factor, harmonic=harmonic)
    w_next = harmonic.extend(spaces, u)

    # (4) remesh on the angle criterion
    fields = {"u": ("velocity", u), "p": ("pressure", p)}
    mesh2, spaces2, fields2, did_remesh, min_angle = check_and_remesh(
        mesh, spaces, fields, config.rect, config.h,
        angle_threshold=config.remesh_angle)
    if did_remesh:
        u = fields2["u"][1]
        p = fields2["p"][1]
        # before the next step factors the new numbering's block
        harmonic.drop()
    return State(
        t=state.t + tau, mesh=mesh2, spaces=spaces2, u=u, p=p,
        min_angle=min_angle,
        remesh_count=state.remesh_count + int(did_remesh),
        # a factor of the old mesh cannot precondition the new one
        factor=None if did_remesh else stats.factor,
        saddle_iterations=stats.iterations,
        saddle_factorizations=(state.saddle_factorizations
                               + stats.factorizations),
        harmonic_iterations=extension.iterations,
        harmonic_factorizations=(state.harmonic_factorizations
                                 + extension.factorizations),
        harmonic=harmonic,
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
