"""Linearly semi-implicit Euler integrator for the coupled flow.

Each step: (1) solve the harmonic extension of the current velocity to
get the mesh velocity, (2) move the nodes by one forward-Euler update
carrying all coefficients nodally, (3) assemble and solve one linear
saddle problem on the new mesh with the convection field frozen at the
old velocity relative to the mesh, (4) remesh if the minimum angle
dropped too far.  Diffusion, pressure and divergence are implicit; the
constant gravity enters explicitly.

The mesh velocity w^n, the harmonic extension of u^n on mesh^n, is a
function of the state, and the state carries it (`State.w`).  Assembly,
quality checks and observables of one mesh configuration all read the
geometry table that its mesh keeps (`Mesh.tables`), and every
configuration of one DOF numbering shares the index maps that its
spaces keep (`FESpacePair.maps`).  So a step without a remesh builds
exactly one table, that of the moved mesh, and no index map.  Once (1)
has w, the step releases the table of the mesh it leaves, which nothing
reads again: kept, it raised the peak memory of a run at h=0.04 by 10%.

A step runs on the calling thread, in this order:

- (1) takes the state's w, or, in the first step of a numbering, extends
  u by a direct solve, and releases the old mesh's geometry table; then,
  where the step's memory is at its low point, it factors the interior
  block of the Laplacian of that direct extension for the steps after
  it, or refactors the state's lagged factor when the extension before
  spent more than `ale.MAX_ITERATIONS` CG iterations
  (`ale.LaggedFactor`).  A factor held across steps pins the memory it
  lands on (see `ale.splu`);
- (2) moves the mesh;
- (3) builds the moved mesh's geometry table and assembles the load,
  reads A_mu and the moved mesh's Laplacian, the configuration the next
  step extends on, off one gradient Gram, assembles C, M_rho, the
  convection form and the pressure mean, and runs the saddle solve;
- (4) checks the mesh and remeshes on the angle criterion.  A step that
  keeps its mesh then extends u by CG on the Laplacian of (3),
  preconditioned with the lagged factor, the w of the next state.  A
  step that remeshes extends nothing and drops the lagged factor, whose
  numbering is dead; the next step extends by a direct solve, as the
  first step does.

With BLAS on one thread the results are therefore bitwise the same
whatever the number of CPUs (see `cli`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ale import (
    Extension,
    LaggedFactor,
    advance_mesh,
    check_and_remesh,
    harmonic_extension,
    mesh_laplacian,
    move_mesh,
    spaces_with_mesh,
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
    harmonic_factor is the lagged factor of the interior block of the
    numbering of spaces, handed from state to state like factor, by
    which the step extends the next w.  w is the `Extension` of u on
    mesh, made by the step that made the state.  Both are None after
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
    harmonic_iterations: int = 0
    harmonic_factorizations: int = 0
    harmonic_factor: LaggedFactor | None = None
    w: Extension | None = None

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
               factor: SaddleFactor | None = None):
    """One implicit solve of the momentum/divergence system.

    Solves (M_rho / tau + B(transport) + A_mu) u - C^T p = load + M_rho
    u_old / tau with no-slip rows replaced by boundary_values (zero by
    default) and the zero-mean pressure constraint, preconditioned by
    factor when one is given (see `solve_saddle`).  A_mu is read off one
    gradient Gram together with L, the scalar Laplacian of mesh
    (`viscous_and_laplacian`), which a step extends the new u by.
    Returns (u, p, multiplier, stats, L).
    """
    A_mu, L = viscous_and_laplacian(mesh, spaces, params)
    C = assemble("C", mesh, spaces, params)
    M_rho = assemble("M_rho", mesh, spaces, params)
    B_conv = assemble_convection(mesh, spaces, params, transport)
    m = pressure_mean_vector(mesh, spaces)

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
    uf, p, lam, stats = solve_saddle(SaddleSystem(
        A0=A0, rhs_u=rhs_f, rhs_p=rhs_p, mean_vector=m), factor)
    u = u_bc.copy()
    u[free] = uf
    return u, p, lam, stats, L


def mesh_velocity(state: State, L=None) -> Extension:
    """The mesh velocity of state: its w, or, when it has none, the
    harmonic extension of its u by a direct solve (no CG iterations, one
    factorization), by L, the mesh Laplacian of state.mesh, when
    given."""
    if state.w is None:
        return Extension(harmonic_extension(state.mesh, state.spaces,
                                            state.u, L), 0, 1)
    return state.w


def step(state: State, config: SimConfig) -> State:
    """Advance the coupled system by one time step."""
    params = config.params
    tau = config.tau

    # (1) mesh velocity from the current velocity.  A state without w
    # starts a numbering: the interior block of the Laplacian of its
    # direct extension is factored for the extensions after it.
    L = mesh_laplacian(state.mesh, state.spaces) if state.w is None else None
    extension = mesh_velocity(state, L)
    w = extension.w
    state.mesh.release_tables()         # before the moved mesh's is built
    # after the release, where the step's memory is at its low point
    lagged = state.harmonic_factor
    if L is not None:
        lagged = LaggedFactor(L, state.spaces.maps.interior)
    elif lagged.stale is not None:      # the extension before overran
        lagged.refactor(lagged.stale)
    del L

    # (2) move the mesh, carrying all coefficients nodally
    x_new = advance_mesh(state.mesh.x, w, tau)
    mesh = move_mesh(state.mesh, x_new)
    spaces = spaces_with_mesh(state.spaces, mesh)

    # (3) implicit flow solve with convection frozen at u^n - w^n
    load = assemble_load(mesh, spaces, params)
    u, p, _, stats, L = flow_solve(mesh, spaces, params, tau, state.u,
                                   transport=state.u - w, load=load,
                                   factor=state.factor)

    # (4) remesh on the angle criterion, or extend u on the moved mesh
    fields = {"u": ("velocity", u), "p": ("pressure", p)}
    mesh2, spaces2, fields2, did_remesh, min_angle = check_and_remesh(
        mesh, spaces, fields, config.rect, config.h,
        angle_threshold=config.remesh_angle)
    if did_remesh:
        u = fields2["u"][1]
        p = fields2["p"][1]
        # the new numbering starts with a direct extension
        lagged = w_next = None
    else:
        w_next = lagged.extend(L, spaces, u)
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
        harmonic_factor=lagged,
        w=w_next)


def record_state(state: State, config: SimConfig) -> BenchmarkRecord:
    return benchmark_record(state.t, state.mesh, state.spaces.velocity,
                            state.u, config.params, state.min_angle,
                            state.remesh_count)


def run(config: SimConfig, sinks=()):
    """Run the simulation; returns (final state, list of records).

    sinks are callables invoked as sink(step_index, state, record) at
    every recorded step (including the initial state).
    """
    state = initialize(config)
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
    return state, records
