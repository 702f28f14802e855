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
  u by a direct solve on a factor of the interior block that the run's
  lagged harmonic factor makes and keeps (`ale.harmonic_extension`),
  and releases the old mesh's geometry table;
- (2) moves the mesh;
- (3) builds the moved mesh's geometry table and assembles the load,
  reads the four blocks of A_mu and the moved mesh's Laplacian, the
  configuration the next step extends on, off one gradient Gram,
  assembles C, M_rho, the convection form and the pressure mean, adds
  M_rho / tau and the convection form to the diagonal blocks, all on
  the scalar pattern, gathers the saddle matrix from the blocks and C,
  and runs the saddle solve on the numbering's lagged saddle factor;
- (4) checks the mesh and remeshes on the angle criterion.  A step that
  keeps its mesh then extends u on the Laplacian of (3) and the lagged
  harmonic factor, by CG from the w of (1), the w of the next state
  (`ale.extend`).  A step that remeshes extends nothing and frees the
  factors that both lagged factors hold, whose numbering is dead; the
  next step extends by a direct solve, as the first step does.

The run's two lagged factors, of the saddle solve and of the extension,
are made by `initialize` and count their own solves.  Both follow one
rule (`linalg.LaggedFactor`): a solve that overran its cap drops its
factor, and the next solve refactors from its own matrix.  A factor
held across steps pins the memory it lands on (see `ale.splu`).

With BLAS on one thread the results are therefore bitwise the same
whatever the number of CPUs (see `cli`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ale, linalg
from .ale import (
    advance_mesh,
    check_and_remesh,
    extend,
    harmonic_extension,
    move_mesh,
    spaces_with_mesh,
)
from .assembly import (
    PhaseParams,
    assemble,
    assemble_convection,
    assemble_load,
    pressure_mean_vector,
    scalar_mass,
    viscous_and_laplacian,
)
from .fespace import FESpacePair, build_taylor_hood
from .linalg import LaggedFactor, SaddleSystem, solve_saddle
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

    def __post_init__(self):
        if self.tau <= 0 or self.h <= 0 or self.T < 0:
            raise ValueError("tau and h must be positive, T non-negative")
        if self.k not in (2, 3):
            raise ValueError(f"unsupported degree k={self.k}; the "
                             f"Taylor-Hood pairs need k = 2 or 3")
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

    remesh_count counts the remeshes so far.  factor and harmonic_factor
    are the run's two lagged factors (`linalg.LaggedFactor`), on which
    the next flow solve and the next extension run, each holding a
    factor of the numbering of spaces or none, and each counting its
    solves: the iterations of its last solve and the factorizations
    since initialize().  w is the extension of u on mesh, made by the
    step that made the state; it is None after initialize() and after a
    remesh.  The state is frozen and u read-only, so w cannot go stale.

    The lagged factors are not: a step hands on the objects it got, and
    its solves replace the factors inside them and add to their counts.
    So the states of a run share their lagged factors, and so do two
    branches stepped from one state, each solving on what the other
    left; their results agree to the solvers' tolerances, not bitwise.
    """

    t: float
    mesh: Mesh
    spaces: FESpacePair
    u: np.ndarray
    p: np.ndarray
    factor: LaggedFactor
    harmonic_factor: LaggedFactor
    remesh_count: int = 0
    w: np.ndarray | None = None

    def __post_init__(self):
        self.u.setflags(write=False)


def initialize(config: SimConfig) -> State:
    mesh = generate_bubble_mesh(config.rect, config.circle_center,
                                config.circle_radius, config.h, config.k)
    spaces = build_taylor_hood(mesh, config.k)
    u = np.zeros(2 * spaces.velocity.n_dofs)
    p = np.zeros(spaces.pressure.n_dofs)
    return State(t=0.0, mesh=mesh, spaces=spaces, u=u, p=p,
                 factor=LaggedFactor(linalg.MAX_ITERATIONS),
                 harmonic_factor=LaggedFactor(ale.MAX_ITERATIONS))


def flow_solve(mesh: Mesh, spaces: FESpacePair, params: PhaseParams,
               tau: float, u_old: np.ndarray, transport: np.ndarray,
               load: np.ndarray, boundary_values: np.ndarray | None = None,
               factor: LaggedFactor | None = None):
    """One implicit solve of the momentum/divergence system.

    Solves (M_rho / tau + B(transport) + A_mu) u - C^T p = load + M_rho
    u_old / tau with no-slip rows replaced by boundary_values (zero by
    default) and the zero-mean pressure constraint, on the lagged factor
    factor when one is given (see `solve_saddle`).  The velocity blocks
    are sums on the scalar pattern: the four of A_mu, read off one
    gradient Gram with L, the scalar Laplacian of mesh that a step
    extends the new u by (`viscous_and_laplacian`), and M_rho / tau + B
    added to the diagonal two.  `DofMaps.saddle` gathers the saddle
    matrix from them and C.  Returns (u, p, multiplier, factor, L),
    factor the `LaggedFactor` the saddle solve ran on.
    """
    maps = spaces.maps
    Kuu, L = viscous_and_laplacian(mesh, spaces, params)
    C = assemble("C", mesh, spaces, params)
    M_rho = scalar_mass(mesh, spaces.velocity, params.rho_of(mesh.phase),
                        maps.scalar)
    B_conv = assemble_convection(mesh, spaces, params, transport)
    m = pressure_mean_vector(mesh, spaces)

    rhs_u = load + (M_rho @ u_old.reshape(-1, 2)).ravel() / tau
    for block in (Kuu[0], Kuu[3]):
        block.data = (M_rho.data * (1.0 / tau) + block.data) + B_conv.data
    del M_rho, B_conv

    free = maps.saddle_mask
    u_bc = np.zeros(2 * spaces.velocity.n_dofs)
    rhs_f, rhs_p = rhs_u[free], np.zeros(C.shape[0])
    if boundary_values is not None:
        bnd = spaces.vector_dofs(spaces.boundary_dofs)
        u_bc[bnd] = boundary_values[bnd]
        # u_bc vanishes on the free DOFs, whose columns therefore add
        # only +-0: these liftings equal those through the sliced blocks
        # bitwise
        rhs_f -= (maps.blocks(Kuu) @ u_bc)[free]
        rhs_p = C @ u_bc
    A0 = maps.saddle(Kuu + [C])
    del Kuu, C
    uf, p, lam, factor = solve_saddle(SaddleSystem(
        A0=A0, rhs_u=rhs_f, rhs_p=rhs_p, mean_vector=m), factor)
    u = u_bc.copy()
    u[free] = uf
    return u, p, lam, factor, L


def step(state: State, config: SimConfig) -> State:
    """Advance the coupled system by one time step."""
    params = config.params
    tau = config.tau

    # (1) mesh velocity from the current velocity.  A state without w
    # starts a numbering: its extension is direct, on a factor it makes.
    w = state.w
    if w is None:
        w = harmonic_extension(state.mesh, state.spaces, state.u,
                               state.harmonic_factor)
    state.mesh.release_tables()         # before the moved mesh's is built

    # (2) move the mesh, carrying all coefficients nodally
    x_new = advance_mesh(state.mesh.x, w, tau)
    mesh = move_mesh(state.mesh, x_new)
    spaces = spaces_with_mesh(state.spaces, mesh)

    # (3) implicit flow solve with convection frozen at u^n - w^n
    load = assemble_load(mesh, spaces, params)
    u, p, _, _, L = flow_solve(mesh, spaces, params, tau, state.u,
                               transport=state.u - w, load=load,
                               factor=state.factor)

    # (4) remesh on the angle criterion, or extend u on the moved mesh
    mesh2, spaces2, (u, p), did_remesh = check_and_remesh(
        mesh, spaces, u, p, config.rect, config.h,
        angle_threshold=config.remesh_angle)
    if did_remesh:
        # factors of the old numbering cannot precondition the new one,
        # which starts with a direct extension
        state.factor.factor = state.harmonic_factor.factor = None
        w_next = None
    else:
        w_next = extend(L, spaces, u, state.harmonic_factor, w)
    return State(
        t=state.t + tau, mesh=mesh2, spaces=spaces2, u=u, p=p,
        factor=state.factor, harmonic_factor=state.harmonic_factor,
        remesh_count=state.remesh_count + int(did_remesh), w=w_next)


def record_state(state: State, config: SimConfig) -> BenchmarkRecord:
    return benchmark_record(state.t, state.mesh, state.spaces.velocity,
                            state.u, config.params,
                            quality(state.mesh).min_angle,
                            state.remesh_count)


def run(config: SimConfig, sinks=()):
    """Run the simulation; returns (final state, list of records).

    Every t-level is recorded, the initial state's included, and sinks
    are callables invoked as sink(step_index, state, record) at each.
    """
    state = initialize(config)
    records = []
    for i in range(config.n_steps + 1):
        if i:
            state = step(state, config)
        records.append(record_state(state, config))
        for sink in sinks:
            sink(i, state, records[-1])
    return state, records
