import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from alefem import ale, linalg, stepper
from alefem.ale import extend, move_mesh, spaces_with_mesh
from alefem.assembly import (
    assemble,
    assemble_convection,
    assemble_load,
    pressure_mean_vector,
    PhaseParams,
    scalar_laplacian,
)
from alefem.fespace import build_taylor_hood, interpolate
from alefem.linalg import (
    LaggedFactor,
    SaddleFactor,
    SaddleSystem,
    saddle_matrix,
    solve_saddle,
)
from alefem.mesh import generate_bubble_mesh, generate_rect_mesh
from alefem.stepper import SimConfig, flow_solve

import loop_reference
from conftest import BP1, CENTER, RADIUS, RECT, kron2, smooth_displacement


def test_saddle_zero_rhs_gives_zero():
    mesh = generate_rect_mesh((0, 0, 1, 1), 0.25, 2)
    spaces = build_taylor_hood(mesh, 2)
    params = PhaseParams(1.0, 1.0, 1.0, 1.0, 1.0)
    A_mu = assemble("A_mu", spaces, params)
    M_rho = assemble("M_rho", spaces, params)
    C = assemble("C", spaces)
    m = pressure_mean_vector(spaces)
    bnd = spaces.vector_dofs(spaces.boundary_dofs)
    free = np.ones(2 * spaces.velocity.n_dofs, dtype=bool)
    free[bnd] = False
    Kff = (M_rho + A_mu).tocsr()[free][:, free]
    Cf = C[:, free]
    u, p, lam, _ = solve_saddle(SaddleSystem(
        A0=saddle_matrix(Kff, (-Cf).tocsr()), rhs_u=np.zeros(Kff.shape[0]),
        rhs_p=np.zeros(C.shape[0]), mean_vector=m))
    assert np.abs(u).max() < 1e-14
    assert np.abs(p).max() < 1e-14
    assert lam == pytest.approx(0.0, abs=1e-14)


def manufactured_stokes(h):
    """Steady Stokes with u = curl of a scalar cubic, p = x - 1/2."""
    mesh = generate_rect_mesh((0, 0, 1, 1), h, 2)
    spaces = build_taylor_hood(mesh, 2)
    params = PhaseParams(1.0, 1.0, 1.0, 1.0, 1.0)

    # psi = x^2 y  ->  u = (x^2, -2xy), div u = 0
    def exact_u(x, y):
        return (x * x, -2.0 * x * y)

    # f = -laplace(u) + grad p = (-2, 0) + (1, 0)
    def force(x, y):
        return (-1.0, 0.0)

    u_bc = interpolate(spaces.velocity, exact_u, vector=True)
    f_nodal = interpolate(spaces.velocity, force, vector=True)
    M = assemble("M", spaces)
    load = M @ f_nodal
    # steady Stokes: take one huge implicit step with zero transport
    u, p, lam, _, _ = flow_solve(spaces, params, 1e12,
                                 np.zeros_like(u_bc),
                                 transport=np.zeros_like(u_bc), load=load,
                                 boundary_values=u_bc)
    return mesh, spaces, u, p, lam, u_bc


def test_saddle_manufactured_stokes():
    mesh, spaces, u, p, lam, u_exact = manufactured_stokes(0.25)
    # quadratic velocity and linear pressure are reproduced exactly
    assert np.abs(u - u_exact).max() < 1e-9
    pe = interpolate(spaces.pressure, lambda x, y: x - 0.5)
    m = pressure_mean_vector(spaces)
    assert np.abs(m @ p) < 1e-10
    shift = (m @ (p - pe)) / (m @ np.ones_like(m))
    assert np.abs(p - pe - shift).max() < 1e-9
    assert abs(lam) < 1e-6


def test_saddle_divergence_residual():
    mesh, spaces, u, p, lam, _ = manufactured_stokes(0.25)
    C = assemble("C", spaces)
    assert np.abs(C @ u).max() < 1e-9


def test_saddle_deterministic():
    r1 = manufactured_stokes(0.25)
    r2 = manufactured_stokes(0.25)
    assert np.array_equal(r1[2], r2[2])
    assert np.array_equal(r1[3], r2[3])


def test_infsup_constant_stable_under_refinement():
    """Square root of the smallest nonzero eigenvalue of the
    pressure-mass-scaled Schur operator; must not collapse under one
    refinement (qualitative inf-sup check on tiny meshes)."""
    from scipy.linalg import eigh

    from alefem.assembly import scalar_mass

    vals = []
    for h in (0.5, 0.25):
        mesh = generate_rect_mesh((0, 0, 1, 1), h, 2)
        spaces = build_taylor_hood(mesh, 2)
        A = assemble("A", spaces) + assemble("M", spaces)
        C = assemble("C", spaces)
        bnd = spaces.vector_dofs(spaces.boundary_dofs)
        free = np.ones(2 * spaces.velocity.n_dofs, dtype=bool)
        free[bnd] = False
        Af = A.tocsr()[free][:, free].toarray()
        Cf = C[:, free].toarray()
        Mp = scalar_mass(spaces.pressure).toarray()
        S = Cf @ np.linalg.solve(Af, Cf.T)
        lam = eigh(S, Mp, eigvals_only=True)
        nonzero = lam[lam > 1e-10 * lam.max()]
        vals.append(np.sqrt(nonzero.min()))
        assert 2 * spaces.velocity.n_dofs <= 600  # stays a tiny problem
    assert vals[1] > 0.5 * vals[0]
    assert vals[1] > 0.05


TAU = 1.0 / 200.0


def bubble_saddle(spaces, u_old):
    """The saddle system of one rising-bubble step on the given spaces."""
    M_rho = assemble("M_rho", spaces, BP1)
    Kuu = (M_rho / TAU + assemble("A_mu", spaces, BP1)
           + kron2(assemble_convection(spaces, BP1, u_old))).tocsr()
    rhs = assemble_load(spaces, BP1) + M_rho @ u_old / TAU
    C = assemble("C", spaces)
    free = np.ones(2 * spaces.velocity.n_dofs, dtype=bool)
    free[spaces.vector_dofs(spaces.boundary_dofs)] = False
    return SaddleSystem(A0=saddle_matrix(Kuu[free][:, free],
                                         (-C[:, free]).tocsr()),
                        rhs_u=rhs[free], rhs_p=np.zeros(C.shape[0]),
                        mean_vector=pressure_mean_vector(spaces))


@pytest.fixture(scope="module")
def lagged_pair():
    """Saddle systems of two configurations an O(tau) mesh motion apart."""
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.16, 2)
    spaces = build_taylor_hood(mesh, 2)
    rng = np.random.default_rng(5)
    u = smooth_displacement(rng, spaces.velocity.positions, 0.05)
    u[spaces.vector_dofs(spaces.boundary_dofs)] = 0.0
    moved = move_mesh(mesh, mesh.x + TAU * u[:len(mesh.x)])
    return (bubble_saddle(spaces, u),
            bubble_saddle(spaces_with_mesh(spaces, moved), u))


def assert_on_target(system, u, p, lam):
    """The bordered residual meets the 1e-12 refinement target."""
    A0 = system.A0
    m = system.mean_vector
    x = np.concatenate([u, p])
    rhs = np.concatenate([system.rhs_u, system.rhs_p])
    c = np.concatenate([np.zeros(len(u)), m])
    res = max(np.abs(rhs - A0 @ x - lam * c).max(), abs(m @ p))
    norm_A = np.abs(A0).sum(axis=1).max() + np.abs(m).sum()
    assert res <= 1e-12 * max(norm_A * np.abs(x).max(), np.abs(rhs).max())


def test_lagged_factor_matches_fresh_solve(lagged_pair):
    old, new = lagged_pair
    *_, first = solve_saddle(old)
    assert first.factorizations == 1
    held = first.factor
    u, p, lam, lagged = solve_saddle(new, first)
    assert lagged is first and lagged.factorizations == 1
    assert lagged.factor is held
    assert 2 < lagged.iterations <= 20
    uf, pf, lamf, fresh = solve_saddle(new)
    assert fresh.factorizations == 1
    assert_on_target(new, u, p, lam)
    assert_on_target(new, uf, pf, lamf)
    assert np.abs(u - uf).max() <= 1e-10 * np.abs(uf).max()
    assert np.abs(p - pf).max() <= 1e-10 * np.abs(pf).max()


def test_unusable_factor_is_replaced(lagged_pair):
    """A lagged factor that cannot reach the refinement target is
    replaced by a fresh factorization, on which the solve ends bitwise
    as a solve that factors afresh from the start."""
    _, new = lagged_pair
    expect = solve_saddle(new)
    n = new.A0.shape[0]
    c = np.concatenate([np.zeros(len(new.rhs_u)), new.mean_vector])
    useless = SaddleFactor(sparse.identity(n, format="csr"), c,
                           len(new.rhs_u))
    lagged = LaggedFactor(linalg.MAX_ITERATIONS)
    lagged.factor = useless
    u, p, lam, returned = solve_saddle(new, lagged)
    assert lagged.factorizations == 1
    assert returned is lagged
    assert lagged.factor is not useless and lagged.factor is not None
    assert np.array_equal(u, expect[0])
    assert np.array_equal(p, expect[1])
    assert lam == expect[2]


class CountingCSR(sparse.csr_matrix):
    """A CSR matrix that logs (its id, the bytes of the vector) for
    every vector it multiplies; abs() of it is one too."""

    log: list = []

    def _matmul_vector(self, other):
        self.log.append((id(self), other.tobytes()))
        return super()._matmul_vector(other)


def counted_solve(system, factor):
    """The solution, iterations, product log and the id of A0."""
    CountingCSR.log = []
    A0 = CountingCSR(system.A0)
    u, p, lam, factor = solve_saddle(
        SaddleSystem(A0=A0, rhs_u=system.rhs_u, rhs_p=system.rhs_p,
                     mean_vector=system.mean_vector), factor)
    return (u, p, lam, factor.iterations), CountingCSR.log, id(A0)


def test_refinement_checks_each_iterate_once(lagged_pair):
    """GMRES checks an iterate only once its residual is within reach of
    the target, and refinement reuses the check GMRES ran on its last
    correction as that of the next iterate.  So the solve multiplies by
    A0 fewer times than the frozen solve, which checked every iterate,
    and the only product taken twice is A0 times the solution: by the
    last check and by the final residual check of solve_saddle."""
    old, new = lagged_pair
    factor = solve_saddle(old)[3]
    saddle_factor = factor.factor
    reused, log, A0 = counted_solve(new, factor)
    assert reused[3] > 2                        # GMRES ran
    CountingCSR.log = []
    counted = CountingCSR(new.A0)
    loop_reference.solve_saddle(SaddleSystem(
        A0=counted, rhs_u=new.rhs_u, rhs_p=new.rhs_p,
        mean_vector=new.mean_vector), saddle_factor)
    frozen = [entry for entry in CountingCSR.log if entry[0] == id(counted)]
    assert len([entry for entry in log if entry[0] == A0]) < len(frozen)
    x = np.concatenate([reused[0], reused[1]]).tobytes()
    twice = [entry for entry in set(log) if log.count(entry) > 1]
    assert twice == [(A0, x)]


def assert_as_frozen(system, saddle_factor):
    """The solve on saddle_factor spends the applications the frozen
    solve spends, and agrees with it to 1e-12 of the solution's size."""
    lagged = LaggedFactor(linalg.MAX_ITERATIONS)
    lagged.factor = saddle_factor
    u, p, lam, _ = solve_saddle(system, lagged)
    assert lagged.factorizations == 0
    uf, pf, lamf, iterations = loop_reference.solve_saddle(system,
                                                           saddle_factor)
    assert lagged.iterations == iterations
    x, xf = np.concatenate([u, p]), np.concatenate([uf, pf])
    assert np.abs(x - xf).max() <= 1e-12 * np.abs(xf).max()


def test_gated_gmres_spends_what_checking_every_iterate_did(
        lagged_pair, bubble_run_systems):
    old, new = lagged_pair
    assert_as_frozen(new, solve_saddle(old)[3].factor)
    first, later = bubble_run_systems
    assert_as_frozen(later, solve_saddle(first)[3].factor)
    assert_as_frozen(later, solve_saddle(later)[3].factor)


def test_saddle_factor_solves_the_shifted_bordered_system(lagged_pair):
    """F x + lam c = r and c^T x = s to roundoff, F = A0 - EPSILON sigma
    E_p the matrix the factor inverts."""
    system = lagged_pair[1]
    A0, n_u = system.A0, len(system.rhs_u)
    n = A0.shape[0]
    c = np.concatenate([np.zeros(n_u), system.mean_vector])
    sigma = np.abs(A0.diagonal()).max()
    F = A0 - sparse.diags(linalg.EPSILON * sigma * (np.arange(n) >= n_u))
    rs = np.random.default_rng(3).standard_normal(n + 1)
    xl = SaddleFactor(A0, c, n_u).solve(rs)
    x, lam = xl[:n], xl[n]
    # normwise: the pressures solve a block EPSILON from singular
    norm_F = abs(F).sum(axis=1).max() + np.abs(c).sum()
    scale = norm_F * np.abs(xl).max() + np.abs(rs).max()
    assert np.abs(F @ x + lam * c - rs[:n]).max() <= 1e-14 * scale
    assert abs(c @ x - rs[n]) <= 1e-14 * scale


@pytest.fixture(scope="module")
def bubble_run_systems():
    """The saddle systems of steps 1 and 21 of the BP1 bubble at h=0.08
    (k=2, tau=1/200), which first remeshes at step 144."""
    systems = []
    original = stepper.solve_saddle

    def capture(system, factor=None):
        systems.append(system)
        return original(system, factor)

    cfg = SimConfig(params=BP1, k=2, h=0.08, tau=TAU, T=21 * TAU)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stepper, "solve_saddle", capture)
        stepper.run(cfg)
    return systems[0], systems[20]


def test_quasi_definite_factor_halves_the_fill():
    """At h=0.04 the fill drops to 40% of the pivoted COLAMD factor's
    (1.39M against 3.50M nonzeros)."""
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.04, 2)
    spaces = build_taylor_hood(mesh, 2)
    system = bubble_saddle(spaces, np.zeros(2 * spaces.velocity.n_dofs))
    A0 = system.A0
    n_u = len(system.rhs_u)
    c = np.concatenate([np.zeros(n_u), system.mean_vector])
    factor = SaddleFactor(A0, c, n_u)
    # the pivoted COLAMD factor of A0 made nonsingular by a pin shift
    pin = int(np.argmax(np.abs(c)))
    sigma = np.abs(A0.diagonal()).max()
    shift = sparse.coo_matrix(([sigma], ([pin], [pin])), shape=A0.shape)
    pivoted = splu((A0 + shift).tocsc())
    assert factor.lu.nnz <= 0.5 * pivoted.nnz


def test_fresh_and_lagged_factors_reach_the_target(bubble_run_systems):
    first, later = bubble_run_systems
    old = solve_saddle(first)[3]
    for factor, made in ((None, 1), (old, 0)):
        before = 0 if factor is None else factor.factorizations
        u, p, lam, lagged = solve_saddle(later, factor)
        assert lagged.factorizations - before == made
        assert lagged.iterations <= linalg.MAX_ITERATIONS
        assert lagged.factor is not None            # not stale
        assert_on_target(later, u, p, lam)


# ---------------------------------------------------------------------------
# the one rule of a lagged factor, for the saddle solve and the harmonic
# extension alike


class Logged:
    """A factor that logs ("made", id, matrix) when made and ("freed",
    id) when released."""

    def __init__(self, factor, log, matrix):
        self._factor = factor
        self._log = log
        log.append(("made", id(self), matrix))

    def __getattr__(self, name):
        return getattr(self._factor, name)

    def __del__(self):
        self._log.append(("freed", id(self)))


@pytest.fixture(scope="module")
def three_configurations():
    """The spaces of a bubble mesh moved by O(tau) twice, and the
    velocity that moved it."""
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.16, 2)
    spaces = build_taylor_hood(mesh, 2)
    rng = np.random.default_rng(5)
    u = smooth_displacement(rng, spaces.velocity.positions, 0.05)
    u[spaces.vector_dofs(spaces.boundary_dofs)] = 0.0
    configurations = []
    for i in range(3):
        moved = move_mesh(mesh, mesh.x + i * TAU * u[:len(mesh.x)])
        configurations.append(spaces_with_mesh(spaces, moved))
    return configurations, u


class SaddleCase:
    """The saddle solve of each configuration."""

    def __init__(self, configurations, u, monkeypatch, log):
        self.systems = [bubble_saddle(s, u) for s in configurations]
        make = linalg.SaddleFactor
        monkeypatch.setattr(linalg, "SaddleFactor", lambda A0, c, n_u: Logged(
            make(A0, c, n_u), log, A0))
        system = self.systems[0]
        self.n_u = len(system.rhs_u)
        self.c = np.concatenate([np.zeros(self.n_u), system.mean_vector])

    def matrix(self, i):
        return self.systems[i].A0

    def solve(self, lagged, i):
        before = lagged.factorizations
        u, p, lam, returned = solve_saddle(self.systems[i], lagged)
        assert returned is lagged
        return (np.append(np.concatenate([u, p]), lam), lagged.iterations,
                lagged.factorizations - before)

    def useless(self):
        n = self.matrix(0).shape[0]
        return SaddleFactor(sparse.identity(n, format="csr"), self.c,
                            self.n_u)


class HarmonicCase:
    """The harmonic extension of u on each configuration."""

    def __init__(self, configurations, u, monkeypatch, log):
        self.configurations = configurations
        self.L = [scalar_laplacian(s.velocity, s.maps.scalar)
                  for s in configurations]
        self.u = u
        self.make = make = ale.splu
        monkeypatch.setattr(ale, "splu", lambda A: Logged(make(A), log, A))

    def matrix(self, i):
        return self.configurations[i].maps.interior([self.L[i]])

    def solve(self, lagged, i):
        before = lagged.factorizations
        w = extend(self.L[i], self.configurations[i], self.u, lagged)
        return w, lagged.iterations, lagged.factorizations - before

    def useless(self):
        return self.make(sparse.identity(self.matrix(0).shape[0],
                                         format="csc"))


def alive_at_each_make(log):
    """For each factor made, the factors alive when it was made."""
    alive, seen = set(), []
    for event in log:
        if event[0] == "made":
            seen.append(set(alive))
            alive.add(event[1])
        else:
            alive.discard(event[1])
    return seen


@pytest.mark.parametrize("Case", [SaddleCase, HarmonicCase],
                         ids=["saddle", "harmonic"])
def test_one_rule_for_every_lagged_factor(Case, three_configurations,
                                          monkeypatch):
    """Both solves follow `linalg.LaggedFactor`'s rule: a solve that
    spends more than the cap on a lagged factor drops it, and the next
    solve refactors from its own matrix; a solve that cannot converge on
    a lagged factor refactors at once and finishes on the fresh factor,
    as a solve that factors afresh does; and the old factor is freed
    before the new one is made."""
    log = []
    case = Case(*three_configurations, monkeypatch, log)
    same = lambda a, b: (a != b).nnz == 0          # noqa: E731

    lagged = LaggedFactor(1000)
    _, _, made = case.solve(lagged, 0)
    assert made == 1 and same(log[-1][2], case.matrix(0))
    first = id(lagged.factor)

    # the lagged factor of configuration 0 on configuration 1 overruns a
    # cap of 1 and goes stale: freed at once, made anew by the next solve
    lagged.cap = 1
    _, iterations, made = case.solve(lagged, 1)
    assert made == 0 and iterations > 1
    assert lagged.factor is None and log[-1] == ("freed", first)
    lagged.cap = 1000
    _, _, made = case.solve(lagged, 2)
    assert made == 1 and same(log[-1][2], case.matrix(2))
    assert lagged.factor is not None

    # a useless lagged factor: no convergence, so a refactor at once
    lagged.factor = None
    lagged.factor = Logged(case.useless(), log, None)
    useless = id(lagged.factor)
    result, iterations, made = case.solve(lagged, 1)
    assert made == 1 and iterations >= 1
    assert log[-2][:2] == ("freed", useless)
    assert same(log[-1][2], case.matrix(1))
    assert all(not alive for alive in alive_at_each_make(log))
    expect = case.solve(LaggedFactor(1000), 1)[0]
    assert np.array_equal(result, expect)
