import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from alefem import linalg, stepper
from alefem.ale import move_mesh, spaces_with_mesh
from alefem.assembly import (
    assemble,
    assemble_convection,
    assemble_load,
    pressure_mean_vector,
    PhaseParams,
)
from alefem.fespace import build_taylor_hood, interpolate
from alefem.linalg import (
    SaddleFactor,
    SaddleSystem,
    saddle_matrix,
    solve_saddle,
)
from alefem.mesh import generate_bubble_mesh, generate_rect_mesh
from alefem.stepper import SimConfig, flow_solve

from conftest import BP1, CENTER, RADIUS, RECT, smooth_displacement


def test_saddle_zero_rhs_gives_zero():
    mesh = generate_rect_mesh((0, 0, 1, 1), 0.25, 2)
    spaces = build_taylor_hood(mesh, 2)
    params = PhaseParams(1.0, 1.0, 1.0, 1.0, 1.0)
    A_mu = assemble("A_mu", mesh, spaces, params)
    M_rho = assemble("M_rho", mesh, spaces, params)
    C = assemble("C", mesh, spaces)
    m = pressure_mean_vector(mesh, spaces)
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
    M = assemble("M", mesh, spaces)
    load = M @ f_nodal
    # steady Stokes: take one huge implicit step with zero transport
    u, p, lam, _, _ = flow_solve(mesh, spaces, params, 1e12,
                                 np.zeros_like(u_bc),
                                 transport=np.zeros_like(u_bc), load=load,
                                 boundary_values=u_bc)
    return mesh, spaces, u, p, lam, u_bc


def test_saddle_manufactured_stokes():
    mesh, spaces, u, p, lam, u_exact = manufactured_stokes(0.25)
    # quadratic velocity and linear pressure are reproduced exactly
    assert np.abs(u - u_exact).max() < 1e-9
    pe = interpolate(spaces.pressure, lambda x, y: x - 0.5)
    m = pressure_mean_vector(mesh, spaces)
    assert np.abs(m @ p) < 1e-10
    shift = (m @ (p - pe)) / (m @ np.ones_like(m))
    assert np.abs(p - pe - shift).max() < 1e-9
    assert abs(lam) < 1e-6


def test_saddle_divergence_residual():
    mesh, spaces, u, p, lam, _ = manufactured_stokes(0.25)
    C = assemble("C", mesh, spaces)
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
        A = assemble("A", mesh, spaces) + assemble("M", mesh, spaces)
        C = assemble("C", mesh, spaces)
        bnd = spaces.vector_dofs(spaces.boundary_dofs)
        free = np.ones(2 * spaces.velocity.n_dofs, dtype=bool)
        free[bnd] = False
        Af = A.tocsr()[free][:, free].toarray()
        Cf = C[:, free].toarray()
        Mp = scalar_mass(mesh, spaces.pressure).toarray()
        S = Cf @ np.linalg.solve(Af, Cf.T)
        lam = eigh(S, Mp, eigvals_only=True)
        nonzero = lam[lam > 1e-10 * lam.max()]
        vals.append(np.sqrt(nonzero.min()))
        assert 2 * spaces.velocity.n_dofs <= 600  # stays a tiny problem
    assert vals[1] > 0.5 * vals[0]
    assert vals[1] > 0.05


TAU = 1.0 / 200.0


def bubble_saddle(mesh, spaces, u_old):
    """The saddle system of one rising-bubble step on the given mesh."""
    M_rho = assemble("M_rho", mesh, spaces, BP1)
    Kuu = (M_rho / TAU + assemble("A_mu", mesh, spaces, BP1)
           + assemble_convection(mesh, spaces, BP1, u_old)).tocsr()
    rhs = assemble_load(mesh, spaces, BP1) + M_rho @ u_old / TAU
    C = assemble("C", mesh, spaces)
    free = np.ones(2 * spaces.velocity.n_dofs, dtype=bool)
    free[spaces.vector_dofs(spaces.boundary_dofs)] = False
    return SaddleSystem(A0=saddle_matrix(Kuu[free][:, free],
                                         (-C[:, free]).tocsr()),
                        rhs_u=rhs[free], rhs_p=np.zeros(C.shape[0]),
                        mean_vector=pressure_mean_vector(mesh, spaces))


@pytest.fixture(scope="module")
def lagged_pair():
    """Saddle systems of two configurations an O(tau) mesh motion apart."""
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.16, 2)
    spaces = build_taylor_hood(mesh, 2)
    rng = np.random.default_rng(5)
    u = smooth_displacement(rng, spaces.velocity.positions, 0.05)
    u[spaces.vector_dofs(spaces.boundary_dofs)] = 0.0
    moved = move_mesh(mesh, mesh.x + TAU * u[:len(mesh.x)])
    return (bubble_saddle(mesh, spaces, u),
            bubble_saddle(moved, spaces_with_mesh(spaces, moved), u))


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
    u, p, lam, lagged = solve_saddle(new, first.factor)
    assert lagged.factorizations == 0
    assert lagged.factor is first.factor
    assert 2 < lagged.iterations <= 20
    uf, pf, lamf, fresh = solve_saddle(new)
    assert fresh.factorizations == 1
    assert_on_target(new, u, p, lam)
    assert_on_target(new, uf, pf, lamf)
    assert np.abs(u - uf).max() <= 1e-10 * np.abs(uf).max()
    assert np.abs(p - pf).max() <= 1e-10 * np.abs(pf).max()


def test_unusable_factor_is_replaced(lagged_pair):
    _, new = lagged_pair
    expect = solve_saddle(new)
    coarse = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.2, 2)
    coarse_spaces = build_taylor_hood(coarse, 2)
    u0 = np.zeros(2 * coarse_spaces.velocity.n_dofs)
    wrong_size = solve_saddle(bubble_saddle(coarse, coarse_spaces, u0))[3].factor
    n = new.A0.shape[0]
    c = np.concatenate([np.zeros(len(new.rhs_u)), new.mean_vector])
    useless = SaddleFactor(sparse.identity(n, format="csr"), c,
                           len(new.rhs_u))
    for factor in (wrong_size, useless):
        u, p, lam, stats = solve_saddle(new, factor)
        assert stats.factorizations == 1
        assert stats.factor is not factor
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
    u, p, lam, stats = solve_saddle(
        SaddleSystem(A0=A0, rhs_u=system.rhs_u, rhs_p=system.rhs_p,
                     mean_vector=system.mean_vector), factor)
    return (u, p, lam, stats.iterations), CountingCSR.log, id(A0)


def test_refinement_checks_each_iterate_once(lagged_pair, monkeypatch):
    """The check GMRES ran on its last correction is that of the next
    iterate: refinement reuses it instead of multiplying by A0 and |A0|
    again, and its result is bitwise that of checking afresh."""
    old, new = lagged_pair
    factor = solve_saddle(old)[3].factor
    reused, log, A0 = counted_solve(new, factor)
    assert reused[3] > 2                        # GMRES ran
    original = linalg._gmres
    # a copy of the correction defeats the reuse: every iterate is
    # checked afresh, as before the reuse
    monkeypatch.setattr(linalg, "_gmres", lambda *args: (
        lambda d, its: (d.copy(), its))(*original(*args)))
    afresh, afresh_log, _ = counted_solve(new, factor)
    for a, b in zip(reused[:3], afresh[:3]):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    assert reused[3] == afresh[3]
    assert len(afresh_log) - len(log) >= 2
    # the only product taken twice is A0 times the solution: by the
    # last check and by the final residual check of solve_saddle
    x = np.concatenate([reused[0], reused[1]]).tobytes()
    twice = [entry for entry in set(log) if log.count(entry) > 1]
    assert twice == [(A0, x)]


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
    """At h=0.04 the fill drops to 43% of the pivoted COLAMD factor's
    (1.52M against 3.50M nonzeros); at h=0.08 it is 53%."""
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.04, 2)
    spaces = build_taylor_hood(mesh, 2)
    system = bubble_saddle(mesh, spaces,
                           np.zeros(2 * spaces.velocity.n_dofs))
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
    old = solve_saddle(first)[3].factor
    for factor, made in ((None, 1), (old, 0)):
        u, p, lam, stats = solve_saddle(later, factor)
        assert stats.factorizations == made
        assert stats.iterations <= linalg.MAX_ITERATIONS
        assert stats.factor is not None
        assert_on_target(later, u, p, lam)
