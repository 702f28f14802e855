"""Assembly through cached index maps equals COO assembly.

The references below are the straightforward formulation: element
matrices scattered with `coo_matrix(...).tocsr()`, vector blocks made by
`sparse.kron`, and the saddle and harmonic systems cut out of the
assembled matrices by slicing and `bmat`.  Patterns compare exactly.
Summed data compare to 8 ulps of the largest entry, since the slot maps
sum in element order and tocsr in its own; the gathers and the
momentum sum only permute and add as the references do, so the solves
through them compare exactly.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spilu

from alefem import assembly
from alefem.ale import harmonic_extension, move_mesh, spaces_with_mesh
from alefem.assembly import (
    assemble,
    assemble_convection,
    assemble_load,
    pressure_mean_vector,
    scalar_laplacian,
    scalar_mass,
    viscous_and_laplacian,
)
from alefem.fespace import build_scalar_space, build_taylor_hood
from alefem.linalg import SaddleSystem, saddle_matrix, solve_saddle
from alefem.mesh import generate_bubble_mesh, generate_rect_mesh, geometry
from alefem.stepper import SimConfig, flow_solve, initialize, step

from conftest import BP1, CENTER, RADIUS, RECT, smooth_displacement

TAU = 1.0 / 200.0


def coo(local, rows, cols, shape):
    rows = np.broadcast_to(rows, local.shape)
    cols = np.broadcast_to(cols, local.shape)
    return sparse.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                             shape=shape).tocsr()


def scalar_coo(local, space):
    dofs = space.dof_of
    return coo(local, dofs[:, :, None], dofs[:, None, :],
               (space.n_dofs, space.n_dofs))


def kron2(S):
    return sparse.kron(S, sparse.identity(2, format="csr"), format="csr")


def assert_same(A, B, ulps=8):
    assert A.format == B.format and A.shape == B.shape
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.indptr, B.indptr)
    scale = np.spacing(np.abs(B.data).max())
    assert np.abs(A.data - B.data).max() <= ulps * scale


@pytest.fixture(scope="module", params=[2, 3])
def moved(request):
    """A bubble mesh of degree k moved by a smooth displacement, its
    spaces, and a transport field."""
    k = request.param
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.16, k)
    spaces = build_taylor_hood(mesh, k)
    rng = np.random.default_rng(k)
    d = smooth_displacement(rng, spaces.velocity.positions, 0.02)
    d[spaces.vector_dofs(spaces.boundary_dofs)] = 0.0
    mesh = move_mesh(mesh, mesh.x + d[:len(mesh.x)])
    spaces = spaces_with_mesh(spaces, mesh)
    transport = rng.normal(size=2 * spaces.velocity.n_dofs)
    return mesh, spaces, transport


def test_every_kind_equals_coo_assembly(moved):
    mesh, spaces, transport = moved
    geom = geometry(mesh)
    V, P = spaces.velocity, spaces.pressure
    rho, mu = BP1.rho_of(mesh.phase), BP1.mu_of(mesh.phase)

    def vector_coo(local):
        vdofs = 2 * V.dof_of[:, :, None] + np.arange(2)
        n = 2 * V.n_dofs
        return coo(local, vdofs[:, :, :, None, None],
                   vdofs[:, None, None, :, :], (n, n))

    def divergence_coo(local):
        vcol = 2 * V.dof_of[:, None, :, None] + np.arange(2)
        return coo(local, P.dof_of[:, :, None, None], vcol,
                   (P.n_dofs, 2 * V.n_dofs))

    laplacian, viscous = assembly._gram_local(geom, V, mu)
    expect = {
        "M": kron2(scalar_coo(assembly._mass_local(geom, V, None), V)),
        "M_rho": kron2(scalar_coo(assembly._mass_local(geom, V, rho), V)),
        "A": kron2(scalar_coo(laplacian, V)),
        "A_mu": vector_coo(viscous),
        "C": divergence_coo(assembly._divergence_local(geom, P, V)),
    }
    for kind, ref in expect.items():
        assert_same(assemble(kind, mesh, spaces, BP1), ref)
    local = assembly._convection_local(geom, V, rho, transport)
    assert_same(assemble_convection(mesh, spaces, BP1, transport),
                kron2(scalar_coo(local, V)))
    assert_same(scalar_laplacian(geometry(mesh), V, spaces.maps.scalar),
                scalar_coo(laplacian, V))
    A_mu, L = viscous_and_laplacian(mesh, spaces, BP1)
    assert_same(A_mu, expect["A_mu"])
    assert_same(L, scalar_coo(laplacian, V))
    P1 = build_scalar_space(mesh, 1)
    for space in (P, P1):
        assert_same(scalar_mass(mesh, space),
                    scalar_coo(assembly._mass_local(geom, space, None), space))


def element_entries(spaces):
    """The scalar, vector and divergence maps, each with the rows and
    columns of its element matrix entries as (E, ...) arrays."""
    V, P = spaces.velocity, spaces.pressure
    maps = spaces.maps
    vdofs = 2 * V.dof_of[:, :, None] + np.arange(2)
    return [
        (maps.scalar, *np.broadcast_arrays(V.dof_of[:, :, None],
                                           V.dof_of[:, None, :])),
        (maps.vector, *np.broadcast_arrays(vdofs[:, :, :, None, None],
                                           vdofs[:, None, None, :, :])),
        (maps.divergence, *np.broadcast_arrays(P.dof_of[:, :, None, None],
                                               vdofs[:, None, :, :])),
    ]


def test_patterns_equal_coo_patterns(moved):
    _, spaces, _ = moved
    for pattern, rows, cols in element_entries(spaces):
        ref = coo(np.ones(rows.shape), rows, cols, pattern.shape)
        assert np.array_equal(pattern.indices, ref.indices)
        assert np.array_equal(pattern.indptr, ref.indptr)


def test_sums_in_reversed_element_order_agree(moved):
    _, spaces, _ = moved
    rng = np.random.default_rng(3)
    for pattern, rows, cols in element_entries(spaces):
        vals = rng.normal(size=rows.shape)
        backwards = assembly.Pattern(rows[::-1], cols[::-1], pattern.shape)
        assert_same(backwards.matrix(vals[::-1]), pattern.matrix(vals))


def test_momentum_matrix_equals_sparse_sum(moved):
    mesh, spaces, transport = moved
    M_rho = assemble("M_rho", mesh, spaces, BP1)
    A_mu = assemble("A_mu", mesh, spaces, BP1)
    B_conv = assemble_convection(mesh, spaces, BP1, transport)
    expect = (M_rho / TAU + A_mu + B_conv).tocsr()
    got = assembly.momentum_matrix(spaces, M_rho, A_mu, B_conv, TAU)
    # the sparse sum drops entries that cancel to 0.0; the fixed pattern
    # keeps them as explicit zeros (and is read-only, hence the copy)
    got = got.copy()
    got.eliminate_zeros()
    assert_same(got, expect, ulps=0)


def sliced_flow_solve(mesh, spaces, tau, u_old, transport, load,
                      boundary_values=None, factor=None):
    """The flow solve through slicing and bmat of the assembled blocks."""
    M_rho = assemble("M_rho", mesh, spaces, BP1)
    A_mu = assemble("A_mu", mesh, spaces, BP1)
    B_conv = assemble_convection(mesh, spaces, BP1, transport)
    C = assemble("C", mesh, spaces)
    m = pressure_mean_vector(mesh, spaces)
    Kuu = (M_rho / tau + A_mu + B_conv).tocsr()
    rhs_u = load + M_rho @ u_old / tau
    n_u = 2 * spaces.velocity.n_dofs
    bnd = spaces.vector_dofs(spaces.boundary_dofs)
    fixed = np.zeros(n_u, dtype=bool)
    fixed[bnd] = True
    free = ~fixed
    u_bc = np.zeros(n_u)
    if boundary_values is not None:
        u_bc[bnd] = boundary_values[bnd]
    Kff = Kuu[free][:, free]
    rhs_f = rhs_u[free] - Kuu[free][:, fixed] @ u_bc[fixed]
    Cf = C[:, free]
    rhs_p = C[:, fixed] @ u_bc[fixed]
    uf, p, lam, factor = solve_saddle(SaddleSystem(
        A0=saddle_matrix(Kff, (-Cf).tocsr()), rhs_u=rhs_f, rhs_p=rhs_p,
        mean_vector=m), factor)
    u = u_bc.copy()
    u[free] = uf
    return u, p, lam, factor


def sliced_harmonic_extension(mesh, spaces, u):
    V = spaces.velocity
    L = scalar_laplacian(geometry(mesh), V, spaces.maps.scalar)
    fixed = np.zeros(V.n_dofs, dtype=bool)
    fixed[spaces.interface_dofs] = True
    fixed[spaces.boundary_dofs] = True
    free = ~fixed
    w = np.zeros((V.n_dofs, 2))
    w[spaces.interface_dofs] = u.reshape(-1, 2)[spaces.interface_dofs]
    rhs = -L[free][:, fixed] @ w[fixed]
    lu = spilu(L[free][:, free].tocsc(), drop_tol=0.0, fill_factor=2,
               drop_rule="basic", permc_spec="MMD_AT_PLUS_A", relax=1)
    for c in range(2):
        w[free, c] = lu.solve(rhs[:, c])
    return w.ravel()


def counted(solve, *args, factor=None, **kwargs):
    """(u, p, multiplier, iterations, factorizations, lagged factor) of
    solve(*args, factor=factor, **kwargs), the counts those of this
    solve alone."""
    before = 0 if factor is None else factor.factorizations
    u, p, lam, lagged = solve(*args, factor=factor, **kwargs)[:4]
    return (u, p, lam, lagged.iterations, lagged.factorizations - before,
            lagged)


def assert_same_solution(a, b):
    for x, y in zip(a[:3], b[:3]):
        assert np.array_equal(x, y)
    assert a[3:5] == b[3:5]


def test_flow_solve_equals_sliced_path(moved):
    mesh, spaces, transport = moved
    u_old = 0.1 * transport
    load = assemble_load(mesh, spaces, BP1)
    fresh = counted(flow_solve, mesh, spaces, BP1, TAU, u_old, transport,
                    load)
    assert_same_solution(fresh, counted(sliced_flow_solve, mesh, spaces,
                                        TAU, u_old, transport, load))
    # a factor of an earlier configuration preconditions both alike
    later = 1.01 * transport
    assert_same_solution(
        counted(flow_solve, mesh, spaces, BP1, TAU, u_old, later, load,
                factor=fresh[5]),
        counted(sliced_flow_solve, mesh, spaces, TAU, u_old, later, load,
                factor=fresh[5]))


@pytest.mark.parametrize("lagged", [False, True])
def test_flow_solve_with_boundary_values_equals_sliced_path(lagged):
    mesh = generate_rect_mesh((0.0, 0.0, 1.0, 1.0), 0.25, 2)
    spaces = build_taylor_hood(mesh, 2)
    rng = np.random.default_rng(7)
    u = smooth_displacement(rng, spaces.velocity.positions, 1.0)
    load = assemble_load(mesh, spaces, BP1)
    factor = None
    if lagged:
        factor = flow_solve(mesh, spaces, BP1, TAU, 0.5 * u, 0.5 * u, load,
                            boundary_values=0.5 * u)[3]
    assert_same_solution(
        counted(flow_solve, mesh, spaces, BP1, TAU, u, u, load,
                boundary_values=u, factor=factor),
        counted(sliced_flow_solve, mesh, spaces, TAU, u, u, load,
                boundary_values=u, factor=factor))


def test_harmonic_extension_equals_sliced_path(moved):
    mesh, spaces, transport = moved
    assert np.array_equal(harmonic_extension(mesh, spaces, transport),
                          sliced_harmonic_extension(mesh, spaces, transport))


def count_builds(monkeypatch):
    built = []
    for cls in (assembly.Pattern, assembly.Gather):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__):
            built.append(_name)
            _original(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_maps_built_once_per_numbering(monkeypatch):
    cfg = SimConfig(params=BP1, k=2, h=0.16, tau=TAU, T=1.0)
    state = initialize(cfg)
    maps = state.spaces.maps
    built = count_builds(monkeypatch)
    for _ in range(4):
        state = step(state, cfg)
    assert state.remesh_count == 0
    assert state.spaces.maps is maps
    # scalar, vector and divergence patterns; interleaved, saddle and
    # interior gathers
    assert sorted(built) == ["Gather"] * 3 + ["Pattern"] * 3

    # a space outside a pair gets a pattern of its own
    V = state.spaces.velocity
    perm = np.random.default_rng(0).permutation(V.n_dofs)
    renumbered = replace(V, dof_of=perm[V.dof_of])
    geom = geometry(state.mesh)
    assert_same(scalar_mass(state.mesh, renumbered),
                scalar_coo(assembly._mass_local(geom, V, None), renumbered))
    assert built[6:] == ["Pattern"]


def test_step_between_remeshes_needs_no_coo_kron_bmat_or_slicing(monkeypatch):
    cfg = SimConfig(params=BP1, k=2, h=0.16, tau=TAU, T=1.0)
    state = step(initialize(cfg), cfg)

    def forbidden(*args, **kwargs):
        raise AssertionError("called between remeshes")

    for name in ("coo_matrix", "kron", "bmat"):
        monkeypatch.setattr(sparse, name, forbidden)
    for cls in (sparse.csr_matrix, sparse.csc_matrix):
        for name in ("__add__", "__radd__", "__getitem__"):
            monkeypatch.setattr(cls, name, forbidden)
    for _ in range(3):
        state = step(state, cfg)
    assert state.remesh_count == 0 and state.factor.factorizations == 1
