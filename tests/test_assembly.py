import numpy as np
import pytest

from alefem import assembly
from alefem.ale import move_mesh, spaces_with_mesh
from alefem.assembly import (
    PhaseParams,
    assemble,
    assemble_convection,
    assemble_load,
    field_values,
    pressure_mean_vector,
    scalar_laplacian,
    scalar_mass,
)
from alefem.fespace import build_scalar_space, build_taylor_hood, interpolate
from alefem.mesh import (
    GeometryTables,
    Mesh,
    TangledElementError,
    displace,
    generate_bubble_mesh,
    generate_rect_mesh,
    geometry,
    quality,
)
from alefem.quadrature import triangle_rule
from alefem.reference import reference_element
from alefem.stepper import SimConfig, run

from conftest import BP1, CENTER, RADIUS, RECT, kron2, smooth_displacement


def unit_right_triangle():
    return Mesh(
        x=np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0]),
        elements=np.array([[0, 1, 2]]),
        phase=np.array([1], dtype=np.int8),
        interface_edges=np.empty((0, 2), dtype=int),
        boundary_edges=np.array([[0, 0], [0, 1], [0, 2]]),
        degree=1,
    )


def test_p1_mass_matrix_exact():
    mesh = unit_right_triangle()
    space = build_scalar_space(mesh, 1)
    M = scalar_mass(mesh, space).toarray()
    expect = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    assert np.abs(M - expect).max() < 1e-14


def test_p1_stiffness_matrix_exact():
    mesh = unit_right_triangle()
    space = build_scalar_space(mesh, 1)
    A = scalar_laplacian(geometry(mesh), space).toarray()
    expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.abs(A - expect).max() < 1e-14


@pytest.fixture(scope="module")
def small_setup():
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.2, 2)
    spaces = build_taylor_hood(mesh, 2)
    return mesh, spaces


def test_divergence_of_constant_velocity(small_setup):
    mesh, spaces = small_setup
    C = assemble("C", mesh, spaces)
    u = np.tile([0.7, -0.3], spaces.velocity.n_dofs)
    assert np.abs(C @ u).max() < 1e-12


def test_viscous_form_annihilates_rigid_motions(small_setup):
    mesh, spaces = small_setup
    A_mu = assemble("A_mu", mesh, spaces, BP1)
    n = spaces.velocity.n_dofs
    for field in (lambda x, y: (1.0, 0.0), lambda x, y: (0.0, 1.0),
                  lambda x, y: (-y, x)):
        u = interpolate(spaces.velocity, field, vector=True)
        assert np.abs(A_mu @ u).max() < 1e-11


def test_laplace_form_annihilates_constants(small_setup):
    mesh, spaces = small_setup
    A = assemble("A", mesh, spaces)
    u = np.tile([1.0, 1.0], spaces.velocity.n_dofs)
    assert np.abs(A @ u).max() < 1e-12


def test_symmetry_and_positive_semidefiniteness(small_setup):
    mesh, spaces = small_setup
    rng = np.random.default_rng(0)
    for kind in ("M", "M_rho", "A", "A_mu"):
        K = assemble(kind, mesh, spaces, BP1)
        asym = np.abs((K - K.T)).max()
        assert asym < 1e-12 * max(np.abs(K).max(), 1.0)
        for _ in range(20):
            v = rng.normal(size=K.shape[0])
            assert v @ (K @ v) >= -1e-10 * (v @ v)


def test_weighted_forms_reduce_to_unweighted(small_setup):
    mesh, spaces = small_setup
    ones = PhaseParams(1.0, 1.0, 1.0, 1.0, 1.0)
    M = assemble("M", mesh, spaces)
    M_rho = assemble("M_rho", mesh, spaces, ones)
    assert np.abs((M - M_rho)).max() < 1e-14


def test_convection_zero_field_and_constant_target(small_setup):
    mesh, spaces = small_setup
    B0 = assemble_convection(mesh, spaces, BP1,
                             np.zeros(2 * spaces.velocity.n_dofs))
    assert B0.nnz == 0 or np.abs(B0.data).max() < 1e-15
    a = interpolate(spaces.velocity, lambda x, y: (1.0, 0.0), vector=True)
    B = assemble_convection(mesh, spaces, BP1, a)
    const = np.tile([2.0, -1.0], spaces.velocity.n_dofs)
    assert np.abs(kron2(B) @ const).max() < 1e-11


def dense_reference_matrices(mesh, spaces, params, transport):
    """Plain per-element quadrature loops, kept independent of the
    vectorized assembly."""
    rule = triangle_rule(2 * mesh.degree + 2)
    ref_geom = reference_element(mesh.degree)
    V, P = spaces.velocity, spaces.pressure
    n_u = 2 * V.n_dofs
    out = {k: np.zeros((n_u, n_u)) for k in ("M", "M_rho", "A", "A_mu", "B")}
    out["C"] = np.zeros((P.n_dofs, n_u))
    vvals = V.basis_values(rule.points)
    vgrads = V.basis_gradients(rule.points)
    pvals = P.basis_values(rule.points)
    a_cf = transport.reshape(-1, 2)
    for e in range(mesh.n_elements):
        xe = mesh.coords[mesh.elements[e]]
        rho = params.rho_of(mesh.phase[e:e + 1])[0]
        mu = params.mu_of(mesh.phase[e:e + 1])[0]
        vdofs = V.dof_of[e]
        pdofs = P.dof_of[e]
        for q, wq in enumerate(rule.weights):
            J = np.zeros((2, 2))
            for l in range(len(xe)):
                g = ref_geom.shape_gradients(rule.points[q:q + 1])[l, 0]
                J += np.outer(xe[l], g)
            detJ = np.linalg.det(J)
            Jinv = np.linalg.inv(J)
            w = wq * detJ
            phi = vvals[:, q]
            gphi = np.array([Jinv.T @ vgrads[l, q] for l in range(len(phi))])
            psi = pvals[:, q]
            a_q = sum(a_cf[vdofs[l]] * phi[l] for l in range(len(phi)))
            for i in range(len(phi)):
                for j in range(len(phi)):
                    mass = w * phi[i] * phi[j]
                    stiff = w * gphi[i] @ gphi[j]
                    for a in range(2):
                        I, Jj = 2 * vdofs[i] + a, 2 * vdofs[j] + a
                        out["M"][I, Jj] += mass
                        out["M_rho"][I, Jj] += rho * mass
                        out["A"][I, Jj] += stiff
                        out["B"][I, Jj] += w * rho * phi[i] * (a_q @ gphi[j])
                        for b in range(2):
                            Jb = 2 * vdofs[j] + b
                            du = np.zeros((2, 2))
                            du[a] = gphi[i]
                            dv = np.zeros((2, 2))
                            dv[b] = gphi[j]
                            Du = 0.5 * (du + du.T)
                            Dv = 0.5 * (dv + dv.T)
                            out["A_mu"][I, Jb] += w * 2 * mu * (Du * Dv).sum()
            for i in range(len(psi)):
                for j in range(len(phi)):
                    for b in range(2):
                        out["C"][pdofs[i], 2 * vdofs[j] + b] += \
                            w * psi[i] * gphi[j][b]
    return out


def test_assembly_matches_dense_reference(two_triangle_mesh):
    mesh = two_triangle_mesh
    spaces = build_taylor_hood(mesh, 2)
    params = PhaseParams(3.0, 3.0, 0.7, 0.7, 1.0)
    rng = np.random.default_rng(9)
    transport = rng.normal(size=2 * spaces.velocity.n_dofs)
    ref = dense_reference_matrices(mesh, spaces, params, transport)
    for kind in ("M", "M_rho", "A", "A_mu", "C"):
        K = assemble(kind, mesh, spaces, params).toarray()
        assert np.abs(K - ref[kind]).max() < 1e-12, kind
    B = kron2(assemble_convection(mesh, spaces, params, transport)).toarray()
    assert np.abs(B - ref["B"]).max() < 1e-12


def test_convection_against_dense_oracle_with_linear_target(two_triangle_mesh):
    mesh = two_triangle_mesh
    spaces = build_taylor_hood(mesh, 2)
    params = PhaseParams(1.0, 1.0, 1.0, 1.0, 1.0)
    a = interpolate(spaces.velocity, lambda x, y: (1.0, 0.0), vector=True)
    chi = interpolate(spaces.velocity, lambda x, y: (x, 0.0), vector=True)
    B = kron2(assemble_convection(mesh, spaces, params, a))
    M = assemble("M", mesh, spaces)
    # (1,0).grad (x,0) = (1,0): pairing with any v equals (e_x, v)
    ex = np.tile([1.0, 0.0], spaces.velocity.n_dofs)
    assert np.abs(B @ chi - M @ ex).max() < 1e-12


def test_load_pairing(small_setup):
    mesh, spaces = small_setup
    unit = PhaseParams(1.0, 1.0, 1.0, 1.0, 0.98)
    load = assemble_load(mesh, spaces, unit)
    ey = np.tile([0.0, 1.0], spaces.velocity.n_dofs)
    assert ey @ load == pytest.approx(-0.98 * 2.0, abs=1e-10)
    ex = np.tile([1.0, 0.0], spaces.velocity.n_dofs)
    assert ex @ load == pytest.approx(0.0, abs=1e-12)
    g0 = PhaseParams(1.0, 1.0, 1.0, 1.0, 1e-300)
    assert np.abs(assemble_load(mesh, spaces, g0)).max() < 1e-290


def test_load_rho_weighted(small_setup):
    mesh, spaces = small_setup
    load = assemble_load(mesh, spaces, BP1)
    ey = np.tile([0.0, 1.0], spaces.velocity.n_dofs)
    geom = geometry(mesh)
    area_minus = geom.wdet[mesh.phase == -1].sum()
    expect = -0.98 * (BP1.rho_plus * (2.0 - area_minus)
                      + BP1.rho_minus * area_minus)
    assert ey @ load == pytest.approx(expect, rel=1e-12)
    ex = np.tile([1.0, 0.0], spaces.velocity.n_dofs)
    assert ex @ load == pytest.approx(0.0, abs=1e-12)


def test_quadratic_norms(small_setup):
    """v @ M @ v and v @ A @ v are the squared L2 and H1-semi norms."""
    mesh, spaces = small_setup
    V = spaces.velocity
    M = assemble("M", mesh, spaces)
    A = assemble("A", mesh, spaces)
    one = np.tile([1.0, 0.0], V.n_dofs)
    assert one @ M @ one == pytest.approx(2.0, abs=1e-10)
    assert one @ A @ one == pytest.approx(0.0, abs=1e-12)
    xf = interpolate(V, lambda x, y: (x, 0.0), vector=True)
    # field (x, 0) on the rectangle: the gradient integral is the area
    assert xf @ A @ xf == pytest.approx(2.0, abs=1e-10)
    # the H1 norm is the sum of both
    assert xf @ (M + A) @ xf == pytest.approx(xf @ M @ xf + 2.0, abs=1e-9)


def test_pressure_mean_vector_is_integral(small_setup):
    mesh, spaces = small_setup
    m = pressure_mean_vector(mesh, spaces)
    pc = interpolate(spaces.pressure, lambda x, y: 1.0)
    assert m @ pc == pytest.approx(2.0, abs=1e-12)


def test_unit_square_quadratic_norm():
    mesh = generate_rect_mesh((0, 0, 1, 1), 0.25, 2)
    spaces = build_taylor_hood(mesh, 2)
    xf = interpolate(spaces.velocity, lambda x, y: (x, 0.0), vector=True)
    assert xf @ assemble("A", mesh, spaces) @ xf == pytest.approx(1.0, abs=1e-12)


def assert_close(got, expect):
    assert got.shape == expect.shape
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("k, tangle", [(2, False), (3, False), (2, True)],
                         ids=["displaced-2", "displaced-3", "tangled"])
def test_tables_and_kernels_match_einsum(k, tangle):
    """The geometry table, the point values and gradients and the
    element kernels of mass, M_rho, convection, C, A, A_mu and the
    Laplacian equal one-line einsum forms over the physical gradients
    g, formed here from Jinv, on a moved mesh, a tangled one included,
    to 1e-12 of the largest entry."""
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.16, k)
    spaces = build_taylor_hood(mesh, k)
    rng = np.random.default_rng(10 + k)
    if tangle:
        x = mesh.coords.copy()
        a, b = mesh.elements[5, :2]
        x[a] = 2.0 * x[b] - x[a]                # reflect a vertex over another
        mesh = displace(mesh, x.ravel() - mesh.x)
    else:
        d = smooth_displacement(rng, spaces.velocity.positions, 0.02)
        d[spaces.vector_dofs(spaces.boundary_dofs)] = 0.0
        mesh = move_mesh(mesh, mesh.x + d[:len(mesh.x)])
    spaces = spaces_with_mesh(spaces, mesh)
    V, P = spaces.velocity, spaces.pressure
    coeffs = rng.normal(size=2 * V.n_dofs)
    geom = GeometryTables(mesh)

    rule = triangle_rule(2 * k + 2)
    xs = mesh.coords[mesh.elements]
    J = np.einsum("lqj,eli->eqij",
                  reference_element(k).shape_gradients(rule.points), xs)
    detJ = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    Jinv = np.linalg.inv(J)
    tangled = None
    if np.any(detJ <= 0.0):
        tangled = (int(np.argmin(detJ.min(axis=1))),
                   pytest.approx(detJ.min(), rel=1e-12))
    assert (tangled is not None) == tangle and geom.tangled == tangled
    vals = V.basis_values(rule.points)
    assert_close(geom.x, np.einsum("lq,eli->eqi", vals, xs))
    assert_close(geom.detJ, detJ)
    assert_close(geom.Jinv, Jinv)
    assert_close(geom.wdet, detJ * rule.weights)
    g = np.einsum("lqj,eqji->eqli", V.basis_gradients(rule.points), Jinv)
    cf = coeffs.reshape(-1, 2)[V.dof_of]
    a_q = np.einsum("lq,eli->eqi", vals, cf)
    assert_close(field_values(V, coeffs, geom), a_q)
    assert_close(assembly.field_gradients(V, coeffs, geom),
                 np.einsum("eli,eqlj->eqij", cf, g))
    w = geom.wdet
    rho, mu = BP1.rho_of(mesh.phase), BP1.mu_of(mesh.phase)
    mass = np.einsum("iq,jq,eq->eij", vals, vals, w)
    assert_close(assembly._mass_local(geom, V, None), mass)
    assert_close(assembly._mass_local(geom, V, rho),
                 mass * rho[:, None, None])
    assert_close(assembly._convection_local(geom, V, rho, coeffs),
                 np.einsum("iq,eq,e,eqja,eqa->eij", vals, w, rho, g, a_q))
    assert_close(assembly._divergence_local(geom, P, V),
                 np.einsum("iq,eq,eqja->eija",
                           P.basis_values(rule.points), w, g))
    laplacian = np.einsum("eq,eqia,eqja->eij", w, g, g)
    gram_laplacian, viscous = assembly._gram_local(geom, V, mu)
    assert_close(gram_laplacian, laplacian)
    # blocks ab = 00, 01, 10, 11: test component a, trial component b
    assert_close(viscous,
                 (np.einsum("eq,e,eqib,eqja->abeij", w, mu, g, g)
                  + np.einsum("e,eij,ab->abeij", mu, laplacian, np.eye(2))
                  ).reshape(viscous.shape))
    alone, none = assembly._gram_local(geom, V)
    assert none is None and alone.tobytes() == gram_laplacian.tobytes()


def test_a_step_keeps_only_the_jacobian_table():
    """After a step has assembled on its moved mesh, the mesh's geometry
    table holds the Jacobian data x, detJ, Jinv and wdet and no other
    per-configuration array: the kernels contract it against reference
    tensors, and build no table of physical gradients."""
    cfg = SimConfig(params=BP1, k=2, h=0.16, tau=1.0 / 200.0, T=1.0 / 200.0)
    state, _ = run(cfg)
    assert state.remesh_count == 0
    geom = state.mesh.tables()
    E, Q = geom.wdet.shape
    assert set(vars(geom)) == {"rule_degree", "rule", "tangled", "x",
                               "detJ", "Jinv", "wdet"}
    assert {name: getattr(geom, name).shape
            for name in ("x", "detJ", "Jinv", "wdet")} == {
        "x": (E, Q, 2), "detJ": (E, Q), "Jinv": (E, Q, 2, 2), "wdet": (E, Q)}


def test_tangled_mesh_quality_reports_assembly_raises():
    """quality() reports a tangled curved mesh through min_jacobian and
    never raises; assembly on the same mesh raises."""
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.2, 2)
    e, le = mesh.interface_edges[0]
    node = mesh.elements[e, 3 + le]                     # curved edge midpoint
    opposite = mesh.coords[mesh.elements[e, (le + 2) % 3]]
    d = np.zeros_like(mesh.coords)
    d[node] = 1.5 * (opposite - mesh.coords[node])
    tangled = displace(mesh, d.ravel())
    q = quality(tangled)
    assert q.min_jacobian <= 0.0
    with pytest.raises(TangledElementError):
        assemble("M", tangled, build_taylor_hood(tangled, 2))
