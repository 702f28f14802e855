"""The per-step contractions and the cached column order of the harmonic
extension are bitwise equal to their straightforward forms.

The references below are the (E, Q, ...) formulation: node data
gathered per element as (E, n_loc, 2) and contracted by `einsum` into
(E, Q, ...) arrays, the physical gradients by `einsum(...,
optimize=True)`, the Laplacian operand by a transposed reshape, and the
interior block of the harmonic extension factored under SuperLU's MMD
ordering at every call.  Every comparison is exact, signs of zero
included, and the arrays must keep their dtype, shape and C-order.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from alefem import ale, assembly
from alefem.ale import harmonic_extension, move_mesh, spaces_with_mesh
from alefem.assembly import DofMaps, field_values, scalar_laplacian
from alefem.fespace import FESpacePair, build_scalar_space, build_taylor_hood
from alefem.mesh import (
    GeometryTables,
    displace,
    generate_bubble_mesh,
    geometry,
)
from alefem.quadrature import triangle_rule
from alefem.reference import reference_element
from alefem.stepper import SimConfig, initialize, step

from conftest import BP1, CENTER, RADIUS, RECT, smooth_displacement


def reference_tables(mesh):
    """x, detJ, Jinv, wdet and tangled in the (E, Q, ...) formulation."""
    rule = triangle_rule(2 * mesh.degree + 2)
    ref = reference_element(mesh.degree)
    vals = ref.shape_values(rule.points)
    grads = ref.shape_gradients(rule.points)
    xs = mesh.coords[mesh.elements]
    J = np.einsum("lqj,eli->eqij", grads, xs)
    detJ = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    tangled = None
    if np.any(detJ <= 0.0):
        tangled = (int(np.argmin(detJ.min(axis=1))), float(detJ.min()))
    Jinv = np.empty_like(J)
    with np.errstate(divide="ignore", invalid="ignore"):
        Jinv[..., 0, 0] = J[..., 1, 1] / detJ
        Jinv[..., 0, 1] = -J[..., 0, 1] / detJ
        Jinv[..., 1, 0] = -J[..., 1, 0] / detJ
        Jinv[..., 1, 1] = J[..., 0, 0] / detJ
    x = np.einsum("lq,eli->eqi", vals, xs)
    return {"x": x, "detJ": detJ, "Jinv": Jinv,
            "wdet": detJ * rule.weights}, tangled


def reference_gradients(Jinv, rule, degree):
    G = reference_element(degree).shape_gradients(rule.points)
    E, Q = Jinv.shape[:2]
    return np.einsum("lqj,eqji->eqli", G, Jinv, optimize=True,
                     out=np.empty((E, Q, len(G), 2)))


def reference_field_values(space, coeffs, rule):
    vals = space.basis_values(rule.points)
    return np.einsum("lq,eli->eqi", vals, coeffs.reshape(-1, 2)[space.dof_of])


def reference_convection_local(geom, V, rho, transport):
    vals = V.basis_values(geom.rule.points)
    gphys = geom.physical_gradients(V)
    a_q = reference_field_values(V, transport, geom.rule)
    w = geom.wdet * rho[:, None]
    adg = np.einsum("eqja,eqa->eqj", gphys, a_q)
    return (vals[None] * w[:, None, :]) @ adg


def reference_laplacian_local(geom, space):
    gphys = geom.physical_gradients(space)
    w = geom.wdet
    E, Q, n_loc, _ = gphys.shape
    local = np.empty((E, n_loc, n_loc))
    for lo in range(0, E, 128):
        g = gphys[lo:lo + 128]
        n = len(g)
        G = g.transpose(0, 2, 1, 3).reshape(n, n_loc, 2 * Q)
        Gw = np.multiply(g.transpose(0, 1, 3, 2), w[lo:lo + n, :, None, None],
                         out=np.empty((n, Q, 2, n_loc)))
        np.matmul(Gw.reshape(n, 2 * Q, n_loc).transpose(0, 2, 1),
                  G.transpose(0, 2, 1), out=local[lo:lo + n])
    return local


def reference_viscous_local(geom, V, mu):
    """The viscous kernel on all elements at once."""
    gphys = geom.physical_gradients(V)
    w = geom.wdet * mu[:, None]
    E, Q, n_loc, _ = gphys.shape
    G = gphys.reshape(E, Q, 2 * n_loc)
    P = ((G * w[:, :, None]).transpose(0, 2, 1) @ G).reshape(
        E, n_loc, 2, n_loc, 2)
    trace = P[:, :, 0, :, 0] + P[:, :, 1, :, 1]
    local = np.swapaxes(P, 2, 4).copy()
    local[:, :, 0, :, 0] += trace
    local[:, :, 1, :, 1] += trace
    return local


def assert_exact(got, expect):
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.flags.c_contiguous
    assert np.array_equal(got, expect, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expect))


def assert_tables_exact(mesh, spaces, coeffs):
    geom = GeometryTables(mesh, None)
    expect, tangled = reference_tables(mesh)
    for name, ref in expect.items():
        assert_exact(getattr(geom, name), ref)
    assert geom.tangled == tangled
    V = spaces.velocity
    for space in (V, build_scalar_space(mesh, 1)):
        assert_exact(geom.physical_gradients(space),
                     reference_gradients(expect["Jinv"], geom.rule,
                                         space.degree))
    assert_exact(field_values(V, coeffs, geom),
                 reference_field_values(V, coeffs, geom.rule))
    rho = BP1.rho_of(mesh.phase)
    assert_exact(assembly._convection_local(geom, V, rho, coeffs),
                 reference_convection_local(geom, V, rho, coeffs))
    assert_exact(assembly._laplacian_local(geom, V),
                 reference_laplacian_local(geom, V))
    mu = BP1.mu_of(mesh.phase)
    assert_exact(assembly._viscous_local(geom, V, mu),
                 reference_viscous_local(geom, V, mu))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("h", [0.16, 0.08])
def test_bubble_mesh_tables_equal_reference(k, h):
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, h, k)
    spaces = build_taylor_hood(mesh, k)
    rng = np.random.default_rng(k)
    assert_tables_exact(mesh, spaces,
                        rng.normal(size=2 * spaces.velocity.n_dofs))


@pytest.mark.parametrize("k", [2, 3])
def test_displaced_mesh_tables_equal_reference(k):
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.16, k)
    spaces = build_taylor_hood(mesh, k)
    rng = np.random.default_rng(10 + k)
    d = smooth_displacement(rng, spaces.velocity.positions, 0.02)
    d[spaces.vector_dofs(spaces.boundary_dofs)] = 0.0
    moved = move_mesh(mesh, mesh.x + d[:len(mesh.x)])
    assert_tables_exact(moved, spaces_with_mesh(spaces, moved),
                        rng.normal(size=2 * spaces.velocity.n_dofs))


def test_tangled_mesh_tables_equal_reference():
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.16, 2)
    x = mesh.coords.copy()
    a, b = mesh.elements[5, :2]
    x[a] = 2.0 * x[b] - x[a]                    # reflect a vertex over another
    tangled = displace(mesh, x.ravel() - mesh.x)
    spaces = spaces_with_mesh(build_taylor_hood(mesh, 2), tangled)
    assert GeometryTables(tangled, None).tangled is not None
    # zeros give +0 and -0 products throughout the convection kernel
    assert_tables_exact(tangled, spaces, np.zeros(2 * spaces.velocity.n_dofs))


# ---------------------------------------------------------------------------
# harmonic extension


def mmd_harmonic_extension(mesh, spaces, u):
    """The harmonic extension with the interior block factored under
    SuperLU's MMD ordering at every call."""
    V = spaces.velocity
    L = scalar_laplacian(geometry(mesh), V, spaces.maps.scalar)
    fixed = np.zeros(V.n_dofs, dtype=bool)
    fixed[spaces.interface_dofs] = True
    fixed[spaces.boundary_dofs] = True
    free = ~fixed
    w = np.zeros((V.n_dofs, 2))
    w[spaces.interface_dofs] = u.reshape(-1, 2)[spaces.interface_dofs]
    rhs = -(L @ w)[free]
    lu = splu(L[free][:, free].tocsc(), permc_spec="MMD_AT_PLUS_A")
    for c in range(2):
        w[free, c] = lu.solve(rhs[:, c])
    return w.ravel()


def record_orderings(monkeypatch):
    specs = []
    original = ale.splu

    def recording(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return original(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(ale, "splu", recording)
    return specs


def test_harmonic_extension_orders_once_per_numbering(monkeypatch):
    # the count below is that of the overlapped path, which one CPU skips
    monkeypatch.setattr(ale, "_cpus_available", lambda: 2)
    cfg = SimConfig(params=BP1, k=2, h=0.16, tau=1.0 / 200.0, T=1.0)
    state = initialize(cfg)
    specs = record_orderings(monkeypatch)
    for _ in range(4):
        state = step(state, cfg)
        got = harmonic_extension(state.mesh, state.spaces, state.u)
        expect = mmd_harmonic_extension(state.mesh, state.spaces, state.u)
        assert_exact(got, expect)
    assert state.remesh_count == 0
    # the operator prepared for the last configuration is factored on the
    # worker; closing it waits for that
    state.harmonic.close()
    # the first step orders by MMD; every later factorization is in that
    # order: one per configuration prepared during the flow solve that
    # moved to it, the last one included, and one per extension above
    assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * 8

    # the same numbering under new identity orders again, and stays exact
    spaces = state.spaces
    V = spaces.velocity
    perm = np.random.default_rng(0).permutation(V.n_dofs)
    V_perm = replace(V, dof_of=perm[V.dof_of])
    boundary = perm[spaces.boundary_dofs]
    renumbered = FESpacePair(V_perm, spaces.pressure,
                             perm[spaces.interface_dofs], boundary,
                             DofMaps(V_perm, spaces.pressure, boundary))
    u = np.empty_like(state.u)
    u.reshape(-1, 2)[perm] = state.u.reshape(-1, 2)
    del specs[:]
    for _ in range(2):
        assert_exact(harmonic_extension(state.mesh, renumbered, u),
                     mmd_harmonic_extension(state.mesh, renumbered, u))
    assert specs == ["MMD_AT_PLUS_A", "NATURAL"]


def test_harmonic_extension_keeps_mmd_fill():
    """The NATURAL factor of the permuted block has the L, U and row
    pivots of the MMD factor of the block."""
    cfg = SimConfig(params=BP1, k=2, h=0.16, tau=1.0 / 200.0, T=1.0)
    state = step(initialize(cfg), cfg)
    spaces, V = state.spaces, state.spaces.velocity
    L = scalar_laplacian(geometry(state.mesh), V, spaces.maps.scalar)
    free = np.ones(V.n_dofs, dtype=bool)
    free[spaces.interface_dofs] = False
    free[spaces.boundary_dofs] = False
    Lff = L[free][:, free].tocsc()
    mmd = splu(Lff, permc_spec="MMD_AT_PLUS_A")
    natural = splu(Lff[:, ale._inverse_order(mmd.perm_c)],
                   permc_spec="NATURAL")
    for a, b in ((mmd.L, natural.L), (mmd.U, natural.U)):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, part), getattr(b, part))
    assert np.array_equal(mmd.perm_r, natural.perm_r)
