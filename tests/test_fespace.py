import math

import numpy as np
import pytest

from alefem import ale, fespace
from alefem.fespace import (
    GLOBAL,
    PointLocationError,
    build_scalar_space,
    build_taylor_hood,
    evaluate_at,
    evaluate_many,
    interpolate,
)
from alefem.mesh import (MINUS, PLUS, displace, generate_bubble_mesh,
                          generate_rect_mesh, geometry, map_points)

from alefem.stepper import SimConfig, initialize, step

import loop_reference
from conftest import BP1, CENTER, RADIUS, RECT


def test_two_triangle_dof_counts(two_triangle_mesh):
    pair = build_taylor_hood(two_triangle_mesh, 2)
    # 4 vertices + 5 edges
    assert pair.velocity.n_dofs == 9
    # P1 pressure on a mesh without interface: one DOF per vertex
    assert pair.pressure.n_dofs == 4


def test_pressure_dofs_duplicated_on_interface(bubble_mesh_k2):
    mesh = bubble_mesh_k2
    pair = build_taylor_hood(mesh, 2)
    tri = mesh.elements[:, :3]
    iface_vertices = {
        int(v)
        for e, le in mesh.interface_edges
        for v in (tri[e, le], tri[e, (le + 1) % 3])
    }
    n_vertices = len(np.unique(tri))
    assert pair.pressure.n_dofs == n_vertices + len(iface_vertices)
    assert build_scalar_space(mesh, 1, GLOBAL).n_dofs == n_vertices


def test_velocity_dofs_match_mesh_nodes(bubble_mesh_k2):
    pair = build_taylor_hood(bubble_mesh_k2, 2)
    assert pair.velocity.n_dofs == bubble_mesh_k2.n_nodes
    assert np.array_equal(pair.velocity.positions, bubble_mesh_k2.coords)


def test_taylor_hood_k3_dof_count():
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.16, 3)
    pair = build_taylor_hood(mesh, 3)
    tri = mesh.elements[:, :3]
    n_vertices = len(np.unique(tri))
    edges = {tuple(sorted((tri[e, i], tri[e, (i + 1) % 3])))
             for e in range(mesh.n_elements) for i in range(3)}
    expect = n_vertices + 2 * len(edges) + mesh.n_elements
    assert pair.velocity.n_dofs == expect


def test_interpolate_linear_reproduced(bubble_pair_k2):
    V = bubble_pair_k2.velocity

    def f(x, y):
        return 3.0 * x - 2.0 * y + 0.25

    c = interpolate(V, f)
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.uniform(0.1, 0.9, 60),
                           rng.uniform(0.1, 1.9, 60)])
    vals = evaluate_many(V, c, pts)
    assert np.abs(vals - f(pts[:, 0], pts[:, 1])).max() < 1e-13


def test_interpolate_zero(bubble_pair_k2):
    c = interpolate(bubble_pair_k2.velocity, lambda x, y: 0.0)
    assert not c.any()


def test_interpolation_error_third_order():
    def f(x, y):
        return math.sin(x) * math.cos(y)

    rng = np.random.default_rng(2)
    pts = np.column_stack([rng.uniform(0.1, 0.9, 300),
                           rng.uniform(0.1, 1.9, 300)])
    exact = np.array([f(x, y) for x, y in pts])
    errs = []
    for h in (0.2, 0.1, 0.05):
        mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, h, 2)
        pair = build_taylor_hood(mesh, 2)
        c = interpolate(pair.velocity, f)
        vals = evaluate_many(pair.velocity, c, pts)
        errs.append(np.abs(vals - exact).max())
    rate = math.log2(errs[0] / errs[-1]) / 2
    assert rate > 2.6  # O(h^3) up to sampling noise


def test_evaluate_at_node_gives_coefficient(bubble_pair_k2):
    V = bubble_pair_k2.velocity
    rng = np.random.default_rng(3)
    c = rng.normal(size=V.n_dofs)
    for dof in (5, 100, 400):
        val = evaluate_many(V, c, V.positions[dof])[0]
        assert val == pytest.approx(c[dof], abs=1e-11)


def test_constant_one_everywhere(bubble_pair_k2):
    V = bubble_pair_k2.velocity
    c = np.ones(V.n_dofs)
    rng = np.random.default_rng(4)
    pts = np.column_stack([rng.uniform(0.02, 0.98, 50),
                           rng.uniform(0.02, 1.98, 50)])
    assert np.abs(evaluate_many(V, c, pts) - 1.0).max() < 1e-12


def test_quadratic_exact_at_centroids(bubble_mesh_k2, bubble_pair_k2):
    mesh, V = bubble_mesh_k2, bubble_pair_k2.velocity

    def f(x, y):
        return x * x - 0.5 * x * y + 2.0 * y * y - x + 3.0

    c = interpolate(V, f)
    for e in range(0, mesh.n_elements, 37):
        x, _, _ = map_points(mesh, [e], np.array([[1 / 3, 1 / 3]]))
        val = evaluate_at(V, c, np.array([e]), np.array([[1 / 3, 1 / 3]]))
        # exact only on straight elements; curved ones approximate
        tri = mesh.coords[mesh.elements[e, :3]]
        mids = mesh.coords[mesh.elements[e, 3:6]]
        straight = all(
            np.abs(mids[i] - 0.5 * (tri[i] + tri[(i + 1) % 3])).max() < 1e-12
            for i in range(3))
        if straight:
            assert val[0] == pytest.approx(f(*x[0]), abs=1e-12)


def test_point_outside_mesh_raises(bubble_pair_k2):
    V = bubble_pair_k2.velocity
    c = np.zeros(V.n_dofs)
    with pytest.raises(PointLocationError):
        evaluate_many(V, c, (5.0, 5.0))


def test_two_valued_interpolation_and_sides(bubble_pair_k2):
    P = bubble_pair_k2.pressure
    c = interpolate(P, (lambda x, y: 1.0, lambda x, y: -1.0))
    inside, = evaluate_many(P, c, CENTER, phase=-1)
    outside, = evaluate_many(P, c, (0.1, 1.8), phase=1)
    assert inside == pytest.approx(-1.0, abs=1e-14)
    assert outside == pytest.approx(1.0, abs=1e-14)
    # on the interface both branches are reachable
    pt = (CENTER[0] + RADIUS, CENTER[1])
    assert evaluate_many(P, c, pt, phase=-1)[0] == pytest.approx(-1.0, abs=1e-10)
    assert evaluate_many(P, c, pt, phase=1)[0] == pytest.approx(1.0, abs=1e-10)


def test_transport_property_under_displacement(bubble_mesh_k2, bubble_pair_k2):
    """Moving the mesh while keeping coefficients leaves the pullback
    to the reference configuration unchanged."""
    mesh, pair = bubble_mesh_k2, bubble_pair_k2
    V = pair.velocity
    rng = np.random.default_rng(6)
    c = rng.normal(size=V.n_dofs)
    d = rng.uniform(-5e-4, 5e-4, size=mesh.x.shape)
    moved = displace(mesh, d)
    from alefem.ale import spaces_with_mesh

    pair2 = spaces_with_mesh(pair, moved)
    ref = np.array([[0.25, 0.4], [0.6, 0.1], [1 / 3, 1 / 3]])
    for e in (0, 11, 99):
        elems = np.full(len(ref), e)
        v1 = evaluate_at(V, c, elems, ref)
        v2 = evaluate_at(pair2.velocity, c, elems, ref)
        assert np.array_equal(v1, v2)


def test_ring_dof_sets(bubble_mesh_k2, bubble_pair_k2):
    mesh, pair = bubble_mesh_k2, bubble_pair_k2
    assert np.array_equal(pair.interface_dofs, mesh.interface_node_ids())
    assert np.array_equal(pair.boundary_dofs, mesh.boundary_node_ids())
    assert not set(pair.interface_dofs) & set(pair.boundary_dofs)


def test_mesh_degree_mismatch_rejected(bubble_mesh_k2):
    with pytest.raises(ValueError):
        build_taylor_hood(bubble_mesh_k2, 3)


def test_degree_one_pair_rejected():
    with pytest.raises(ValueError):
        build_taylor_hood(generate_rect_mesh(RECT, 0.5, 1), 1)


def test_pressure_positions_are_computed_on_first_read(monkeypatch):
    """A step without a remesh reads no DOF positions of the pressure
    space; read, they are those of `dof_positions`."""
    cfg = SimConfig(params=BP1, k=2, h=0.16, tau=1.0 / 200.0, T=0.01)
    state = initialize(cfg)
    original = fespace.dof_positions
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fespace, "dof_positions", counting)
    state = step(state, cfg)
    assert state.remesh_count == 0
    assert calls == []
    P = state.spaces.pressure
    positions = P.positions
    assert np.array_equal(positions,
                          original(state.mesh, P.degree, P.dof_of, P.n_dofs))
    assert not positions.flags.writeable
    assert P.positions is positions and len(calls) == 1


@pytest.mark.parametrize("k", [2, 3])
def test_array_bins_locate_as_the_loop_over_points_did(k):
    """The array bins give every point the candidates of the frozen dict
    bins and per-point loop, in their order, so `locate` returns their
    elements and reference coordinates bit for bit: for the pullback's
    per-element phases, a transfer's per-DOF phases (0 on the
    interface), one phase for all points, no phase, and points off the
    mesh with a phase."""
    fine = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.08, k)
    coarse = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.16, k)
    geom = geometry(coarse)
    quad = geom.x.reshape(-1, 2)
    V = build_taylor_hood(coarse, k).velocity
    rng = np.random.default_rng(7)
    inside = np.column_stack([rng.uniform(0.0, 1.0, 500),
                              rng.uniform(0.0, 2.0, 500)])
    r = np.hypot(*(inside - CENTER).T)
    cases = [(quad, np.repeat(coarse.phase, geom.x.shape[1])),
             (V.positions, V.dof_phase), (inside[r < 0.9 * RADIUS], MINUS),
             (inside[r > 1.1 * RADIUS], PLUS),
             (np.vstack([inside, V.positions]), None),
             # in no candidate's box: the best of its bin, extrapolated
             (np.array([[1.2, 1.0], [-0.3, 0.4], [0.5, 2.25]]), PLUS)]
    new, old = fine.locator(), loop_reference.PointLocator(fine)
    for pts, phase in cases:
        elems, ref = new.locate(pts, phase=phase)
        elems_old, ref_old = old.locate(pts, phase=phase)
        assert elems.dtype == elems_old.dtype and ref.dtype == ref_old.dtype
        assert elems.tobytes() == elems_old.tobytes()
        assert ref.tobytes() == ref_old.tobytes()
    for locator in (new, old):
        with pytest.raises(PointLocationError):
            locator.locate(np.vstack([inside, [[1.5, 1.0]]]))


def test_a_phase_missing_from_a_bin_is_sought_ring_by_ring():
    """The minus-phase pressure DOF at the top of a bubble moved up by
    0.02, (0.5, 0.77), lies above the old bubble, and its bin on the old
    mesh holds no minus element: it takes the nearest minus element of
    the bins around, extrapolating a little, where the frozen locator
    raised.  Every other point locates as the frozen locator does, bit
    for bit."""
    old = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.08, 2)
    new = build_taylor_hood(generate_bubble_mesh(RECT, (0.5, 0.52), RADIUS,
                                                 0.08, 2), 2)
    pts, phase = new.pressure.positions, new.pressure.dof_phase
    top = np.all(np.isclose(pts, (0.5, 0.77)), axis=1) & (phase == MINUS)
    assert top.sum() == 1
    frozen = loop_reference.PointLocator(old)
    with pytest.raises(PointLocationError):
        frozen.locate(pts, phase=phase)
    elems, ref = old.locator().locate(pts, phase=phase)
    elems_old, ref_old = frozen.locate(pts[~top], phase=phase[~top])
    assert elems[~top].tobytes() == elems_old.tobytes()
    assert ref[~top].tobytes() == ref_old.tobytes()
    assert old.phase[elems[top]] == MINUS
    x, _, _ = map_points(old, elems[top], ref[top])
    assert np.allclose(x, pts[top], atol=1e-12)
    assert np.append(ref[top], 1.0 - ref[top].sum()).min() > -0.5
    p = np.random.default_rng(9).standard_normal(
        build_taylor_hood(old, 2).pressure.n_dofs)
    assert np.isfinite(ale.transfer_pressure(build_taylor_hood(old, 2), new,
                                             p)).all()


def test_a_mesh_keeps_one_locator_and_a_moved_mesh_builds_its_own(
        bubble_mesh_k2):
    mesh = bubble_mesh_k2
    locator = mesh.locator()
    assert mesh.locator() is locator
    rng = np.random.default_rng(8)
    moved = displace(mesh, rng.uniform(-5e-4, 5e-4, size=mesh.x.shape))
    assert moved.locator() is not locator
    # each locates in its own configuration
    centroid = np.array([[1 / 3, 1 / 3]])
    for m in (mesh, moved):
        x, _, _ = map_points(m, [17], centroid)
        elems, ref = m.locator().locate(x)
        assert elems[0] == 17
        assert np.allclose(ref, centroid, atol=1e-12)
