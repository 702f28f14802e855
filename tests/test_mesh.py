import itertools
import math
import signal
import time

import numpy as np
import pytest

import loop_reference as ref
from alefem import mesh as meshmod
from alefem.mesh import (
    MINUS,
    PLUS,
    Mesh,
    MeshError,
    MeshGenerationError,
    TangledElementError,
    displace,
    generate_bubble_mesh,
    generate_rect_mesh,
    geometry,
    interface_cycle,
    map_points,
    quality,
)
from alefem.quadrature import triangle_rule
from alefem.reference import reference_element

from conftest import CENTER, RADIUS, RECT


def mesh_areas(mesh):
    rule = triangle_rule(2 * mesh.degree + 2)
    grads = reference_element(mesh.degree).shape_gradients(rule.points)
    xs = mesh.coords[mesh.elements]
    J = np.einsum("lqj,eli->eqij", grads, xs)
    detJ = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    per_element = detJ @ rule.weights
    return per_element


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bubble_mesh_area_partition(k):
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.08, k)
    areas = mesh_areas(mesh)
    assert abs(areas.sum() - 2.0) < 1e-10
    minus_area = areas[mesh.phase == -1].sum()
    exact = math.pi * RADIUS ** 2
    # curved-interface geometry converges at O(h^{k+1})
    tol = 5.0 * 0.08 ** (k + 1)
    assert abs(minus_area - exact) < tol


def test_bubble_mesh_like_benchmark_m1():
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.04, 2)
    q = quality(mesh)
    assert q.min_angle > math.pi / 18
    assert q.min_jacobian > 0
    tri = mesh.coords[mesh.elements[:, :3]]
    edges = tri[:, [1, 2, 0]] - tri
    assert np.linalg.norm(edges, axis=2).max() < 3 * 0.04
    # interface nodes sit exactly on the circle
    ids = mesh.interface_node_ids()
    r = np.hypot(*(mesh.coords[ids] - CENTER).T)
    assert np.abs(r - RADIUS).max() < 1e-13


def test_circle_outside_rectangle_rejected():
    with pytest.raises(MeshGenerationError):
        generate_bubble_mesh(RECT, CENTER, 0.6, 0.04, 2)
    with pytest.raises(MeshGenerationError):
        generate_bubble_mesh(RECT, (0.5, 0.5), 0.45, 0.08, 2)  # clearance <= h


def test_a_ring_segment_missing_from_delaunay_raises():
    """A coarse ellipse whose 1.9h chords are not all Delaunay edges: the
    fit recovers no segment, and raises naming the first one missing."""
    theta = 2.0 * math.pi * np.arange(6) / 6
    ring = np.column_stack([0.5 + 0.3 * np.cos(theta),
                            0.7 + 0.15 * np.sin(theta)])
    with pytest.raises(MeshGenerationError, match=(
            r"^ring segment \d \(nodes \d+-\d+\) is not an edge of the "
            r"Delaunay triangulation$")):
        meshmod.fit_interface_mesh(RECT, ring, 0.16, 2)


def test_interface_edges_pair_plus_minus():
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.1, 2)
    assert (mesh.phase[mesh.interface_edges[:, 0]] == -1).all()
    verts, edges = interface_cycle(mesh)
    assert len(verts) == len(mesh.interface_edges)
    # counterclockwise orientation encloses the bubble
    pos = mesh.coords[verts]
    assert (pos[:, 0] * np.roll(pos[:, 1], -1) - pos[:, 1] * np.roll(pos[:, 0], -1)).sum() > 0


def test_element_map_affine():
    mesh = Mesh(
        x=np.array([0.0, 0.0, 2.0, 0.0, 0.0, 2.0]),
        elements=np.array([[0, 1, 2]]),
        phase=np.array([1], dtype=np.int8),
        interface_edges=np.empty((0, 2), dtype=int),
        boundary_edges=np.array([[0, 0], [0, 1], [0, 2]]),
        degree=1,
    )
    pts = np.array([[0.2, 0.3], [0.0, 0.0], [0.5, 0.5]])
    x, J, detJ = map_points(mesh, np.zeros(len(pts), dtype=int), pts)
    assert np.allclose(detJ, 4.0)
    assert np.allclose(x[0], [0.4, 0.6])


def test_element_map_identity():
    mesh = Mesh(
        x=np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0]),
        elements=np.array([[0, 1, 2]]),
        phase=np.array([1], dtype=np.int8),
        interface_edges=np.empty((0, 2), dtype=int),
        boundary_edges=np.array([[0, 0], [0, 1], [0, 2]]),
        degree=1,
    )
    _, J, _ = map_points(mesh, [0], np.array([[0.3, 0.3]]))
    assert np.allclose(J[0], np.eye(2))


def test_element_map_curved_matches_finite_differences():
    # k=2 element with one midside node pushed out by 0.05 along the normal
    x = np.array([
        [0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
        [0.5, -0.05], [0.5, 0.5], [0.0, 0.5],
    ])
    mesh = Mesh(
        x=x.ravel(),
        elements=np.array([[0, 1, 2, 3, 4, 5]]),
        phase=np.array([1], dtype=np.int8),
        interface_edges=np.empty((0, 2), dtype=int),
        boundary_edges=np.array([[0, 0], [0, 1], [0, 2]]),
        degree=2,
    )
    p = np.array([[0.3, 0.2]])
    _, J, _ = map_points(mesh, [0], p)
    eps = 1e-6
    for axis in range(2):
        dp = np.zeros(2)
        dp[axis] = eps
        xp, _, _ = map_points(mesh, [0], p + dp)
        xm, _, _ = map_points(mesh, [0], p - dp)
        fd = (xp[0] - xm[0]) / (2 * eps)
        assert np.abs(J[0, :, axis] - fd).max() < 1e-6


def test_element_map_tangled_raises():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-4]])
    mesh = Mesh(
        x=np.array([0.0, 0.0, 1.0, 0.0, 0.5, 1e-4]),
        elements=np.array([[0, 2, 1]]),  # clockwise: negative Jacobian
        phase=np.array([1], dtype=np.int8),
        interface_edges=np.empty((0, 2), dtype=int),
        boundary_edges=np.empty((0, 2), dtype=int),
        degree=1,
    )
    _, _, detJ = map_points(mesh, [0], np.array([[0.3, 0.3]]))
    assert detJ[0] < 0.0
    with pytest.raises(TangledElementError):
        geometry(mesh)


def quality_of_triangle(verts):
    mesh = Mesh(
        x=np.asarray(verts, dtype=float).ravel(),
        elements=np.array([[0, 1, 2]]),
        phase=np.array([1], dtype=np.int8),
        interface_edges=np.empty((0, 2), dtype=int),
        boundary_edges=np.empty((0, 2), dtype=int),
        degree=1,
    )
    return quality(mesh)


def test_quality_equilateral():
    q = quality_of_triangle([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
    assert q.min_angle == pytest.approx(math.pi / 3, abs=1e-12)


def test_quality_right_isoceles():
    q = quality_of_triangle([[0, 0], [1, 0], [0, 1]])
    assert q.min_angle == pytest.approx(math.pi / 4, abs=1e-12)


def test_quality_needle():
    q = quality_of_triangle([[0, 0], [1, 0], [0.5, 1e-4]])
    # law of cosines: the apex angles collapse
    assert q.min_angle < 1e-3
    assert q.min_angle > 0


def test_displace_zero_and_rigid():
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.1, 2)
    same = displace(mesh, np.zeros_like(mesh.x))
    assert np.array_equal(same.x, mesh.x)
    d = np.tile([0.1, 0.0], mesh.n_nodes)
    moved = displace(mesh, d)
    assert np.abs(mesh_areas(moved) - mesh_areas(mesh)).max() < 1e-14


def test_displace_does_not_recheck_the_interface_pairing(monkeypatch):
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.16, 2)
    calls = []

    def counting(*args):
        calls.append(args)

    monkeypatch.setattr(meshmod, "_check_interface_pairing", counting)
    moved = displace(displace(mesh, np.zeros_like(mesh.x)),
                     np.full_like(mesh.x, 1e-3))
    assert calls == []
    assert moved.interface_edges is mesh.interface_edges


def test_corrupted_interface_edges_raise_after_displace():
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.16, 2)
    displace(mesh, np.zeros_like(mesh.x))
    bad = mesh.interface_edges.copy()
    bad[:, 1] = (bad[:, 1] + 1) % 3             # another edge of the element
    with pytest.raises(MeshError):
        Mesh(x=mesh.x, elements=mesh.elements, phase=mesh.phase,
             interface_edges=bad, boundary_edges=mesh.boundary_edges,
             degree=mesh.degree)


def test_a_mesh_builds_its_edge_table_once(monkeypatch):
    """A fitted mesh keeps the edge table its elevation built, and its
    pairing check and both DOF numberings read it: one table per fit,
    a failing fit included.  A mesh made from its six fields builds the
    table once."""
    from alefem.fespace import build_taylor_hood

    tables = []
    edge_table = meshmod._edge_table
    monkeypatch.setattr(meshmod, "_edge_table", lambda tris: (
        tables.append(len(tris)) or edge_table(tris)))
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.08, 2)
    build_taylor_hood(mesh, 2)
    assert len(tables) == 1

    ring = mesh.coords[interface_cycle(mesh)[0]]
    tables.clear()
    with pytest.raises(MeshGenerationError, match="min angle"):
        meshmod.fit_interface_mesh(RECT, ring, 0.08, 2,
                                   min_angle=math.radians(59))
    assert len(tables) == 1

    tables.clear()
    same = Mesh(x=mesh.x, elements=mesh.elements, phase=mesh.phase,
                interface_edges=mesh.interface_edges,
                boundary_edges=mesh.boundary_edges, degree=mesh.degree)
    build_taylor_hood(same, 2)
    assert len(tables) == 1
    assert same.edge_table()[0].tobytes() == mesh.edge_table()[0].tobytes()


def with_interface(mesh, phase, rows):
    return Mesh(x=mesh.x, elements=mesh.elements, phase=phase,
                interface_edges=rows, boundary_edges=mesh.boundary_edges,
                degree=mesh.degree)


def plus_side_row(mesh):
    """The interface rows with the first at its plus-side incidence."""
    edge_of = meshmod._edge_table(mesh.elements[:, :3])[0]
    rows = mesh.interface_edges.copy()
    twins = np.argwhere(edge_of == edge_of[tuple(rows[0])])
    rows[0] = twins[twins[:, 0] != rows[0, 0]][0]
    return rows


def boundary_row(mesh):
    return np.vstack([mesh.interface_edges, mesh.boundary_edges[:1]])


def plus_plus_row(mesh):
    edge_of = meshmod._edge_table(mesh.elements[:, :3])[0]
    plus = np.bincount(edge_of.ravel(),
                       weights=np.repeat(mesh.phase == PLUS, 3))
    e, le = np.argwhere(plus[edge_of] == 2)[0]
    return np.vstack([mesh.interface_edges, [[e, le]]])


@pytest.mark.parametrize("corrupt, message", [
    (plus_side_row, "minus-side incidence"),
    (boundary_row, "not shared by exactly 2 elements"),
    (plus_plus_row, "does not separate the two phases"),
])
def test_pairing_check_rejects(corrupt, message):
    """Each check of the pairing raises as the sort-based check did."""
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.16, 2)
    rows = corrupt(mesh)
    with pytest.raises(MeshError, match=message):
        with_interface(mesh, mesh.phase, rows)
    with pytest.raises(MeshError, match=message):
        ref.check_interface_pairing(mesh.elements, mesh.phase, rows)


def grid_interface(h, triangles):
    """A grid mesh of the unit square whose minus phase is the given
    triangles, each (i, j, half) for half 0 or 1 of cell (i, j), with
    their edges as the interface rows, in that order."""
    grid = generate_rect_mesh((0.0, 0.0, 1.0, 1.0), h, 2)
    n = round(1.0 / h)
    minus = [2 * (n * i + j) + half for i, j, half in triangles]
    phase = grid.phase.copy()
    phase[minus] = MINUS
    rows = np.array([[e, le] for e in minus for le in range(3)])
    return grid, phase, rows, minus


def test_interface_cycle_needs_an_interface():
    with pytest.raises(MeshError, match="no interface"):
        interface_cycle(generate_rect_mesh(RECT, 0.25, 2))


def test_interface_cycle_rejects_an_open_chain():
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.16, 2)
    e, le = mesh.interface_edges[0]
    end = min(mesh.elements[e, [le, (le + 1) % 3]])
    open_chain = with_interface(mesh, mesh.phase, mesh.interface_edges[1:])
    with pytest.raises(MeshError, match=rf"at vertex {end}$"):
        interface_cycle(open_chain)


def test_interface_cycle_rejects_two_loops():
    grid, phase, rows, _ = grid_interface(0.125, [(1, 1, 0), (5, 5, 0)])
    with pytest.raises(MeshError, match="more than one component"):
        interface_cycle(with_interface(grid, phase, rows))


def test_interface_cycle_rejects_a_clockwise_interface():
    """Mirrored, every element runs clockwise, which the walk reports
    instead of reversing the cycle."""
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.16, 2)
    mirror = np.zeros_like(mesh.coords)
    mirror[:, 0] = 1.0 - 2.0 * mesh.coords[:, 0]
    with pytest.raises(MeshError, match="clockwise"):
        interface_cycle(displace(mesh, mirror.ravel()))


def test_figure_eight_interface_raises_at_the_shared_vertex():
    """Two minus triangles of a 4x4-cell grid that meet at one vertex
    pass the pairing check.  In half the orders of their six rows the
    dict walk this replaced re-entered one loop at the shared vertex
    and never returned; every order now raises there, at once."""
    grid, phase, rows, minus = grid_interface(0.25, [(1, 1, 0), (2, 2, 1)])
    (shared,) = np.intersect1d(*grid.elements[minus, :3])
    meshes = [with_interface(grid, phase, rows[list(order)])
              for order in itertools.permutations(range(len(rows)))]

    def overrun(*_):
        raise TimeoutError("interface_cycle ran for over a second")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        t0 = time.perf_counter()
        for mesh in meshes:
            with pytest.raises(MeshError, match=rf"at vertex {shared}$"):
                interface_cycle(mesh)
        assert time.perf_counter() - t0 < 1.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_displace_small_random_keeps_validity():
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.1, 2)
    rng = np.random.default_rng(5)
    d = rng.uniform(-1e-3, 1e-3, size=mesh.x.shape)
    moved = displace(mesh, d)
    assert quality(moved).min_jacobian > 0


def test_rect_mesh_has_no_interface():
    mesh = generate_rect_mesh(RECT, 0.25, 2)
    assert len(mesh.interface_edges) == 0
    assert abs(mesh_areas(mesh).sum() - 2.0) < 1e-12
    assert len(mesh.boundary_node_ids()) > 0
