import math

import numpy as np
import pytest

from alefem import mesh as meshmod
from alefem.mesh import (
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
