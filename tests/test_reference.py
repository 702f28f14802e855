import numpy as np
import pytest

from alefem.reference import (
    edge_element,
    edge_local_nodes,
    lattice_nodes,
    reference_element,
)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_node_count(k):
    assert len(lattice_nodes(k)) == (k + 1) * (k + 2) // 2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kronecker_property(k):
    ref = reference_element(k)
    V = ref.shape_values(ref.nodes)
    assert np.abs(V - np.eye(ref.n_nodes)).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_partition_of_unity(k):
    ref = reference_element(k)
    rng = np.random.default_rng(0)
    pts = rng.random((40, 2)) * [0.8, 0.8]
    pts = pts[pts.sum(axis=1) < 1.0]
    sums = ref.shape_values(pts).sum(axis=0)
    assert np.abs(sums - 1.0).max() < 1e-13
    grads = ref.shape_gradients(pts).sum(axis=0)
    assert np.abs(grads).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gradients_match_finite_differences(k):
    ref = reference_element(k)
    p = np.array([[0.31, 0.27]])
    eps = 1e-6
    g = ref.shape_gradients(p)[:, 0, :]
    for axis in range(2):
        dp = np.zeros(2)
        dp[axis] = eps
        fd = (ref.shape_values(p + dp) - ref.shape_values(p - dp)) / (2 * eps)
        assert np.abs(g[:, axis] - fd[:, 0]).max() < 1e-8


def test_edge_local_nodes_orders_along_edge():
    nodes = lattice_nodes(3)
    for edge, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
        ids = edge_local_nodes(3, edge)
        assert ids[0] == a and ids[-1] == b
        pts = nodes[ids]
        # points must be the affine lattice from vertex a to b
        for j, p in enumerate(pts):
            s = j / 3
            expect = nodes[a] * (1 - s) + nodes[b] * s
            assert np.abs(p - expect).max() < 1e-15


def test_edge_element_kronecker():
    for k in (1, 2, 3):
        el = edge_element(k)
        V = el.shape_values(el.nodes)
        assert np.abs(V - np.eye(k + 1)).max() < 1e-12

