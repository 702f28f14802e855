import numpy as np
import pytest
from scipy import sparse

from alefem.assembly import PhaseParams
from alefem.cli import smooth_displacement  # noqa: F401  (shared by tests)

BP1 = PhaseParams(rho_plus=1000.0, rho_minus=100.0, mu_plus=10.0,
                  mu_minus=1.0, g=0.98)
RECT = (0.0, 0.0, 1.0, 2.0)
CENTER = (0.5, 0.5)
RADIUS = 0.25


def kron2(S):
    """The scalar matrix S acting alike on both components of
    interleaved vector coefficients."""
    return sparse.kron(S, sparse.identity(2, format="csr"), format="csr")


@pytest.fixture(scope="session")
def bp1_params():
    return BP1


@pytest.fixture(scope="session")
def bubble_mesh_k2():
    from alefem.mesh import generate_bubble_mesh

    return generate_bubble_mesh(RECT, CENTER, RADIUS, 0.1, 2)


@pytest.fixture(scope="session")
def bubble_pair_k2(bubble_mesh_k2):
    from alefem.fespace import build_taylor_hood

    return build_taylor_hood(bubble_mesh_k2, 2)


@pytest.fixture()
def two_triangle_mesh():
    """Unit square split along the diagonal, degree 2."""
    from alefem.mesh import _elevate

    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    phase = np.ones(2, dtype=np.int8)
    return _elevate(pts, tris, phase, (0, 0, 1, 1), 2)
