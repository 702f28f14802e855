"""The vectorized mesh and DOF numbering equals the dict-and-loop one.

Every array of a mesh and of its spaces must be bitwise equal, dtype
included, to what `loop_reference` builds, since the index maps of
`assembly` and every result downstream depend on the numbering.  So
must the interface cycle, whose start vertex fixes the ring of every
remesh, and the interface length, a recorded observable.
"""

import numpy as np
import pytest

import loop_reference as ref
from alefem.fespace import GLOBAL, SUBDOMAIN, build_scalar_space, build_taylor_hood
from alefem.mesh import (
    displace,
    first_appearance,
    generate_bubble_mesh,
    generate_rect_mesh,
    interface_cycle,
)
from alefem.observables import interface_length

from conftest import CENTER, RADIUS, RECT, smooth_displacement

MESH_FIELDS = ("x", "elements", "phase", "interface_edges", "boundary_edges")
SPACE_FIELDS = ("dof_of", "positions", "dof_phase")

def assert_same(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, f"{what}: dtype {a.dtype} != {b.dtype}"
    assert np.array_equal(a, b), f"{what} differs"


def assert_same_mesh(new, old):
    assert new.degree == old.degree
    for name in MESH_FIELDS:
        assert_same(getattr(new, name), getattr(old, name), name)


def assert_same_space(new, old, what):
    assert new.n_dofs == old.n_dofs and type(new.n_dofs) is type(old.n_dofs)
    for name in SPACE_FIELDS:
        assert_same(getattr(new, name), getattr(old, name), f"{what}.{name}")


def assert_same_spaces(mesh, old_mesh, k):
    new = build_taylor_hood(mesh, k)
    old = ref.build_taylor_hood(old_mesh, k)
    assert_same_space(new.velocity, old.velocity, "velocity")
    assert_same_space(new.pressure, old.pressure, "pressure")
    assert_same(new.interface_dofs, old.interface_dofs, "interface_dofs")
    assert_same(new.boundary_dofs, old.boundary_dofs, "boundary_dofs")
    assert_same_space(build_scalar_space(mesh, k - 1, GLOBAL),
                      ref.build_scalar_space(old_mesh, k - 1, GLOBAL),
                      "global pressure")


@pytest.mark.parametrize("h", [0.16, 0.08])
@pytest.mark.parametrize("k", [2, 3])
def test_bubble_mesh_and_spaces_match_loops(h, k):
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, h, k)
    old = ref.generate_bubble_mesh(RECT, CENTER, RADIUS, h, k)
    assert_same_mesh(mesh, old)
    assert_same_spaces(mesh, old, k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rect_mesh_matches_loops(k):
    mesh = generate_rect_mesh(RECT, 0.25, k)
    assert_same_mesh(mesh, ref.generate_rect_mesh(RECT, 0.25, k))


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("continuity", [SUBDOMAIN, GLOBAL])
def test_scalar_spaces_match_loops(degree, continuity):
    """Every degree on a cubic mesh, so that edges with two nodes are
    reversed where the element runs against them."""
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.16, 3)
    assert_same_space(build_scalar_space(mesh, degree, continuity),
                      ref.build_scalar_space(mesh, degree, continuity),
                      f"P{degree}")


def assert_same_interface(mesh):
    verts, edges = interface_cycle(mesh)
    old_verts, old_edges = ref.interface_cycle(mesh)
    assert_same(verts, old_verts, "vertex_ids")
    assert_same(edges, np.array(old_edges), "edges")
    assert interface_length(mesh) == ref.interface_length(mesh)


@pytest.mark.parametrize("h", [0.16, 0.08, 0.04])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("center", [CENTER, (0.47, 0.53), (0.52, 0.61)])
def test_interface_cycle_and_length_match_loops(h, k, center):
    """On fitted meshes and on displaced copies of them, which are not
    checked again."""
    mesh = generate_bubble_mesh(RECT, center, RADIUS, h, k)
    d = smooth_displacement(np.random.default_rng(7), mesh.coords, 0.2 * h)
    for m in (mesh, displace(mesh, d)):
        assert_same_interface(m)


def test_first_appearance_numbers_like_a_dict():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 4, size=(200, 3))
    numbering: dict[tuple, int] = {}
    expected = [numbering.setdefault(tuple(row), len(numbering)) for row in keys]
    ids, first = first_appearance(keys)
    assert ids.tolist() == expected
    assert [tuple(keys[i]) for i in first] == list(numbering)
