import math

import numpy as np
import pytest

from alefem.assembly import PhaseParams, field_values
from alefem.fespace import build_taylor_hood, interpolate
from alefem.mesh import MINUS, displace, fit_interface_mesh, \
    generate_bubble_mesh, generate_rect_mesh, geometry
from alefem.observables import (
    _bubble,
    _bubble_mean,
    _circularity,
    _energy,
    interface_length,
)

from conftest import BP1, CENTER, RADIUS, RECT


def bubble_area(mesh):
    """The bubble area as the benchmark record computes it."""
    return float(_bubble(mesh, geometry(mesh))[2])


def center_of_mass(mesh):
    """The bubble's centroid as the benchmark record computes it."""
    geom = geometry(mesh)
    bubble = _bubble(mesh, geom)
    return (_bubble_mean(bubble, geom.x[..., 0]),
            _bubble_mean(bubble, geom.x[..., 1]))


def circularity(mesh):
    """The circularity as the benchmark record computes it."""
    return _circularity(bubble_area(mesh), interface_length(mesh))


def rise_velocity(mesh, velocity_space, u):
    """The rise velocity as the benchmark record computes it."""
    geom = geometry(mesh)
    uq = field_values(velocity_space, u, geom)
    return _bubble_mean(_bubble(mesh, geom), uq[..., 1])


@pytest.fixture(scope="module")
def bubble():
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.05, 2)
    return mesh, build_taylor_hood(mesh, 2)


def test_center_of_mass_initial(bubble):
    mesh, _ = bubble
    cx, cy = center_of_mass(mesh)
    assert cx == pytest.approx(0.5, abs=1e-10)
    assert cy == pytest.approx(0.5, abs=1e-10)


def test_center_of_mass_translation_equivariance(bubble):
    mesh, _ = bubble
    moved = displace(mesh, np.tile([0.0, 0.3], mesh.n_nodes))
    cx, cy = center_of_mass(moved)
    assert cx == pytest.approx(0.5, abs=1e-10)
    assert cy == pytest.approx(0.8, abs=1e-10)


def test_half_disk_centroid():
    """Polygonal half-disk: the mesh centroid equals the shoelace
    centroid of the polygon exactly, and both approach the analytic
    half-disk value 4r/(3pi) as the polygon refines."""
    r = 0.3
    cx, cy = 0.5, 1.0
    n_arc = 40
    theta = np.linspace(0.0, math.pi, n_arc + 1)
    arc = np.column_stack([cx + r * np.cos(theta), cy + r * np.sin(theta)])
    base = np.column_stack([
        np.linspace(cx - r, cx + r, 12)[1:-1], np.full(10, cy)])
    ring = np.vstack([arc, base])
    mesh = fit_interface_mesh(RECT, ring, 0.08, 2)
    got = center_of_mass(mesh)

    # shoelace centroid of the same polygon
    x, y = ring[:, 0], ring[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    crossp = x * yn - xn * y
    area = crossp.sum() / 2.0
    sx = ((x + xn) * crossp).sum() / (6.0 * area)
    sy = ((y + yn) * crossp).sum() / (6.0 * area)
    assert got[0] == pytest.approx(sx, abs=1e-10)
    assert got[1] == pytest.approx(sy, abs=1e-10)
    # analytic half-disk centroid sits 4r/(3pi) above the diameter
    assert got[1] - cy == pytest.approx(4 * r / (3 * math.pi), abs=2e-3)
    assert got[0] == pytest.approx(cx, abs=1e-10)


def test_circularity_initial_circle():
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.04, 2)
    assert circularity(mesh) == pytest.approx(1.0, abs=1e-4)


def test_circularity_never_exceeds_one(bubble):
    mesh, _ = bubble
    assert circularity(mesh) <= 1.0 + 1e-6
    squeezed = displace(
        mesh, np.column_stack([0.3 * (mesh.coords[:, 0] - 0.5),
                               np.zeros(mesh.n_nodes)]).ravel())
    assert circularity(squeezed) <= 1.0 + 1e-6


def test_circularity_ellipse_fixture():
    """a = 2b ellipse; the oracle perimeter is the complete elliptic
    integral (scipy.special.ellipe)."""
    from scipy.special import ellipe

    b = 0.15
    a = 2 * b
    n = 48  # ring spacing comparable to h so the fit stays well shaped
    t = 2 * np.pi * np.arange(n) / n
    ring = np.column_stack([0.5 + a * np.cos(t), 1.0 + b * np.sin(t)])
    mesh = fit_interface_mesh(RECT, ring, 0.04, 2)
    got = circularity(mesh)
    m = 1.0 - (b / a) ** 2
    perimeter = 4 * a * ellipe(m)
    expect = 2 * math.sqrt(math.pi * (math.pi * a * b)) / perimeter
    assert expect == pytest.approx(0.91708, abs=1e-4)  # frozen oracle value
    assert got == pytest.approx(expect, abs=2e-3)


def test_circularity_scale_invariance():
    m1 = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.08, 2)
    m2 = generate_bubble_mesh((0, 0, 2, 4), (1.0, 1.0), 2 * RADIUS, 0.16, 2)
    assert circularity(m1) == pytest.approx(circularity(m2), abs=1e-12)


def test_interface_length_initial():
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.04, 2)
    assert interface_length(mesh) == pytest.approx(2 * math.pi * RADIUS,
                                                   rel=2e-5)


def test_rise_velocity(bubble):
    mesh, spaces = bubble
    V = spaces.velocity
    assert rise_velocity(mesh, V, np.zeros(2 * V.n_dofs)) == 0.0
    u = interpolate(V, lambda x, y: (0.0, 3.0), vector=True)
    assert rise_velocity(mesh, V, u) == pytest.approx(3.0, abs=1e-12)
    u = interpolate(V, lambda x, y: (0.0, y), vector=True)
    _, cy = center_of_mass(mesh)
    assert rise_velocity(mesh, V, u) == pytest.approx(cy, abs=1e-10)


def energy(mesh, velocity_space, u, params):
    """(kinetic, potential, total) as the benchmark record computes them."""
    geom = geometry(mesh)
    return _energy(mesh, geom, field_values(velocity_space, u, geom), params)


def test_energy_zero_velocity(bubble):
    mesh, spaces = bubble
    kin, pot, tot = energy(mesh, spaces.velocity,
                           np.zeros(2 * spaces.velocity.n_dofs), BP1)
    assert kin == 0.0
    assert tot == pot


def test_energy_unit_square_potential():
    mesh = generate_rect_mesh((0, 0, 1, 1), 0.25, 2)
    spaces = build_taylor_hood(mesh, 2)
    params = PhaseParams(1.0, 1.0, 1.0, 1.0, 1.0)
    _, pot, _ = energy(mesh, spaces.velocity,
                       np.zeros(2 * spaces.velocity.n_dofs), params)
    assert pot == pytest.approx(0.5, abs=1e-12)


def test_energy_bp1_initial_against_analytic_decomposition(bubble):
    mesh, spaces = bubble
    _, pot, _ = energy(mesh, spaces.velocity,
                       np.zeros(2 * spaces.velocity.n_dofs), BP1)
    # rectangle integral of y minus disk part, reweighted per phase
    rect_int = 1.0 * 2.0 ** 2 / 2.0                 # int_rect y
    disk_int = math.pi * RADIUS ** 2 * CENTER[1]    # int_disk y
    expect = BP1.g * (BP1.rho_plus * (rect_int - disk_int)
                      + BP1.rho_minus * disk_int)
    assert pot == pytest.approx(expect, rel=1e-6)


def test_phase_area(bubble):
    mesh, _ = bubble
    minus = bubble_area(mesh)
    plus = geometry(mesh).wdet[mesh.phase != MINUS].sum()
    assert minus + plus == pytest.approx(2.0, abs=1e-10)
    assert minus == pytest.approx(math.pi * RADIUS ** 2, abs=1e-5)


def test_kinetic_energy_constant_field(bubble):
    mesh, spaces = bubble
    u = interpolate(spaces.velocity, lambda x, y: (2.0, 0.0), vector=True)
    kin, _, _ = energy(mesh, spaces.velocity, u, BP1)
    minus = bubble_area(mesh)
    expect = 0.5 * 4.0 * (BP1.rho_plus * (2.0 - minus) + BP1.rho_minus * minus)
    assert kin == pytest.approx(expect, rel=1e-12)
