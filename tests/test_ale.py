import inspect
import math
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spilu

from alefem import ale, stepper
from alefem import mesh as meshmod
from alefem.ale import (
    RemeshError,
    _redistribute,
    advance_mesh,
    check_and_remesh,
    harmonic_extension,
    move_mesh,
    spaces_with_mesh,
)
from alefem.assembly import DofMaps, Gather, assemble, scalar_laplacian
from alefem.fespace import FESpacePair, build_taylor_hood, interpolate
from alefem.mesh import (
    MINUS,
    MeshGenerationError,
    MeshQuality,
    edge_nodes,
    fit_interface_mesh,
    generate_bubble_mesh,
    geometry,
    interface_cycle,
    quality,
)
from alefem.observables import _bubble
from alefem.stepper import SimConfig, initialize, step

from conftest import BP1, CENTER, RADIUS, RECT, smooth_displacement


@pytest.fixture(scope="module")
def setup():
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.1, 2)
    return mesh, build_taylor_hood(mesh, 2)


def test_zero_interface_velocity_gives_zero(setup):
    mesh, spaces = setup
    u = np.zeros(2 * spaces.velocity.n_dofs)
    w = harmonic_extension(spaces, u)
    assert not w.any()


def test_dirichlet_rows_exact(setup):
    mesh, spaces = setup
    rng = np.random.default_rng(0)
    u = rng.normal(size=2 * spaces.velocity.n_dofs)
    w = harmonic_extension(spaces, u)
    iv = spaces.vector_dofs(spaces.interface_dofs)
    bv = spaces.vector_dofs(spaces.boundary_dofs)
    assert np.array_equal(w[iv], u[iv])  # bitwise
    assert not w[bv].any()


def test_linear_field_reproduced_inside_bubble(setup):
    """Inside the bubble the interface is the only boundary, so the
    harmonic extension of linear interface data is that linear field."""
    mesh, spaces = setup

    def lin(x, y):
        return (0.3 * x - 0.7 * y + 0.1, 0.2 * x + 0.5 * y)

    u = interpolate(spaces.velocity, lin, vector=True)
    w = harmonic_extension(spaces, u)
    minus_dofs = np.unique(spaces.velocity.dof_of[mesh.phase == MINUS])
    wv = w.reshape(-1, 2)[minus_dofs]
    exact = u.reshape(-1, 2)[minus_dofs]
    assert np.abs(wv - exact).max() < 1e-11


def test_energy_minimality(setup):
    mesh, spaces = setup
    rng = np.random.default_rng(1)
    u = smooth_displacement(rng, spaces.velocity.positions, 0.5)
    w = harmonic_extension(spaces, u)
    # competitor: keep the same interface/boundary data, interpolated bulk
    competitor = u.copy()
    bv = spaces.vector_dofs(spaces.boundary_dofs)
    competitor[bv] = 0.0
    A = assemble("A", spaces)
    e_w = w @ A @ w
    e_c = competitor @ A @ competitor
    assert e_w <= e_c + 1e-12


def test_advance_mesh_basics(setup):
    mesh, spaces = setup
    x = mesh.x
    assert np.array_equal(advance_mesh(x, np.zeros_like(x), 0.1), x)
    w = np.tile([1.0, 0.0], mesh.n_nodes)
    moved = advance_mesh(x, w, 0.1)
    assert np.allclose(moved.reshape(-1, 2) - x.reshape(-1, 2), [0.1, 0.0])
    with pytest.raises(ValueError):
        advance_mesh(x, w, -1.0)
    with pytest.raises(ValueError):
        advance_mesh(x, np.append(w, [0.0, 0.0]), 0.1)


def test_area_drift_second_order_for_divfree_motion(setup):
    """Nodal advection by a divergence-free field changes the total area
    at O(tau^2)."""
    from alefem.mesh import geometry

    mesh, spaces = setup

    def rot(x, y):
        return (-(y - 1.0), x - 0.5)

    w = interpolate(spaces.velocity, rot, vector=True)
    area0 = geometry(mesh).wdet.sum()
    drifts = []
    for tau in (0.02, 0.01, 0.005):
        moved = move_mesh(mesh, advance_mesh(mesh.x, w, tau))
        area = geometry(moved).wdet.sum()
        drifts.append(abs(area - area0))
    rates = [math.log2(drifts[i] / drifts[i + 1]) for i in range(2)]
    assert all(1.9 < r < 2.1 for r in rates)


def zero_fields(spaces):
    """A zero velocity and a zero pressure on spaces."""
    return (np.zeros(2 * spaces.velocity.n_dofs),
            np.zeros(spaces.pressure.n_dofs))


def test_healthy_mesh_not_remeshed(setup):
    mesh, spaces = setup
    u, p = zero_fields(spaces)
    s2, u2, p2, did = check_and_remesh(spaces, u, p, RECT, 0.1)
    assert not did
    assert s2 is spaces and u2 is u and p2 is p


def test_one_remesh_angle():
    """The run's remesh threshold, the remesh check's and the fit's least
    angle all default to the one constant `mesh.REMESH_ANGLE`."""
    defaults = [inspect.signature(f).parameters[name].default
                for f, name in ((check_and_remesh, "angle_threshold"),
                                (fit_interface_mesh, "min_angle"))]
    defaults.append(SimConfig.__dataclass_fields__["remesh_angle"].default)
    assert all(d is meshmod.REMESH_ANGLE for d in defaults)
    assert meshmod.REMESH_ANGLE == math.pi / 18.0


def shear_below_threshold(mesh):
    """Shear the bulk until the minimum angle drops below pi/18 while
    every element stays valid."""
    coords = mesh.coords
    for amp in (0.1, 0.15, 0.2, 0.25, 0.3):
        for freq in (2, 3, 4, 5):
            d = np.zeros_like(coords)
            d[:, 0] = amp * np.sin(freq * np.pi * coords[:, 1] / 2) \
                * np.sin(np.pi * coords[:, 0])
            d[mesh.boundary_node_ids()] = 0.0
            moved = move_mesh(mesh, (coords + d).ravel())
            q = quality(moved)
            if q.min_jacobian > 0 and q.min_angle <= math.pi / 18:
                return moved
    raise AssertionError("could not build a valid sheared fixture")


def test_a_fitted_mesh_is_measured_once(monkeypatch):
    """fit_interface_mesh measures the mesh it fits; the set-up and a
    remesh read that measure off the mesh instead of computing it again,
    and a remesh reads the moved mesh's measure, already taken."""
    made = []
    monkeypatch.setattr(meshmod, "MeshQuality", lambda **figures: (
        made.append(MeshQuality(**figures)) or made[-1]))
    state = initialize(SimConfig(params=BP1, k=2, h=0.1, tau=0.005,
                                 T=0.005))
    assert len(made) == 1 and quality(state.mesh) is made[0]
    sheared = shear_below_threshold(state.mesh)
    spaces = spaces_with_mesh(state.spaces, sheared)
    made.clear()
    new_spaces, *_, did = check_and_remesh(
        spaces, *zero_fields(spaces), RECT, 0.1)
    assert did and len(made) == 1 and quality(new_spaces.mesh) is made[0]


def quad(x, y):
    return (x * x - y, 2.0 * x * y + 0.5 * y * y)


def lin(x, y):
    return 3.0 * x - y + 0.25


def test_remesh_triggers_and_restores_quality():
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.1, 2)
    spaces = build_taylor_hood(mesh, 2)
    sheared = shear_below_threshold(mesh)
    spaces_sh = spaces_with_mesh(spaces, sheared)
    q = quality(sheared)
    assert q.min_angle <= math.pi / 18

    u = interpolate(spaces_sh.velocity, quad, vector=True)
    p = np.zeros(spaces_sh.pressure.n_dofs)
    s2, u2, _, did = check_and_remesh(spaces_sh, u, p, RECT, 0.1)
    m2 = s2.mesh
    assert did
    assert quality(m2).min_angle > math.pi / 18

    # phase areas are preserved up to the curved-geometry tolerance
    from alefem.mesh import geometry

    g1 = geometry(sheared)
    g2 = geometry(m2)
    a1 = g1.wdet[sheared.phase == MINUS].sum()
    a2 = g2.wdet[m2.phase == MINUS].sum()
    assert abs(a1 - a2) < 5 * 0.1 ** 3

    # quadratic transfer is exact up to the curved-edge interpolation
    # defect of the old field (O(h^3); exactness needs straight elements)
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(0.1, 0.9, 100),
                           rng.uniform(0.1, 1.9, 100)])
    from alefem.fespace import evaluate_many

    got = evaluate_many(s2.velocity, u2, pts, vector=True)
    expect = np.array([quad(x, y) for x, y in pts])
    assert np.abs(got - expect).max() < 1e-3


def test_remesh_releases_the_old_table_before_fitting(monkeypatch):
    """The moved mesh's geometry table is freed before the new mesh and
    its table are built, so the two are never alive at once."""
    from alefem import mesh as meshmod

    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.1, 2)
    spaces = build_taylor_hood(mesh, 2)
    sheared = shear_below_threshold(mesh)
    table = weakref.ref(sheared.tables())
    alive = []
    original = meshmod.fit_interface_mesh

    def fit(*args, **kwargs):
        alive.append(table() is not None)
        return original(*args, **kwargs)

    monkeypatch.setattr(meshmod, "fit_interface_mesh", fit)
    did = check_and_remesh(spaces_with_mesh(spaces, sheared),
                           *zero_fields(spaces), RECT, 0.1)[3]
    assert did and alive == [False]


def test_remesh_builds_one_locator_for_the_old_mesh(monkeypatch):
    """The velocity and the pressure transfer locate on the locator of
    the old mesh, which is built once for both."""
    from alefem import fespace

    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.1, 2)
    spaces = build_taylor_hood(mesh, 2)
    sheared = shear_below_threshold(mesh)
    spaces_sh = spaces_with_mesh(spaces, sheared)
    built = []
    original = fespace.PointLocator.__post_init__

    def counting(self, *args):
        built.append(self)
        return original(self, *args)

    monkeypatch.setattr(fespace.PointLocator, "__post_init__", counting)
    did = check_and_remesh(spaces_sh, *zero_fields(spaces), RECT, 0.1)[3]
    assert did and len(built) == 1
    assert sheared.locator() is built[0]


def test_remesh_error_carries_the_old_curve(monkeypatch):
    """A failed fit raises RemeshError with the old curve, bit for bit as
    the moved mesh's interface edges gather it, and the ring that
    `_redistribute` makes of it; the message gives the fit's reason."""
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.1, 2)
    spaces = build_taylor_hood(mesh, 2)
    sheared = shear_below_threshold(mesh)

    def fail(*args, **kwargs):
        raise MeshGenerationError("no fit")

    monkeypatch.setattr(meshmod, "fit_interface_mesh", fail)
    with pytest.raises(RemeshError) as info:
        check_and_remesh(spaces_with_mesh(spaces, sheared),
                         *zero_fields(spaces), RECT, 0.1)
    err = info.value
    curve = sheared.coords[edge_nodes(sheared, interface_cycle(sheared)[1])]
    assert err.curve.shape == curve.shape
    assert err.curve.tobytes() == curve.tobytes()
    ring = _redistribute(err.curve, 0.1)[0]
    assert ring.tobytes() == err.ring.tobytes()
    assert str(err) == (
        "remeshing failed: no fit; interface "
        f"polyline has {len(ring)} vertices, "
        f"bbox x [{ring[:, 0].min():.4f}, {ring[:, 0].max():.4f}] "
        f"y [{ring[:, 1].min():.4f}, {ring[:, 1].max():.4f}]")


def ring_lengths(mesh):
    verts, _ = interface_cycle(mesh)
    pos = mesh.coords[verts]
    return np.linalg.norm(np.roll(pos, -1, axis=0) - pos, axis=1)


@pytest.fixture(scope="module")
def spread_remesh():
    """A remesh of a 20-gon inscribed in the bubble circle whose sides
    span arcs of 3:1: 5 sides on one half (chords 1.55h at h = 0.1) and
    15 on the other (0.52h).  The mesh keeps straight edges, so every
    element is affine and its P2 space holds global quadratics.  Its
    min angle, about 23 degrees, is below the 25 degree threshold used
    here, which the redistributed ring's mesh beats.
    Returns (polygon, mesh, check_and_remesh's result)."""
    theta = np.concatenate([np.linspace(0.0, np.pi, 6)[:-1],
                            np.linspace(np.pi, 2 * np.pi, 16)[:-1]])
    ring = np.column_stack([CENTER[0] + RADIUS * np.cos(theta),
                            CENTER[1] + RADIUS * np.sin(theta)])
    mesh = fit_interface_mesh(RECT, ring, 0.1, 2)
    spaces = build_taylor_hood(mesh, 2)
    u = interpolate(spaces.velocity, quad, vector=True)
    p = interpolate(spaces.pressure, lin)
    return ring, mesh, check_and_remesh(spaces, u, p, RECT, 0.1,
                                        angle_threshold=math.radians(25))


def test_remesh_evens_out_the_interface_spacing(spread_remesh):
    _, mesh, (s2, _, _, did) = spread_remesh
    m2 = s2.mesh
    assert did
    old = ring_lengths(mesh)
    assert old.max() / old.min() > 2.9
    new = ring_lengths(m2)
    # round(L / h) vertices: the arc between them is within h / 2N of h,
    # and a chord across a corner of the polygon is a little shorter
    assert 0.9 * 0.1 < new.min() and new.max() < 1.1 * 0.1
    a1, a2 = (_bubble(m, geometry(m))[2] for m in (mesh, m2))
    assert abs(a2 - a1) < 1e-3 * a1


def test_remesh_puts_the_interface_nodes_on_the_old_curve(spread_remesh):
    """The new interface vertices and edge nodes lie on the old interface
    curve, here the polygon; only its parametrization changes."""
    ring, _, (s2, *_) = spread_remesh
    pts = s2.mesh.coords[s2.mesh.interface_node_ids()]
    a, ab = ring, np.roll(ring, -1, axis=0) - ring
    t = np.clip(((pts[:, None] - a) * ab).sum(-1) / (ab * ab).sum(-1),
                0.0, 1.0)
    dist = np.linalg.norm(pts[:, None] - (a + t[..., None] * ab), axis=-1)
    assert dist.min(axis=1).max() < 1e-12


def test_transfer_exact_at_the_new_dofs(spread_remesh):
    """On affine old elements the transferred coefficients are a global
    quadratic velocity and a linear pressure at the new DOF positions,
    interface DOFs included, to roundoff."""
    *_, (s2, u2, p2, _) = spread_remesh
    u = interpolate(s2.velocity, quad, vector=True)
    assert np.abs(u2 - u).max() < 1e-13
    p = interpolate(s2.pressure, lin)
    assert np.abs(p2 - p).max() < 1e-13


def test_interface_motion_matches_velocity_bitwise(setup):
    """Interface nodes move exactly Lagrangian: displacement equals
    tau times the interface velocity, bitwise."""
    mesh, spaces = setup
    rng = np.random.default_rng(8)
    u = smooth_displacement(rng, spaces.velocity.positions, 0.3)
    w = harmonic_extension(spaces, u)
    tau = 0.01
    x_ale = advance_mesh(mesh.x, w, tau)
    x_lagrangian = mesh.x + tau * u[:len(mesh.x)]
    iv = spaces.vector_dofs(spaces.interface_dofs)
    assert np.array_equal(x_ale[iv], x_lagrangian[iv])


# ---------------------------------------------------------------------------
# the one factorization of the harmonic operator


def assert_exact(got, expect):
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.flags.c_contiguous
    assert np.array_equal(got, expect, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expect))


def sliced_harmonic_extension(spaces, u):
    """The harmonic extension with the interior block sliced out of the
    mesh Laplacian and factored with the options of `ale.splu`."""
    V = spaces.velocity
    L = scalar_laplacian(V, spaces.maps.scalar)
    fixed = np.zeros(V.n_dofs, dtype=bool)
    fixed[spaces.interface_dofs] = True
    fixed[spaces.boundary_dofs] = True
    free = ~fixed
    w = np.zeros((V.n_dofs, 2))
    w[spaces.interface_dofs] = u.reshape(-1, 2)[spaces.interface_dofs]
    rhs = -(L @ w)[free]
    lu = spilu(L[free][:, free].tocsc(), drop_tol=0.0, fill_factor=2,
               drop_rule="basic", permc_spec="MMD_AT_PLUS_A", relax=1)
    for c in range(2):
        w[free, c] = lu.solve(rhs[:, c])
    return w.ravel()


def test_every_harmonic_operator_is_factored_one_way(monkeypatch):
    """Over four steps and one extension on a renumbered copy: every
    factor, all made on the calling thread, is SuperLU's full LU in MMD
    order with relax=1 (see `ale.splu`) of a block gathered through
    `DofMaps.interior`; no step slices a matrix outside the building of
    a gather; the direct extensions equal a sliced reference bitwise,
    and the steps' own, by CG on the lagged factor, to 1e-12."""
    cfg = SimConfig(params=BP1, k=2, h=0.16, tau=1.0 / 200.0, T=1.0)
    state = initialize(cfg)
    factors = []
    original = ale.spilu

    def recording(A, **kwargs):
        factors.append((threading.current_thread(), A, kwargs))
        return original(A, **kwargs)

    monkeypatch.setattr(ale, "spilu", recording)
    slices, building = [], [0]
    init = Gather.__init__

    def build(self, *args):
        building[0] += 1
        try:
            init(self, *args)
        finally:
            building[0] -= 1

    monkeypatch.setattr(Gather, "__init__", build)
    for cls in (sparse.csr_matrix, sparse.csc_matrix):
        def getitem(self, key, _original=cls.__getitem__):
            if not building[0]:
                slices.append(self.shape)
            return _original(self, key)
        monkeypatch.setattr(cls, "__getitem__", getitem)

    # (spaces, u, direct extension, the step's lagged extension)
    extensions = []
    for _ in range(4):
        state = step(state, cfg)
        extensions.append((state.spaces, state.u,
                           harmonic_extension(state.spaces, state.u),
                           state.w))
    assert state.remesh_count == 0

    spaces = state.spaces
    V = spaces.velocity
    perm = np.random.default_rng(0).permutation(V.n_dofs)
    V_perm = replace(V, dof_of=perm[V.dof_of])
    interface, boundary = (perm[spaces.interface_dofs],
                           perm[spaces.boundary_dofs])
    renumbered = FESpacePair(V_perm, spaces.pressure, interface, boundary,
                             DofMaps(V_perm, spaces.pressure, interface,
                                     boundary))
    u = np.empty_like(state.u)
    u.reshape(-1, 2)[perm] = state.u.reshape(-1, 2)
    got = harmonic_extension(renumbered, u)
    assert slices == []
    monkeypatch.undo()

    # the first step's direct extension, whose factor every later step
    # reuses as the lagged factor of its numbering, and one per direct
    # extension above
    assert [thread for thread, _, _ in factors] \
        == [threading.main_thread()] * 6
    for i, (_, A, kwargs) in enumerate(factors):
        block = (renumbered if i == 5 else spaces).maps.interior
        assert kwargs == {"drop_tol": 0.0, "fill_factor": 2,
                          "drop_rule": "basic",
                          "permc_spec": "MMD_AT_PLUS_A", "relax": 1}
        assert isinstance(A, sparse.csc_matrix)
        assert A.indices is block.indices or A.indices.base is block.indices
    for spaces_n, u_n, direct, lagged in extensions:
        expect = sliced_harmonic_extension(spaces_n, u_n)
        assert_exact(direct, expect)
        assert np.abs(lagged - expect).max() <= 1e-12 * np.abs(expect).max()
    assert_exact(got, sliced_harmonic_extension(renumbered, u))


def lagged_extensions(monkeypatch):
    """(iterations, factorizations) of every extension that a step makes
    on its moved mesh (`stepper.extend`), read off the lagged factor it
    solves on: its count of that solve, and the change in its count of
    factors."""
    counts = []
    original = stepper.extend

    def counting(L, spaces, u, lagged, start=None):
        before = lagged.factorizations
        w = original(L, spaces, u, lagged, start)
        counts.append((lagged.iterations, lagged.factorizations - before))
        return w

    monkeypatch.setattr(stepper, "extend", counting)
    return counts


@pytest.mark.parametrize("cap", [1, ale.MAX_ITERATIONS])
def test_lagged_extension_matches_the_direct_one(cap, monkeypatch):
    """Over 24 steps at h=0.16, every w that a step moves by, extended on
    the lagged factor, equals the sliced direct extension to 1e-12 of
    its size; its interface DOFs are those of u bitwise and its boundary
    DOFs exactly 0.  A cap of 1 makes every extension by CG on a factor
    of an earlier configuration overrun it, so that the next extension
    refactors and solves directly; at the default cap none does."""
    monkeypatch.setattr(ale, "MAX_ITERATIONS", cap)
    counts = lagged_extensions(monkeypatch)
    cfg = SimConfig(params=BP1, k=2, h=0.16, tau=1.0 / 200.0, T=1.0)
    state = initialize(cfg)
    for _ in range(24):
        state = step(state, cfg)
        w, spaces = state.w, state.spaces
        expect = sliced_harmonic_extension(spaces, state.u)
        assert np.abs(w - expect).max() <= 1e-12 * np.abs(expect).max()
        iv = spaces.vector_dofs(spaces.interface_dofs)
        bv = spaces.vector_dofs(spaces.boundary_dofs)
        assert w[iv].tobytes() == state.u[iv].tobytes()
        assert np.array_equal(np.signbit(w[bv]), np.zeros(len(bv), bool))
        assert not w[bv].any()
    assert state.remesh_count == 0
    iterations, made = map(list, zip(*counts))
    # an extension refactors, and then solves directly, exactly when the
    # one before it overran
    assert made == [0] + [int(i > cap) for i in iterations[:-1]]
    assert all(i == 0 for i, m in zip(iterations, made) if m)
    # the run factored for step 1's direct extension, whose factor
    # became the lagged factor of the numbering, and for the extensions
    # of the 24 steps
    assert state.harmonic_factor.factorizations == 1 + sum(made)
    if cap == 1:
        # step 1 extends on the mesh that the zero initial velocity left
        # in place, the one its factor is of; from step 2 on, each CG
        # extension overruns and the next one refactors
        assert iterations[0] == 1
        assert made == [0, 0] + [1, 0] * 11
    else:
        assert sum(made) == 0 and max(iterations) <= cap


def test_lagged_extension_refactors_when_cg_stalls(monkeypatch):
    """An extension that does not converge within `ale._CG_LIMIT`
    iterations on the lagged factor refactors at once and finishes by a
    direct solve on the fresh factor."""
    monkeypatch.setattr(ale, "_CG_LIMIT", 2)
    counts = lagged_extensions(monkeypatch)
    cfg = SimConfig(params=BP1, k=2, h=0.16, tau=1.0 / 200.0, T=1.0)
    state = initialize(cfg)
    for _ in range(6):
        state = step(state, cfg)
        expect = sliced_harmonic_extension(state.spaces, state.u)
        assert np.abs(state.w - expect).max() \
            <= 1e-12 * np.abs(expect).max()
    # the first extends on the factor of its own configuration, the one
    # of the direct extension of step 1; each later one stalls after 2
    # iterations and refactors
    assert [made for _, made in counts] == [0] + [1] * 5
    assert [iterations for iterations, _ in counts[1:]] == [2] * 5
