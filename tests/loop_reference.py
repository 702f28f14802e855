"""Dict-and-loop mesh and DOF numbering, kept only as a test reference.

The package builds every numbering from one vectorized edge table
(`alefem.mesh.first_appearance`).  These loops are the implementation it
replaced, frozen: a dict filled in (element, local entity) order numbers
its keys by first appearance, and the vectorized build must reproduce
every array bit for bit.  The Delaunay, smoothing, classification and
quality steps are shared with the package, since they were not changed.
"""

import math

import numpy as np

from alefem.assembly import DofMaps
from alefem.fespace import (
    GLOBAL,
    SUBDOMAIN,
    FESpacePair,
    ScalarSpace,
    _phase_of_dofs,
)
from alefem.mesh import (
    MINUS,
    PLUS,
    Mesh,
    MeshGenerationError,
    _classify,
    _dist_to_polyline,
    _ekey,
    _find_crossing_edge,
    _opposite,
    _orient,
    _oriented_simplices,
    _seg_intersect,
    _smooth,
    quality,
)
from alefem.reference import edge_local_nodes


def generate_rect_mesh(rect, h, k):
    x0, y0, x1, y1 = rect
    nx = max(2, round((x1 - x0) / h))
    ny = max(2, round((y1 - y0) / h))
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            if (i + j) % 2 == 0:
                tris += [(a, b, c), (a, c, d)]
            else:
                tris += [(a, b, d), (b, c, d)]
    tris = np.array(tris, dtype=int)
    phase = np.full(len(tris), PLUS, dtype=np.int8)
    return _elevate(pts, tris, phase, {}, rect, k)


def generate_bubble_mesh(rect, center, radius, h, k):
    cx, cy = center
    n_ring = max(8, int(round(2.0 * math.pi * radius / h)))
    theta = 2.0 * math.pi * np.arange(n_ring) / n_ring
    ring = np.column_stack([cx + radius * np.cos(theta), cy + radius * np.sin(theta)])

    def curve(i0, i1, s):
        t0, t1 = theta[i0], theta[i1]
        dt = (t1 - t0 + math.pi) % (2.0 * math.pi) - math.pi
        t = t0 + dt * np.asarray(s, dtype=float)
        return np.column_stack([cx + radius * np.cos(t), cy + radius * np.sin(t)])

    return fit_interface_mesh(rect, ring, h, k, segment_curve=curve)


def fit_interface_mesh(rect, ring, h, k, segment_curve=None,
                       min_angle=math.pi / 18.0):
    ring = np.asarray(ring, dtype=float)
    last_err = None
    for band in (0.55, 0.45, 0.65, 0.35):
        try:
            pts, tris, ring_ids = _fit_points(rect, ring, h, band)
            phase = _classify(pts, tris, ring)
            mesh = _build_fitted(pts, tris, phase, ring_ids, rect, k,
                                 segment_curve)
            q = quality(mesh)
            if q.min_angle > min_angle and q.min_jacobian > 0.0:
                return mesh
            last_err = MeshGenerationError("fitted mesh quality too low")
        except MeshGenerationError as err:
            last_err = err
    raise last_err


def _fit_points(rect, ring, h, band_factor, n_smooth=4):
    x0, y0, x1, y1 = rect
    nx = max(2, round((x1 - x0) / h))
    ny = max(2, round((y1 - y0) / h))
    gx, gy = (x1 - x0) / nx, (y1 - y0) / ny
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    grid = np.column_stack([X.ravel(), Y.ravel()])
    on_bnd = (
        np.isclose(grid[:, 0], x0) | np.isclose(grid[:, 0], x1)
        | np.isclose(grid[:, 1], y0) | np.isclose(grid[:, 1], y1)
    )
    band = band_factor * max(gx, gy)
    d = _dist_to_polyline(grid, ring)
    keep = (d >= band) | on_bnd
    grid = grid[keep]
    on_bnd = on_bnd[keep]

    pts = np.vstack([grid, ring])
    n_grid = len(grid)
    ring_ids = np.arange(n_grid, n_grid + len(ring))
    free = np.zeros(len(pts), dtype=bool)
    free[:n_grid] = ~on_bnd
    segments = [(int(ring_ids[i]), int(ring_ids[(i + 1) % len(ring)]))
                for i in range(len(ring))]

    tris = None
    for it in range(n_smooth + 1):
        tris = _oriented_simplices(pts)
        tris = _recover_edges(pts, tris, segments)
        if it == n_smooth:
            break
        pts = _smooth(pts, tris, free)
    return pts, tris, ring_ids


def _recover_edges(pts, tris, segments):
    tri_list = [tuple(int(v) for v in t) for t in tris]
    edge_map = {}
    for idx, t in enumerate(tri_list):
        for i in range(3):
            edge_map.setdefault(_ekey(t[i], t[(i + 1) % 3]), []).append(idx)

    def replace(idx, t):
        old = tri_list[idx]
        for i in range(3):
            edge_map[_ekey(old[i], old[(i + 1) % 3])].remove(idx)
        tri_list[idx] = t
        for i in range(3):
            edge_map.setdefault(_ekey(t[i], t[(i + 1) % 3]), []).append(idx)

    def present(a, b):
        return bool(edge_map.get(_ekey(a, b)))

    for a, b in segments:
        guard = 0
        while not present(a, b):
            guard += 1
            if guard > 200:
                raise MeshGenerationError("segment not recovered")
            u, v = _find_crossing_edge(pts, edge_map, a, b)
            t1, t2 = edge_map[_ekey(u, v)][:2]
            p = _opposite(tri_list[t1], u, v)
            q = _opposite(tri_list[t2], u, v)
            if not _seg_intersect(pts[p], pts[q], pts[u], pts[v]):
                raise MeshGenerationError("non-flippable configuration")
            replace(t1, _orient(pts, (p, q, u)))
            replace(t2, _orient(pts, (p, q, v)))
    return np.array(tri_list, dtype=int)


def _build_fitted(pts, tris, phase, ring_ids, rect, k, segment_curve):
    n_ring = len(ring_ids)
    ring_pos = {int(ring_ids[i]): i for i in range(n_ring)}
    interface_pairs = {}
    for tri in tris:
        for le in range(3):
            a, b = int(tri[le]), int(tri[(le + 1) % 3])
            ia, ib = ring_pos.get(a), ring_pos.get(b)
            if ia is None or ib is None:
                continue
            if (ia + 1) % n_ring == ib:
                interface_pairs[_ekey(a, b)] = (ia, ib)
            elif (ib + 1) % n_ring == ia:
                interface_pairs[_ekey(a, b)] = (ib, ia)
    return _elevate(pts, tris, phase, interface_pairs, rect, k,
                    segment_curve=segment_curve, ring_ids=ring_ids)


def _elevate(pts, tris, phase, interface_pairs, rect, k,
             segment_curve=None, ring_ids=None):
    ring_id_of = {} if ring_ids is None else {
        i: int(ring_ids[i]) for i in range(len(ring_ids))
    }
    n_loc = (k + 1) * (k + 2) // 2
    nodes = [np.asarray(pts, dtype=float)]
    next_id = len(pts)
    edge_ids = {}
    elements = np.empty((len(tris), n_loc), dtype=int)
    elements[:, :3] = tris
    mid_deviation = {}

    if k >= 2:
        for e, tri in enumerate(tris):
            for le in range(3):
                a, b = int(tri[le]), int(tri[(le + 1) % 3])
                key = _ekey(a, b)
                if key not in edge_ids:
                    if segment_curve is not None and key in interface_pairs:
                        i0, i1 = interface_pairs[key]
                        s = np.arange(1, k) / k
                        mids = np.asarray(segment_curve(i0, i1, s), dtype=float)
                        if ring_id_of[i0] != key[0]:
                            mids = mids[::-1]
                        chord_mid = 0.5 * (pts[key[0]] + pts[key[1]])
                        curve_mid = np.asarray(
                            segment_curve(i0, i1, np.array([0.5])), dtype=float)[0]
                        mid_deviation[key] = curve_mid - chord_mid
                    else:
                        pa, pb = pts[key[0]], pts[key[1]]
                        s = (np.arange(1, k) / k)[:, None]
                        mids = pa[None] * (1 - s) + pb[None] * s
                    ids = np.arange(next_id, next_id + (k - 1))
                    next_id += k - 1
                    nodes.append(mids)
                    edge_ids[key] = ids
                ids = edge_ids[key]
                ordered = ids if a < b else ids[::-1]
                elements[e, 3 + le * (k - 1): 3 + (le + 1) * (k - 1)] = ordered
    if k == 3:
        centers = pts[tris].mean(axis=1)
        ids = np.arange(next_id, next_id + len(tris))
        next_id += len(tris)
        nodes.append(centers)
        elements[:, 9] = ids

    coords = np.vstack(nodes)
    if k == 3 and mid_deviation:
        _shift_interior_nodes(coords, elements, tris, mid_deviation)

    interface_edges, boundary_edges = _find_edge_sets(tris, phase, rect, coords)
    return Mesh(
        x=coords.ravel(),
        elements=elements,
        phase=np.asarray(phase, dtype=np.int8),
        interface_edges=interface_edges,
        boundary_edges=boundary_edges,
        degree=k,
    )


def _shift_interior_nodes(coords, elements, tris, mid_deviation):
    for e, tri in enumerate(tris):
        delta = np.zeros(2)
        moved = False
        for le in range(3):
            key = _ekey(int(tri[le]), int(tri[(le + 1) % 3]))
            dev = mid_deviation.get(key)
            if dev is not None:
                delta = delta + (4.0 / 9.0) * dev
                moved = True
        if moved:
            coords[elements[e, 9]] += delta


def _find_edge_sets(tris, phase, rect, coords):
    x0, y0, x1, y1 = rect
    edge_map = {}
    for e, tri in enumerate(tris):
        for le in range(3):
            a, b = int(tri[le]), int(tri[(le + 1) % 3])
            edge_map.setdefault(_ekey(a, b), []).append((e, le))
    interface = []
    boundary = []
    for key, owners in edge_map.items():
        if len(owners) == 2:
            (e1, le1), (e2, le2) = owners
            if phase[e1] != phase[e2]:
                interface.append((e1, le1) if phase[e1] == MINUS else (e2, le2))
        else:
            e, le = owners[0]
            a, b = key
            pa, pb = coords[a], coords[b]
            on_wall = (
                (np.isclose(pa[0], x0) and np.isclose(pb[0], x0))
                or (np.isclose(pa[0], x1) and np.isclose(pb[0], x1))
                or (np.isclose(pa[1], y0) and np.isclose(pb[1], y0))
                or (np.isclose(pa[1], y1) and np.isclose(pb[1], y1))
            )
            if not on_wall:
                raise MeshGenerationError(f"dangling edge {key}")
            boundary.append((e, le))
    interface = np.array(sorted(interface), dtype=int).reshape(-1, 2)
    boundary = np.array(sorted(boundary), dtype=int).reshape(-1, 2)
    return interface, boundary


def edge_set_node_ids(mesh, edges):
    """Mesh.interface_node_ids / boundary_node_ids for the given rows."""
    if len(edges) == 0:
        return np.empty(0, dtype=int)
    ids = [mesh.elements[e, edge_local_nodes(mesh.degree, le)] for e, le in edges]
    return np.unique(np.concatenate(ids))


def build_scalar_space(mesh, degree, continuity=GLOBAL):
    if degree == mesh.degree and continuity == GLOBAL:
        dof_of = mesh.elements
        n_dofs = mesh.n_nodes
        dof_phase = _phase_of_dofs(mesh, dof_of, n_dofs)
        return ScalarSpace(mesh, degree, continuity, dof_of, n_dofs,
                           dof_phase)

    tri = mesh.elements[:, :3]
    n_loc = (degree + 1) * (degree + 2) // 2
    dof_of = np.empty((mesh.n_elements, n_loc), dtype=int)

    iface_vertices = set()
    iface_edges = set()
    for e, le in mesh.interface_edges:
        a, b = int(tri[e, le]), int(tri[e, (le + 1) % 3])
        iface_vertices.update((a, b))
        iface_edges.add((min(a, b), max(a, b)))
    duplicated = continuity == SUBDOMAIN

    dof_ids = {}

    def get(key):
        if key not in dof_ids:
            dof_ids[key] = len(dof_ids)
        return dof_ids[key]

    for e in range(mesh.n_elements):
        side = int(mesh.phase[e])
        for lv in range(3):
            v = int(tri[e, lv])
            tag = side if (duplicated and v in iface_vertices) else 0
            dof_of[e, lv] = get(("v", v, tag))
        for le in range(3):
            a, b = int(tri[e, le]), int(tri[e, (le + 1) % 3])
            key = (min(a, b), max(a, b))
            tag = side if (duplicated and key in iface_edges) else 0
            ids = [get(("e", *key, tag, j)) for j in range(degree - 1)]
            if a > b:
                ids = ids[::-1]
            dof_of[e, 3 + le * (degree - 1): 3 + (le + 1) * (degree - 1)] = ids
        base = 3 + 3 * (degree - 1)
        for j in range(n_loc - base):
            dof_of[e, base + j] = get(("i", e, j))
    n_dofs = len(dof_ids)

    dof_phase = _phase_of_dofs(mesh, dof_of, n_dofs)
    return ScalarSpace(mesh, degree, continuity, dof_of, n_dofs, dof_phase)


def build_taylor_hood(mesh, k):
    velocity = build_scalar_space(mesh, k, GLOBAL)
    pressure = build_scalar_space(mesh, k - 1, SUBDOMAIN)
    interface_dofs = edge_set_node_ids(mesh, mesh.interface_edges)
    boundary_dofs = edge_set_node_ids(mesh, mesh.boundary_edges)
    return FESpacePair(velocity, pressure, interface_dofs, boundary_dofs,
                       DofMaps(velocity, pressure, interface_dofs,
                               boundary_dofs))
