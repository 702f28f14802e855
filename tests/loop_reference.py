"""Dict-and-loop mesh and DOF numbering and point location, kept only
as a test reference.

The package builds every numbering from one vectorized edge table
(`alefem.mesh.first_appearance`).  These loops are the implementation it
replaced, frozen: a dict filled in (element, local entity) order numbers
its keys by first appearance, and the vectorized build must reproduce
every array bit for bit.  The points and triangles of a fit (the grid
and its band, Delaunay, the ring check and smoothing, `_fit_points`)
and their classification are shared with the package, since they were
not changed.

`PointLocator` is the locator that `alefem.mesh.PointLocator` replaced,
frozen: its bins are a dict of element lists filled in element order,
and it collects each point's candidates in a loop over the points.  The
array bins must give the same candidates in the same order, and so the
same elements and reference coordinates bit for bit.

`interface_cycle`, `check_interface_pairing` and `interface_length` are
the interface-edge code that `alefem.mesh.interface_cycle`, its
`_check_interface_pairing` and `alefem.observables.interface_length`
replaced, frozen: a walk over two dicts followed by a signed-area test
that reverses a clockwise cycle, a pairing check on sorted int64 edge
keys, and a loop over the interface edges.  The walk over the edge
table's rows must give the same cycle, the same start vertex included,
and the gather the same length bit for bit.

`solve_saddle` is the saddle solve that `alefem.linalg.solve_saddle`
replaced, frozen on a given factor: GMRES by modified Gram-Schmidt and
a least-squares solve at every iteration, each iterate formed and
checked.  The gated GMRES must spend as many applications of the
factor, and reach the same result to the refinement target.
"""

import math
from dataclasses import dataclass

import numpy as np

from alefem.assembly import DofMaps
from alefem.linalg import SolverError
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
    MeshError,
    MeshGenerationError,
    PointLocationError,
    _classify,
    _cross2,
    _fit_points,
    map_points,
)
from alefem.quadrature import edge_rule
from alefem.reference import edge_element, edge_local_nodes


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


def fit_interface_mesh(rect, ring, h, k, segment_curve=None):
    ring = np.asarray(ring, dtype=float)
    pts, tris, ring_ids = _fit_points(rect, ring, h)
    phase = _classify(pts, tris, ring)
    return _build_fitted(pts, tris, phase, ring_ids, rect, k, segment_curve)


def _ekey(a, b):
    return (a, b) if a < b else (b, a)


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


def check_interface_pairing(elements, phase, interface_edges) -> None:
    """Every interface edge must separate a plus and a minus element and be
    stored with its minus-side incidence."""
    if len(interface_edges) == 0:
        return
    tri = elements[:, :3]
    a = tri.ravel().astype(np.int64)
    b = tri[:, [1, 2, 0]].ravel().astype(np.int64)
    m = int(tri.max()) + 1
    keys = np.minimum(a, b) * m + np.maximum(a, b)
    owner = np.repeat(np.arange(len(tri)), 3)
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    owner_sorted = owner[order]

    e = interface_edges[:, 0]
    le = interface_edges[:, 1]
    sa = tri[e, le].astype(np.int64)
    sb = tri[e, (le + 1) % 3].astype(np.int64)
    skeys = np.minimum(sa, sb) * m + np.maximum(sa, sb)
    lo = np.searchsorted(keys_sorted, skeys, side="left")
    hi = np.searchsorted(keys_sorted, skeys, side="right")
    if np.any(hi - lo != 2):
        raise MeshError("an interface edge is not shared by exactly 2 elements")
    p1 = phase[owner_sorted[lo]]
    p2 = phase[owner_sorted[hi - 1]]
    if np.any(p1 == p2):
        raise MeshError("an interface edge does not separate the two phases")
    if np.any(phase[e] != MINUS):
        raise MeshError("interface edges must be stored with minus-side incidence")


def interface_cycle(mesh: Mesh):
    """Order the interface into one closed vertex cycle.

    Returns (vertex_ids, edges): vertex_ids is the ordered cycle of
    interface vertex node ids, counterclockwise around the minus phase,
    and edges[i] is the (element, local_edge) of the segment from
    vertex_ids[i] to vertex_ids[i+1 mod n].
    """
    if len(mesh.interface_edges) == 0:
        raise MeshError("mesh has no interface")
    by_end: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    seg_lookup: dict[tuple[int, int], tuple[int, int]] = {}
    for e, le in mesh.interface_edges:
        tri = mesh.elements[e, :3]
        a, b = int(tri[le]), int(tri[(le + 1) % 3])
        seg_lookup[(a, b)] = (int(e), int(le))
        seg_lookup[(b, a)] = (int(e), int(le))
        by_end.setdefault(a, []).append((b, (int(e), int(le))))
        by_end.setdefault(b, []).append((a, (int(e), int(le))))
    start = min(by_end)
    cycle = [start]
    prev = None
    cur = start
    while True:
        nxts = [n for n, _ in by_end[cur] if n != prev]
        if not nxts:
            raise MeshError("interface is not a closed cycle")
        nxt = nxts[0]
        if nxt == start:
            break
        cycle.append(nxt)
        prev, cur = cur, nxt
    if len(cycle) != len(mesh.interface_edges):
        raise MeshError("interface has more than one component")
    verts = np.array(cycle, dtype=int)
    pos = mesh.coords[verts]
    area2 = _cross2(pos, np.roll(pos, -1, axis=0)).sum()
    if area2 < 0.0:
        verts = verts[::-1]
    edges = [seg_lookup[(int(verts[i]), int(verts[(i + 1) % len(verts)]))]
             for i in range(len(verts))]
    return verts, edges


def interface_length(mesh: Mesh) -> float:
    """Length of the (curved) interface by edge quadrature."""
    if len(mesh.interface_edges) == 0:
        return 0.0
    k = mesh.degree
    rule = edge_rule(2 * k + 2)
    dbasis = edge_element(k).shape_derivatives(rule.points[:, 0])  # (k+1, Q)
    total = 0.0
    for e, le in mesh.interface_edges:
        ids = mesh.elements[e, edge_local_nodes(k, le)]
        pos = mesh.coords[ids]                       # nodes at sorted params
        tangent = np.einsum("lq,li->qi", dbasis, pos)
        total += float(rule.weights @ np.linalg.norm(tangent, axis=1))
    return total


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


# A point whose best barycentric coordinate is below -_CONTAINMENT_TOL
# lies outside the mesh.  The Newton inversion of a geometry map stops
# at a residual of _NEWTON_TOL or after _NEWTON_MAX_ITER iterations.
_CONTAINMENT_TOL = 1e-10
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 30


@dataclass
class PointLocator:
    """Bin-accelerated element lookup with curved-element Newton inversion."""

    mesh: Mesh

    def __post_init__(self):
        coords = self.mesh.coords
        el_pts = coords[self.mesh.elements]            # (E, n_loc, 2)
        lo = el_pts.min(axis=1)
        hi = el_pts.max(axis=1)
        pad = 0.125 * (hi - lo).max(axis=1, keepdims=True)
        self._lo = lo - pad
        self._hi = hi + pad
        dom_lo = coords.min(axis=0)
        dom_hi = coords.max(axis=0)
        diam = np.linalg.norm(hi - lo, axis=1)
        bin_size = max(float(np.median(diam)), 1e-12)
        self._origin = dom_lo
        self._nbins = np.maximum(
            np.ceil((dom_hi - dom_lo) / bin_size).astype(int), 1)
        self._bin_size = (dom_hi - dom_lo) / self._nbins
        self._bins: dict[tuple[int, int], np.ndarray] = {}
        cells_lo = self._cell_of(self._lo)
        cells_hi = self._cell_of(self._hi)
        members: dict[tuple[int, int], list[int]] = {}
        for e in range(len(el_pts)):
            for i in range(cells_lo[e, 0], cells_hi[e, 0] + 1):
                for j in range(cells_lo[e, 1], cells_hi[e, 1] + 1):
                    members.setdefault((i, j), []).append(e)
        self._bins = {k: np.array(v, dtype=int) for k, v in members.items()}

    def _cell_of(self, pts):
        c = ((pts - self._origin) / np.maximum(self._bin_size, 1e-300)).astype(int)
        return np.clip(c, 0, self._nbins - 1)

    def locate(self, pts, phase=None):
        """Locate points; returns (element ids, reference coordinates).

        phase restricts the search to elements of that phase (scalar or
        per-point array); if no matching element contains a point, the
        best matching-phase element is used and the reference
        coordinates extrapolate slightly outside the triangle.  Without
        a phase, points outside the mesh raise PointLocationError.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = len(pts)
        if phase is None:
            phase_arr = np.zeros(n, dtype=int)
        else:
            phase_arr = np.broadcast_to(np.asarray(phase, dtype=int), (n,))

        pair_pt: list[int] = []
        pair_el: list[int] = []
        cells = self._cell_of(pts)
        for i in range(n):
            cands = self._bins.get((cells[i, 0], cells[i, 1]))
            if cands is None:
                cands = np.empty(0, dtype=int)
            inbox = cands[
                (pts[i, 0] >= self._lo[cands, 0]) & (pts[i, 0] <= self._hi[cands, 0])
                & (pts[i, 1] >= self._lo[cands, 1]) & (pts[i, 1] <= self._hi[cands, 1])
            ]
            if len(inbox) == 0:
                inbox = cands
            pair_pt.extend([i] * len(inbox))
            pair_el.extend(inbox.tolist())
        pair_pt = np.asarray(pair_pt, dtype=int)
        pair_el = np.asarray(pair_el, dtype=int)
        if len(pair_pt) == 0 and n > 0:
            raise PointLocationError("points outside the mesh bounding box")

        ref, converged = self._invert(pts[pair_pt], pair_el)
        lam = np.column_stack([1.0 - ref.sum(axis=1), ref[:, 0], ref[:, 1]])
        score = np.where(converged, lam.min(axis=1), -np.inf)
        el_phase = self.mesh.phase[pair_el]
        want = phase_arr[pair_pt]
        phase_ok = (want == 0) | (el_phase == want)

        best_el = np.full(n, -1, dtype=int)
        best_ref = np.zeros((n, 2))
        best_score = np.full(n, -np.inf)
        ok = np.flatnonzero(phase_ok)
        if len(ok):
            order = np.lexsort((score[ok], pair_pt[ok]))
            sel = ok[order]
            pts_sorted = pair_pt[sel]
            last = np.searchsorted(pts_sorted, np.arange(n), side="right") - 1
            has = (last >= 0) & (pts_sorted[np.clip(last, 0, None)] == np.arange(n))
            rows = sel[last[has]]
            best_el[has] = pair_el[rows]
            best_ref[has] = ref[rows]
            best_score[has] = score[rows]

        missing = best_el < 0
        if missing.any():
            raise PointLocationError(
                f"{int(missing.sum())} points have no candidate element "
                f"(first: {pts[missing][0]})")
        if phase is None and (best_score < -_CONTAINMENT_TOL).any():
            worst = int(np.argmin(best_score))
            raise PointLocationError(
                f"point {pts[worst]} lies outside the mesh "
                f"(containment defect {-best_score[worst]:.2e})")
        return best_el, best_ref

    def _invert(self, pts, elems):
        """Per-pair Newton inversion of the geometry maps, vectorized.

        Returns (ref, converged).  Pairs that wander far outside the
        reference triangle are frozen and flagged as non-converged; they
        only occur for candidate elements that do not contain the point.
        """
        mesh = self.mesh
        # affine initial guess from the vertex triangle
        tri = mesh.coords[mesh.elements[elems, :3]]     # (P, 3, 2)
        a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
        M = np.stack([b - a, c - a], axis=2)            # columns are edges
        det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
        rhs = pts - a
        ref = np.empty_like(rhs)
        ref[:, 0] = (M[:, 1, 1] * rhs[:, 0] - M[:, 0, 1] * rhs[:, 1]) / det
        ref[:, 1] = (-M[:, 1, 0] * rhs[:, 0] + M[:, 0, 0] * rhs[:, 1]) / det
        converged = np.ones(len(pts), dtype=bool)
        if mesh.degree == 1:
            return ref, converged
        active = np.ones(len(pts), dtype=bool)
        for _ in range(_NEWTON_MAX_ITER):
            x, J, detJ = map_points(mesh, elems, ref)
            r = x - pts
            resid = np.abs(r).max(axis=1)
            active &= resid >= _NEWTON_TOL
            wandered = np.abs(ref).max(axis=1) > 10.0
            active &= ~wandered
            if not active.any():
                break
            detJ = np.where(np.abs(detJ) < 1e-300, 1e-300, detJ)
            step = np.empty_like(r)
            step[:, 0] = (J[:, 1, 1] * r[:, 0] - J[:, 0, 1] * r[:, 1]) / detJ
            step[:, 1] = (-J[:, 1, 0] * r[:, 0] + J[:, 0, 0] * r[:, 1]) / detJ
            ref[active] -= step[active]
        final_resid = np.abs(r).max(axis=1) if len(pts) else np.empty(0)
        converged = final_resid < np.maximum(
            _NEWTON_TOL, 1e-9 * np.abs(pts).max(initial=1.0))
        return ref, converged


# ---------------------------------------------------------------------------
# the saddle solve


def _gmres(matvec, precond, r, accept, max_iter):
    n = len(r)
    V = np.zeros((max_iter + 1, n))
    Z = np.empty((max_iter, n))
    H = np.zeros((max_iter + 1, max_iter))
    g = np.zeros(max_iter + 1)
    g[0] = np.linalg.norm(r)
    V[0] = r / g[0]
    for j in range(max_iter):
        Z[j] = precond(V[j])
        w = matvec(Z[j])
        for i in range(j + 1):                  # modified Gram-Schmidt
            H[i, j] = V[i] @ w
            w -= H[i, j] * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        if H[j + 1, j] > 0.0:
            V[j + 1] = w / H[j + 1, j]
        y = np.linalg.lstsq(H[:j + 2, :j + 1], g[:j + 2], rcond=None)[0]
        d = y @ Z[:j + 1]
        if H[j + 1, j] == 0.0 or accept(d):
            return d, j + 1
    return d, max_iter


def solve_saddle(system, factor):
    """(u, p, multiplier, iterations) of system, refined on factor, a
    `SaddleFactor`."""
    n_u = len(system.rhs_u)
    n = system.A0.shape[0]
    m = system.mean_vector
    c = np.concatenate([np.zeros(n_u), m])
    A0 = system.A0
    abs_A0, abs_c = abs(A0), np.abs(c)
    rhs = np.concatenate([system.rhs_u, system.rhs_p])
    b = np.append(rhs, 0.0)
    abs_b = np.abs(b)
    norm_A = (abs_A0 @ np.ones(n)).max(initial=0.0) + np.abs(m).sum()

    def matvec(z):
        return np.append(A0 @ z[:n] + z[n] * c, c @ z[:n])

    def bound(x):
        return max(norm_A * np.abs(x).max(initial=0.0),
                   np.abs(rhs).max(initial=0.0), 1e-30)

    def row_scale(z):
        az = np.abs(z)
        s = np.append(abs_A0 @ az[:n] + az[n] * abs_c, abs_c @ az[:n])
        return np.maximum(s + abs_b, 1e-30)

    def check(z):
        r = b - matvec(z)
        res = np.abs(r)
        if not res.max() <= 1e-12 * bound(z[:n]):
            return False, r, None
        s = row_scale(z)
        return bool(np.all(res <= 1e-12 * s)), r, s

    z = factor.solve(b)
    iterations = 1
    checked = check(z)
    for _ in range(3):
        on_target, r, s = checked
        if on_target:
            break
        if s is None:
            s = row_scale(z)
        D = s.max() / s
        tried = []

        def accept(d):
            zd = z + d
            tried[:] = [d, zd, check(zd)]
            return tried[2][0]

        dz, its = _gmres(lambda v: D * matvec(v),
                         lambda v: factor.solve(v / D), D * r,
                         accept, 20)
        iterations += its
        if tried and tried[0] is dz:
            z, checked = tried[1], tried[2]
        else:
            z = z + dz
            checked = check(z)
    if not checked[0]:
        raise SolverError("refinement missed the target")
    x, lam = z[:n], z[n]
    res = rhs - (A0 @ x + lam * c)
    if np.abs(res).max(initial=0.0) > 1e-9 * bound(x):
        raise SolverError("saddle residual exceeds the bound")
    return x[:n_u], x[n_u:], float(lam), iterations
