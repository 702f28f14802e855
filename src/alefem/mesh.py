"""Curved triangulations of a rectangle fitted to a closed interface.

A mesh of degree k stores, per element, the (k+1)(k+2)/2 node indices of
its geometry map (Gmsh node ordering).  Elements are labelled by phase
(+1 outside the interface, -1 inside).  Only interface edges are curved;
the outer rectangle boundary stays exactly polygonal.

The built-in generator lays a structured grid over the rectangle,
removes grid points in a band around the interface polyline, inserts the
interface nodes verbatim, triangulates with Delaunay, recovers the
interface segments by edge flips, and smooths the free points.  Degree-k
geometry is obtained afterwards by inserting edge/interior nodes, with
the interface edge nodes placed on the exact interface curve.

Numbering rule: every entity id (edge node, interior node, DOF of a
space) is given by first appearance over (element, local entity) in
element order, as a dict filled in that order would number its keys.
`first_appearance` computes it from one int64 code per key.  The index
maps of a numbering (`assembly.DofMaps`) depend on the resulting
numbering, so a change to this rule changes every assembled pattern.

Each mesh configuration owns its geometry table, the Jacobian data at
the assembly quadrature points: `Mesh.tables` builds it on first use
and keeps it, so assembly, observables and `quality` share it, until
`Mesh.release_tables` drops it.  `geometry(mesh)` hands it out after
checking that no element is tangled.  A mesh made by `displace` shares
the connectivity of one that was checked, and is not checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.spatial import Delaunay

from .reference import edge_local_nodes, reference_element
from .quadrature import triangle_rule

PLUS = 1
MINUS = -1


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]

class MeshError(Exception):
    pass


class MeshGenerationError(MeshError):
    pass


class TangledElementError(MeshError):
    def __init__(self, element: int, detj: float):
        super().__init__(
            f"element {element} has non-positive Jacobian determinant {detj:.3e}"
        )
        self.element = element
        self.detj = detj


@dataclass(frozen=True)
class MeshQuality:
    min_angle: float      # radians, over straight vertex triangles
    min_jacobian: float   # min detJ / (2*straight area), dimensionless


@dataclass(frozen=True)
class Mesh:
    """Immutable degree-k triangulation with phase labels.

    x                flat nodal vector (2M,), interleaved (x0, y0, x1, y1, ...)
    elements         (E, n_k) node indices per element, Gmsh ordering
    phase            (E,) values +1 / -1
    interface_edges  (I, 2) rows (element, local_edge); element is the
                     minus-side element of the edge
    boundary_edges   (B, 2) rows (element, local_edge)
    degree           geometry degree k
    """

    x: np.ndarray
    elements: np.ndarray
    phase: np.ndarray
    interface_edges: np.ndarray
    boundary_edges: np.ndarray
    degree: int

    def __post_init__(self):
        for name in ("x", "elements", "phase", "interface_edges", "boundary_edges"):
            getattr(self, name).setflags(write=False)
        n_expected = (self.degree + 1) * (self.degree + 2) // 2
        if self.elements.shape[1] != n_expected:
            raise MeshError(
                f"degree-{self.degree} elements need {n_expected} nodes, "
                f"got {self.elements.shape[1]}"
            )
        _check_interface_pairing(self.elements, self.phase,
                                 self.interface_edges)

    def tables(self) -> GeometryTables:
        """The geometry table of this configuration, built on first use
        and kept until `release_tables`."""
        tables = self.__dict__.get("_tables")
        if tables is None:
            tables = GeometryTables(self)
            object.__setattr__(self, "_tables", tables)
        return tables

    def release_tables(self) -> None:
        """Drop the geometry table; the next `tables` builds it again."""
        self.__dict__.pop("_tables", None)

    @property
    def coords(self) -> np.ndarray:
        return self.x.reshape(-1, 2)

    @property
    def n_nodes(self) -> int:
        return len(self.x) // 2

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def interface_node_ids(self) -> np.ndarray:
        """All node ids lying on the interface."""
        return self._node_ids_on(self.interface_edges)

    def boundary_node_ids(self) -> np.ndarray:
        return self._node_ids_on(self.boundary_edges)

    def _node_ids_on(self, edges: np.ndarray) -> np.ndarray:
        if len(edges) == 0:
            return np.empty(0, dtype=int)
        local = np.array([edge_local_nodes(self.degree, le) for le in range(3)])
        return np.unique(self.elements[edges[:, :1], local[edges[:, 1]]])


def first_appearance(keys) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of an integer key table by first appearance.

    keys is (n, m) with non-negative entries.  Each row is encoded as one
    int64 code (mixed radix over the columns).  Returns (ids, first):
    ids[i] is the number of row i's key and first[j] the row where key j
    appears first, so first increases.  This is the numbering a dict
    gives its keys when filled in row order.
    """
    keys = np.asarray(keys, dtype=np.int64)
    radices = [int(col.max(initial=0)) + 1 for col in keys.T]
    if math.prod(radices) >= 2 ** 63:
        raise OverflowError("key table too large for int64 codes")
    codes = np.zeros(len(keys), dtype=np.int64)
    for col, radix in zip(keys.T, radices):
        codes = codes * radix + col
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


def _edge_table(tris):
    """Undirected edges numbered by first appearance over (element,
    local edge).  Returns (edge_of, ends, first): edge_of (E, 3) edge id
    of each local edge, ends (n_edges, 2) its endpoints in increasing
    order, first (n_edges,) its first incidence as element*3 + local
    edge."""
    a, b = tris, tris[:, [1, 2, 0]]
    pairs = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=2).reshape(-1, 2)
    ids, first = first_appearance(pairs)
    return ids.reshape(-1, 3), pairs[first], first


def _check_interface_pairing(elements, phase, interface_edges) -> None:
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


# ---------------------------------------------------------------------------
# geometry map


def map_points(mesh: Mesh, elems, ref: np.ndarray):
    """Evaluate the geometry map at per-element reference points.

    Point p lies in element elems[p] at reference coordinates ref[p].
    Returns (x, J, detJ) with shapes (P, 2), (P, 2, 2), (P,); J[p, i, j]
    is the derivative of physical coordinate i w.r.t. reference
    coordinate j.  No sign check: detJ <= 0 marks a tangled element.
    """
    ref_el = reference_element(mesh.degree)
    xe = mesh.coords[mesh.elements[elems]]            # (P, n_loc, 2)
    vals = ref_el.shape_values(ref)                   # (n_loc, P)
    grads = ref_el.shape_gradients(ref)               # (n_loc, P, 2)
    x = np.einsum("lp,pli->pi", vals, xe)
    J = np.einsum("lpj,pli->pij", grads, xe)
    detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    return x, J, detJ


# Elements per chunk of the contractions below.  Their work arrays then
# stay small beside the arrays they fill: the geometry table is built
# while the saddle factor of the previous step is alive.
_CHUNK = 256


def _element_major(a: np.ndarray, out: np.ndarray) -> None:
    """Copy the element-innermost array a (..., n) into the C-ordered
    array out (n, ...), as one 2-D transpose: numpy copies that far
    faster than the same data through a 3- or 4-D transposed view."""
    out.reshape(len(out), -1)[...] = a.reshape(-1, len(out)).T


class GeometryTables:
    """Jacobian data of every element at the points of triangle_rule(2k+2).

    Built from one mesh configuration, which keeps it (`Mesh.tables`),
    and holding no reference to it, so that a released table is freed
    at once.  A tangled mesh still gets a table (its detJ shows where);
    `tangled` is then (element, min detJ), otherwise None.

    Layout: the contractions over an element's local nodes run
    element-innermost, on node coordinates gathered as (2, n_loc, n) in
    chunks of n elements, and detJ and Jinv are formed elementwise on
    that layout.  It was kept because it measured fastest: at h=0.04,
    k=2, on one CPU of a 2-CPU Xeon VM (best of 20), 7.4-8.0 ms against
    9.5-11.3 ms for einsums over (E, n_loc, 2) node arrays.  The public
    arrays x, detJ, Jinv and wdet stay (E, Q, ...) and C-ordered, the
    layout the element kernels of assembly read, against reference
    tensors (see `assembly`); they are all the per-configuration arrays
    there are.
    """

    def __init__(self, mesh: Mesh):
        self.rule_degree = 2 * mesh.degree + 2
        self.rule = rule = triangle_rule(self.rule_degree)
        ref = reference_element(mesh.degree)
        vals = ref.shape_values(rule.points)            # (n_g, Q)
        grads = ref.shape_gradients(rule.points)        # (n_g, Q, 2)
        E, Q = mesh.n_elements, len(rule.weights)
        self.x = np.empty((E, Q, 2))
        self.detJ = np.empty((E, Q))
        self.Jinv = np.empty((E, Q, 2, 2))
        coords, elements = mesh.coords, mesh.elements
        for at in range(0, E, _CHUNK):
            part = slice(at, at + _CHUNK)
            xs = coords.T[:, elements[part].T]               # (2, n_g, n)
            _element_major(np.einsum("lq,ile->qie", vals, xs), self.x[part])
            J = np.einsum("lqj,ile->qije", grads, xs)       # (Q, 2, 2, n)
            a, b, c, d = J[:, 0, 0], J[:, 0, 1], J[:, 1, 0], J[:, 1, 1]
            det = a * d - b * c
            _element_major(det, self.detJ[part])
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = np.stack([d / det, -b / det, -c / det, a / det], axis=1)
            _element_major(inv, self.Jinv[part])
        self.tangled = None
        if np.any(self.detJ <= 0.0):
            e = int(np.argmin(self.detJ.min(axis=1)))
            self.tangled = (e, float(self.detJ.min()))
        self.wdet = self.detJ * rule.weights            # (E, Q)


def geometry(mesh: Mesh) -> GeometryTables:
    """The geometry table of the mesh (`Mesh.tables`).

    Raises TangledElementError if an element has detJ <= 0 at a
    quadrature point.
    """
    geom = mesh.tables()
    if geom.tangled is not None:
        raise TangledElementError(*geom.tangled)
    return geom


def quality(mesh: Mesh) -> MeshQuality:
    """Minimum vertex angle and scaled Jacobian bound, the two figures a
    step reads; no edge length is computed.

    Never raises on a tangled mesh: min_jacobian <= 0 reports it.
    """
    tri = mesh.coords[mesh.elements[:, :3]]           # (E, 3, 2)
    angles = np.empty((len(tri), 3))
    for i in range(3):
        u = tri[:, (i + 1) % 3] - tri[:, i]
        v = tri[:, (i + 2) % 3] - tri[:, i]
        c = (u * v).sum(axis=1) / np.maximum(
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1), 1e-300
        )
        angles[:, i] = np.arccos(np.clip(c, -1.0, 1.0))
    min_angle = float(angles.min())

    straight_area2 = np.abs(_cross2(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]))
    scaled = mesh.tables().detJ / np.maximum(straight_area2, 1e-300)[:, None]
    return MeshQuality(min_angle=min_angle, min_jacobian=float(scaled.min()))


def displace(mesh: Mesh, d: np.ndarray) -> Mesh:
    """Mesh with nodes x + d; connectivity and labels are shared.  They
    passed the checks of `Mesh` when mesh was made, so the moved mesh is
    made without running them again."""
    d = np.asarray(d, dtype=float)
    if d.shape != mesh.x.shape:
        raise MeshError(f"displacement has shape {d.shape}, expected {mesh.x.shape}")
    x = mesh.x + d
    x.setflags(write=False)
    moved = object.__new__(Mesh)
    moved.__dict__.update({f.name: getattr(mesh, f.name)
                           for f in fields(Mesh)}, x=x)
    return moved


# ---------------------------------------------------------------------------
# generation


def generate_rect_mesh(rect, h: float, k: int) -> Mesh:
    """Structured single-phase triangulation of a rectangle (no interface)."""
    x0, y0, x1, y1 = rect
    if h <= 0 or x1 <= x0 or y1 <= y0:
        raise MeshGenerationError("invalid rectangle or mesh size")
    nx = max(2, round((x1 - x0) / h))
    ny = max(2, round((y1 - y0) / h))
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])

    # cells (i, j) in row-major order, each split along the diagonal
    # that alternates with the parity of i + j
    i, j = (g.ravel() for g in np.meshgrid(np.arange(nx), np.arange(ny),
                                            indexing="ij"))
    a, b = i * (ny + 1) + j, (i + 1) * (ny + 1) + j
    c, d = b + 1, a + 1
    even = ((i + j) % 2 == 0)[:, None]
    first = np.where(even, np.column_stack([a, b, c]), np.column_stack([a, b, d]))
    second = np.where(even, np.column_stack([a, c, d]), np.column_stack([b, c, d]))
    tris = np.stack([first, second], axis=1).reshape(-1, 3)
    phase = np.full(len(tris), PLUS, dtype=np.int8)
    return _elevate(pts, tris, phase, rect, k)


def bubble_problem(rect, center, radius: float, h: float) -> str | None:
    """Why a circle of that center and radius cannot be meshed in rect
    at mesh size h, or None if it can: the radius must be positive and
    the clearance to every wall larger than h."""
    if radius <= 0:
        return f"circle radius must be positive, got {radius}"
    x0, y0, x1, y1 = rect
    cx, cy = center
    clearance = min(cx - radius - x0, x1 - cx - radius,
                    cy - radius - y0, y1 - cy - radius)
    if clearance <= h:
        return (f"circle (center {center}, radius {radius}) keeps a "
                f"clearance of {clearance:.4g} to the walls of {rect}; it "
                f"must exceed h={h}")
    return None


def generate_bubble_mesh(rect, center, radius: float, h: float, k: int) -> Mesh:
    """Fitted mesh of a rectangle with a circular interface.

    Interface nodes (including the curved-edge nodes for k >= 2) lie
    exactly on the circle; interior elements are straight.
    """
    cx, cy = center
    if k not in (1, 2, 3):
        raise MeshGenerationError(f"degree k={k} not supported")
    if h <= 0:
        raise MeshGenerationError("mesh size must be positive")
    problem = bubble_problem(rect, center, radius, h)
    if problem is not None:
        raise MeshGenerationError(problem)
    # keep the ring density proportional to 1/h so nested-mesh studies
    # refine the interface by the same factor as the bulk
    n_ring = max(8, int(round(2.0 * math.pi * radius / h)))
    theta = 2.0 * math.pi * np.arange(n_ring) / n_ring
    ring = np.column_stack([cx + radius * np.cos(theta), cy + radius * np.sin(theta)])

    def curve(i0, i1, s):
        # arc-equidistant parametrization of the ring segment i0 -> i1
        t0, t1 = theta[i0], theta[i1]
        dt = (t1 - t0 + math.pi) % (2.0 * math.pi) - math.pi
        t = t0 + dt * np.asarray(s, dtype=float)
        return np.column_stack([cx + radius * np.cos(t), cy + radius * np.sin(t)])

    return fit_interface_mesh(rect, ring, h, k, segment_curve=curve)


def fit_interface_mesh(rect, ring: np.ndarray, h: float, k: int,
                       segment_curve=None,
                       min_angle: float = math.pi / 18.0) -> Mesh:
    """Fitted mesh of the rectangle around a closed interface polyline.

    ring           (n, 2) ordered vertices of the closed interface; kept
                   verbatim as mesh nodes
    segment_curve  optional callable (i0, i1, s) -> (len(s), 2) giving
                   points of the curved interface at parameters s along
                   the directed ring segment i0 -> i1 (s=0 and s=1 are the
                   segment endpoints); straight edges if omitted
    """
    ring = np.asarray(ring, dtype=float)
    if len(ring) < 3:
        raise MeshGenerationError("interface polyline needs at least 3 points")
    last_err = None
    for band in (0.55, 0.45, 0.65, 0.35):
        try:
            pts, tris, ring_ids = _fit_points(rect, ring, h, band)
            phase = _classify(pts, tris, ring)
            mesh = _elevate(pts, tris, phase, rect, k, ring_ids, segment_curve)
            q = quality(mesh)
            if q.min_angle > min_angle and q.min_jacobian > 0.0:
                return mesh
            last_err = MeshGenerationError(
                f"fitted mesh quality too low: min angle "
                f"{math.degrees(q.min_angle):.2f} deg, scaled Jacobian "
                f"{q.min_jacobian:.3f} (band {band})"
            )
        except MeshGenerationError as err:
            last_err = err
    raise last_err


# Laplacian smoothing passes of the free grid points, each followed by
# a new Delaunay triangulation
_SMOOTHING_PASSES = 4


def _fit_points(rect, ring, h, band_factor):
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
    for it in range(_SMOOTHING_PASSES + 1):
        tris = _oriented_simplices(pts)
        tris = _recover_edges(pts, tris, segments)
        if it == _SMOOTHING_PASSES:
            break
        pts = _smooth(pts, tris, free)
    return pts, tris, ring_ids


def _oriented_simplices(pts):
    tris = Delaunay(pts).simplices.copy()
    a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    flip = _cross2(b - a, c - a) < 0.0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return tris


def _smooth(pts, tris, free):
    from scipy.sparse import coo_matrix

    n = len(pts)
    e = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    A = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
    A.data[:] = 1.0
    deg = np.asarray(A.sum(axis=1)).ravel()
    new = A @ pts / np.maximum(deg, 1.0)[:, None]
    out = pts.copy()
    out[free] = new[free]
    return out


def _dist_to_polyline(pts, ring):
    a = ring
    b = np.roll(ring, -1, axis=0)
    ab = b - a                                        # (S, 2)
    ap = pts[:, None, :] - a[None, :, :]              # (N, S, 2)
    denom = np.maximum((ab * ab).sum(axis=1), 1e-300)
    t = np.clip((ap * ab[None]).sum(axis=2) / denom[None], 0.0, 1.0)
    proj = a[None] + t[..., None] * ab[None]
    return np.sqrt(((pts[:, None, :] - proj) ** 2).sum(axis=2)).min(axis=1)


def _point_in_polygon(pts, ring):
    """Crossing-number test, vectorized over points."""
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    xa, ya = ring[:, 0], ring[:, 1]
    xb, yb = np.roll(xa, -1), np.roll(ya, -1)
    for i in range(len(ring)):
        crosses = (ya[i] > y) != (yb[i] > y)
        if not crosses.any():
            continue
        xc = xa[i] + (y - ya[i]) / (yb[i] - ya[i] + 1e-300) * (xb[i] - xa[i])
        inside ^= crosses & (x < xc)
    return inside


def _classify(pts, tris, ring):
    centroids = pts[tris].mean(axis=1)
    inside = _point_in_polygon(centroids, ring)
    return np.where(inside, MINUS, PLUS).astype(np.int8)


# ---------------------------------------------------------------------------
# constrained-edge recovery by flipping


def _ekey(a, b):
    return (a, b) if a < b else (b, a)


def _recover_edges(pts, tris, segments):
    # Delaunay usually contains every segment already; then no flip is due
    pairs = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]],
                       np.asarray(segments)])
    ids, first = first_appearance(np.sort(pairs, axis=1))
    if (first[ids[3 * len(tris):]] < 3 * len(tris)).all():
        return np.array(tris, dtype=int)

    tri_list = [tuple(int(v) for v in t) for t in tris]
    edge_map: dict[tuple[int, int], list[int]] = {}
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
                raise MeshGenerationError(
                    f"failed to recover interface segment {a}-{b} by edge flips"
                )
            u, v = _find_crossing_edge(pts, edge_map, a, b)
            t1, t2 = edge_map[_ekey(u, v)][:2]
            p = _opposite(tri_list[t1], u, v)
            q = _opposite(tri_list[t2], u, v)
            if not _seg_intersect(pts[p], pts[q], pts[u], pts[v]):
                raise MeshGenerationError(
                    f"non-flippable configuration while recovering {a}-{b}"
                )
            replace(t1, _orient(pts, (p, q, u)))
            replace(t2, _orient(pts, (p, q, v)))
    return np.array(tri_list, dtype=int)


def _opposite(tri, u, v):
    return next(n for n in tri if n != u and n != v)


def _orient(pts, tri):
    a, b, c = pts[tri[0]], pts[tri[1]], pts[tri[2]]
    if _cross2(b - a, c - a) < 0.0:
        return (tri[0], tri[2], tri[1])
    return tuple(tri)


def _seg_intersect(p1, p2, p3, p4):
    """Proper intersection of open segments p1-p2 and p3-p4."""
    d1 = _cross2(p4 - p3, p1 - p3)
    d2 = _cross2(p4 - p3, p2 - p3)
    d3 = _cross2(p2 - p1, p3 - p1)
    d4 = _cross2(p2 - p1, p4 - p1)
    return bool((d1 * d2 < 0.0) and (d3 * d4 < 0.0))


def _find_crossing_edge(pts, edge_map, a, b):
    pa, pb = pts[a], pts[b]
    for key, owners in edge_map.items():
        if not owners:
            continue
        u, v = key
        if u in (a, b) or v in (a, b):
            continue
        if _seg_intersect(pa, pb, pts[u], pts[v]):
            return key
    raise MeshGenerationError(f"no edge crosses missing segment {a}-{b}")


# ---------------------------------------------------------------------------
# degree elevation


def _elevate(pts, tris, phase, rect, k, ring_ids=None, segment_curve=None):
    """Insert degree-k edge/interior nodes and assemble the Mesh.

    With a segment_curve, the edges joining consecutive ring_ids are
    interface edges whose nodes lie on segment_curve; all other edges
    are straight.  Edge j's k-1 nodes get ids len(pts) + (k-1)*j + (0..k-2)
    along its increasing-id direction; cubic interior nodes follow, one
    per element.
    """
    pts = np.asarray(pts, dtype=float)
    n_loc = (k + 1) * (k + 2) // 2
    edge_of, ends, first = _edge_table(tris)
    elements = np.empty((len(tris), n_loc), dtype=int)
    elements[:, :3] = tris
    nodes = [pts]
    curved = np.zeros(len(ends), dtype=bool)
    # deviation of the curve midpoint from the chord midpoint; drives
    # the interior-node correction of adjacent cubics
    deviation = np.zeros((len(ends), 2))

    if k >= 2:
        s = np.arange(1, k) / k
        mids = (pts[ends[:, 0], None] * (1 - s[:, None])
                + pts[ends[:, 1], None] * s[:, None])   # (n_edges, k-1, 2)
        if segment_curve is not None:
            for edge, i0, i1 in zip(*_ring_segments(ends, ring_ids, len(pts))):
                arc = np.asarray(segment_curve(i0, i1, s), dtype=float)
                # arc runs from ring vertex i0 to i1; store it along ends
                mids[edge] = arc if ring_ids[i0] == ends[edge, 0] else arc[::-1]
                chord_mid = 0.5 * (pts[ends[edge, 0]] + pts[ends[edge, 1]])
                curve_mid = np.asarray(
                    segment_curve(i0, i1, np.array([0.5])), dtype=float)[0]
                deviation[edge] = curve_mid - chord_mid
                curved[edge] = True
        nodes.append(mids.reshape(-1, 2))
        forward = tris < tris[:, [1, 2, 0]]
        j = np.arange(k - 1)
        along = np.where(forward[..., None], j, k - 2 - j)  # (E, 3, k-1)
        ids = len(pts) + (k - 1) * edge_of[..., None] + along
        elements[:, 3:3 + 3 * (k - 1)] = ids.reshape(len(tris), -1)
    if k == 3:
        nodes.append(pts[tris].mean(axis=1))
        elements[:, 9] = len(pts) + 2 * len(ends) + np.arange(len(tris))

    coords = np.vstack(nodes)
    if k == 3 and curved.any():
        _shift_interior_nodes(coords, elements, edge_of, curved, deviation)

    interface_edges, boundary_edges = _find_edge_sets(
        edge_of, ends, first, phase, rect, coords)
    return Mesh(
        x=coords.ravel(),
        elements=elements,
        phase=np.asarray(phase, dtype=np.int8),
        interface_edges=interface_edges,
        boundary_edges=boundary_edges,
        degree=k,
    )


def _ring_segments(ends, ring_ids, n_pts):
    """The edges joining consecutive ring vertices, in edge order, as
    (edge ids, i0, i1) with i0 -> i1 the directed ring segment."""
    n = len(ring_ids)
    pos = np.full(n_pts, -1)
    pos[ring_ids] = np.arange(n)
    ia, ib = pos[ends[:, 0]], pos[ends[:, 1]]
    on_ring = (ia >= 0) & (ib >= 0)
    forward = on_ring & ((ia + 1) % n == ib)
    backward = on_ring & ((ib + 1) % n == ia)
    edges = np.flatnonzero(forward | backward)
    i0 = np.where(forward, ia, ib)[edges]
    i1 = np.where(forward, ib, ia)[edges]
    return edges, i0.tolist(), i1.tolist()


def _shift_interior_nodes(coords, elements, edge_of, curved, deviation):
    """Move cubic interior nodes with the curved edges.

    The curved map decomposes into the straight map, the quadratic edge
    bump carrying the O(h^2) midpoint deviation, and cubic residuals that
    are O(h^3).  Optimal-order geometry requires the interior node to
    follow the quadratic part, whose bump function 4*lam_a*lam_b equals
    4/9 at the barycenter; the cubic edge basis functions vanish there.
    """
    delta = np.zeros((len(elements), 2))
    for le in range(3):
        on = curved[edge_of[:, le]]
        delta[on] = delta[on] + (4.0 / 9.0) * deviation[edge_of[on, le]]
    moved = curved[edge_of].any(axis=1)
    coords[elements[moved, 9]] += delta[moved]


def _find_edge_sets(edge_of, ends, first, phase, rect, coords):
    """Interface edges, each at its minus-side incidence, and boundary
    edges, each at its only incidence; sorted (element, local_edge) rows.
    """
    x0, y0, x1, y1 = rect
    ids = edge_of.ravel()
    count = np.bincount(ids, minlength=len(ends))
    half_phase = np.repeat(np.asarray(phase), 3)
    phase_sum = np.bincount(ids, weights=half_phase, minlength=len(ends))
    interface = np.flatnonzero((count[ids] == 2) & (phase_sum[ids] == 0)
                               & (half_phase == MINUS))

    dangling = np.flatnonzero(count != 2)
    pa, pb = coords[ends[dangling, 0]], coords[ends[dangling, 1]]
    on_wall = (
        (np.isclose(pa[:, 0], x0) & np.isclose(pb[:, 0], x0))
        | (np.isclose(pa[:, 0], x1) & np.isclose(pb[:, 0], x1))
        | (np.isclose(pa[:, 1], y0) & np.isclose(pb[:, 1], y0))
        | (np.isclose(pa[:, 1], y1) & np.isclose(pb[:, 1], y1))
    )
    if not on_wall.all():
        key = tuple(int(v) for v in ends[dangling[np.argmin(on_wall)]])
        raise MeshGenerationError(
            f"dangling edge {key} is not on the rectangle boundary"
        )
    boundary = first[dangling]          # increasing, as first is
    return (np.stack(np.divmod(interface, 3), axis=1),
            np.stack(np.divmod(boundary, 3), axis=1))


# ---------------------------------------------------------------------------
# interface traversal


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
