"""Curved triangulations of a rectangle fitted to a closed interface.

A mesh of degree k stores, per element, the (k+1)(k+2)/2 node indices of
its geometry map (Gmsh node ordering).  Elements are labelled by phase
(+1 outside the interface, -1 inside).  Only interface edges are curved;
the outer rectangle boundary stays exactly polygonal.

The built-in generator lays a structured grid over the rectangle,
removes grid points in a band around the interface polyline, inserts the
interface nodes verbatim, and triangulates with Delaunay, smoothing the
free points between triangulations.  Every interface segment must be an
edge of each triangulation as it comes: none is recovered, and a fit
whose segment is missing raises.  Degree-k geometry is obtained
afterwards by inserting edge/interior nodes, with the interface edge
nodes placed on the exact interface curve.

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
checking that no element is tangled.  Its point locator is kept the
same way (`Mesh.locator`), so all point location on it bins once, and
so are its `quality` and its edge table (`Mesh.edge_table`, handed on
by `_elevate`).  A mesh made by `displace` shares the connectivity of
one that was checked, and is not checked again; it inherits no table,
locator or quality.

Orientation: every element lists its vertices counterclockwise and
each `interface_edges` row is the minus-side incidence of its edge, so
a row's edge, from local vertex le to le + 1, runs counterclockwise
around the minus phase; `interface_cycle` and `edge_nodes` follow it.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, fields

import numpy as np
from scipy.spatial import Delaunay

from .reference import edge_local_nodes, reference_element
from .quadrature import triangle_rule

PLUS = 1
MINUS = -1

# A run remeshes at a minimum angle not above this, and a fit must beat it
REMESH_ANGLE = math.pi / 18.0


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
        _check_interface_pairing(self)

    def edge_table(self):
        """The `_edge_table` of the elements, built on first use and kept."""
        if "_edges" not in self.__dict__:
            object.__setattr__(self, "_edges",
                               _edge_table(self.elements[:, :3]))
        return self._edges

    def tables(self) -> GeometryTables:
        """The geometry table of this configuration, built on first use
        and kept until `release_tables`."""
        if "_tables" not in self.__dict__:
            object.__setattr__(self, "_tables", GeometryTables(self))
        return self._tables

    def release_tables(self) -> None:
        """Drop the geometry table; the next `tables` builds it again."""
        self.__dict__.pop("_tables", None)

    def locator(self) -> PointLocator:
        """The point locator of this configuration, built on first use
        and kept."""
        if "_locator" not in self.__dict__:
            object.__setattr__(self, "_locator", PointLocator(self))
        return self._locator

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
        return np.unique(edge_nodes(self, self.interface_edges))

    def boundary_node_ids(self) -> np.ndarray:
        return np.unique(edge_nodes(self, self.boundary_edges))


def edge_nodes(mesh: Mesh, rows: np.ndarray) -> np.ndarray:
    """(n, k+1) node ids along each (element, local edge) row, in the
    element's own direction: from local vertex le to le + 1 mod 3."""
    local = np.array([edge_local_nodes(mesh.degree, le) for le in range(3)])
    return mesh.elements[rows[:, :1], local[rows[:, 1]]]


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


def _check_interface_pairing(mesh: Mesh) -> None:
    """Every interface edge must separate a plus and a minus element and be
    stored with its minus-side incidence."""
    if len(mesh.interface_edges) == 0:
        return
    edge_of, phase = mesh.edge_table()[0], mesh.phase
    count = np.bincount(edge_of.ravel())
    phase_sum = np.bincount(edge_of.ravel(), weights=np.repeat(phase, 3))
    e, le = mesh.interface_edges.T
    ids = edge_of[e, le]
    if np.any(count[ids] != 2):
        raise MeshError("an interface edge is not shared by exactly 2 elements")
    if np.any(phase_sum[ids] != 0):
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
    return _map_nodes(mesh.coords[mesh.elements[elems]], mesh.degree, ref)


def _map_nodes(xe: np.ndarray, degree: int, ref: np.ndarray):
    """`map_points` on the gathered node coordinates xe (P, n_loc, 2)
    of the degree-`degree` elements."""
    ref_el = reference_element(degree)
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


class PointLocationError(Exception):
    pass


# A point whose best barycentric coordinate is below -_CONTAINMENT_TOL
# lies outside the mesh.  The Newton inversion of a geometry map stops
# at a residual of _NEWTON_TOL or after _NEWTON_MAX_ITER iterations.
_CONTAINMENT_TOL = 1e-10
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 30


def _runs(count: np.ndarray):
    """(owner, offset): item i of runs of the given lengths is at place
    offset[i] of run owner[i]."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) - (np.cumsum(count) - count)[owner]


@dataclass(eq=False)
class PointLocator:
    """Bin-accelerated element lookup with curved-element Newton inversion.

    Kept by the mesh it is built from (`Mesh.locator`), whose arrays it
    holds, but not the mesh, so the two form no reference cycle.  Each
    element is a member of every bin its padded box meets; the members
    of bin c are members[start[c]:start[c + 1]], in element order.
    """

    mesh: InitVar[Mesh]

    def __post_init__(self, mesh):
        coords = mesh.coords
        self._coords, self._elements = coords, mesh.elements
        self._phase, self._degree = mesh.phase, mesh.degree
        el_pts = coords[mesh.elements]                  # (E, n_loc, 2)
        lo = el_pts.min(axis=1)
        hi = el_pts.max(axis=1)
        pad = 0.125 * (hi - lo).max(axis=1, keepdims=True)
        self._lo = lo - pad
        self._hi = hi + pad
        self._origin = coords.min(axis=0)
        extent = coords.max(axis=0) - self._origin
        diam = np.linalg.norm(hi - lo, axis=1)
        bin_size = max(float(np.median(diam)), 1e-12)
        self._nbins = np.maximum(np.ceil(extent / bin_size).astype(int), 1)
        self._bin_size = extent / self._nbins
        first = self._cell_of(self._lo)
        span = self._cell_of(self._hi) - first + 1      # bins per axis
        el, at = _runs(span[:, 0] * span[:, 1])
        cell = self._bin_id(first[el] + np.column_stack(
            [at // span[el, 1], at % span[el, 1]]))
        self._members = el[np.argsort(cell, kind="stable")]
        self._start = np.concatenate([[0], np.cumsum(
            np.bincount(cell, minlength=int(self._nbins.prod())))])

    def _cell_of(self, pts):
        c = ((pts - self._origin) / np.maximum(self._bin_size, 1e-300)).astype(int)
        return np.clip(c, 0, self._nbins - 1)

    def _bin_id(self, cells):
        return cells[:, 0] * self._nbins[1] + cells[:, 1]

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
        want = np.broadcast_to(np.asarray(0 if phase is None else phase,
                                          dtype=int), (n,))
        pair_pt, pair_el = self._candidates(pts, want)
        ref, converged = self._invert(pts[pair_pt], pair_el)
        lam = np.column_stack([1.0 - ref.sum(axis=1), ref[:, 0], ref[:, 1]])
        score = np.where(converged, lam.min(axis=1), -np.inf)
        want = want[pair_pt]
        phase_ok = (want == 0) | (self._phase[pair_el] == want)

        best_el = np.full(n, -1, dtype=int)
        best_ref = np.zeros((n, 2))
        ok = np.flatnonzero(phase_ok)
        # the last of a point's pairs in score order wins, a later
        # candidate winning a tie
        sel = ok[np.lexsort((score[ok], pair_pt[ok]))]
        rows = sel[np.diff(pair_pt[sel], append=n) != 0]
        has = pair_pt[rows]
        best_el[has] = pair_el[rows]
        best_ref[has] = ref[rows]

        missing = best_el < 0
        if missing.any():
            raise PointLocationError(
                f"{int(missing.sum())} points have no candidate element "
                f"(first: {pts[missing][0]})")
        if phase is None and (score[rows] < -_CONTAINMENT_TOL).any():
            worst = np.argmin(score[rows])
            raise PointLocationError(
                f"point {pts[has[worst]]} lies outside the mesh "
                f"(containment defect {-score[rows][worst]:.2e})")
        return best_el, best_ref

    def _candidates(self, pts, want):
        """The (point, element) pairs that `locate` inverts, by point: the
        members of a point's bin whose box holds it, or, when none does,
        every member of its bin, in element order.  A point of phase
        want (0 for any) that matches none of them looks over the rings
        of bins around its own and gets, after these, the elements of
        its phase in the first ring that holds any."""
        pair_pt, pair_el = self._members_near(pts, np.arange(len(pts)), 0)
        inbox = np.ones(len(pair_pt), dtype=bool)
        for axis in range(2):
            x = pts[pair_pt, axis]
            inbox &= ((x >= self._lo[pair_el, axis])
                      & (x <= self._hi[pair_el, axis]))
        keep = inbox | (np.bincount(pair_pt[inbox], minlength=len(pts))
                        == 0)[pair_pt]
        pair_pt, pair_el = pair_pt[keep], pair_el[keep]
        lacking = want != 0
        lacking[pair_pt[self._phase[pair_el] == want[pair_pt]]] = False
        lacking, n_el = np.flatnonzero(lacking), len(self._phase)
        for r in range(int(self._nbins.max())):
            if not len(lacking):
                break
            pt, el = self._members_near(pts, lacking, r)
            found = np.unique((pt * n_el + el)[self._phase[el] == want[pt]])
            pair_pt = np.append(pair_pt, found // n_el)
            pair_el = np.append(pair_el, found % n_el)
            lacking = np.setdiff1d(lacking, found // n_el)
        return pair_pt, pair_el

    def _members_near(self, pts, which, r):
        """(point, element) pairs of the points which and the members of
        the bins at most r bins from each one's own, by point."""
        off = np.arange(-r, r + 1)
        cells = self._cell_of(pts[which])[:, None] + np.stack(
            np.meshgrid(off, off, indexing="ij"), axis=-1).reshape(-1, 2)
        inside = ((cells >= 0) & (cells < self._nbins)).all(axis=2)
        cell = self._bin_id(cells[inside])
        first = self._start[cell]
        run, at = _runs(self._start[cell + 1] - first)
        return (np.repeat(which, inside.sum(axis=1))[run],
                self._members[at + first[run]])

    def _invert(self, pts, elems):
        """Per-pair Newton inversion of the geometry maps, vectorized.

        Returns (ref, converged).  Pairs that wander far outside the
        reference triangle are frozen and flagged as non-converged; they
        only occur for candidate elements that do not contain the point.
        """
        xe = self._coords[self._elements[elems]]       # (P, n_loc, 2)
        # affine initial guess from the vertex triangle
        a, b, c = xe[:, 0], xe[:, 1], xe[:, 2]
        M = np.stack([b - a, c - a], axis=2)            # columns are edges
        det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
        rhs = pts - a
        ref = np.empty_like(rhs)
        ref[:, 0] = (M[:, 1, 1] * rhs[:, 0] - M[:, 0, 1] * rhs[:, 1]) / det
        ref[:, 1] = (-M[:, 1, 0] * rhs[:, 0] + M[:, 0, 0] * rhs[:, 1]) / det
        active = np.ones(len(pts), dtype=bool)
        for _ in range(_NEWTON_MAX_ITER):
            x, J, detJ = _map_nodes(xe, self._degree, ref)
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


def quality(mesh: Mesh) -> MeshQuality:
    """Minimum vertex angle and scaled Jacobian bound, the two figures a
    step reads; no edge length is computed.  Computed on first use and
    kept on the mesh, as its geometry table and locator are, so a fitted
    mesh is measured once; a mesh made by `displace` inherits none.

    Never raises on a tangled mesh: min_jacobian <= 0 reports it.
    """
    if "_quality" in mesh.__dict__:
        return mesh._quality
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
    object.__setattr__(mesh, "_quality", MeshQuality(
        min_angle=min_angle, min_jacobian=float(scaled.min())))
    return mesh._quality


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

    def curve(i, s):
        # arc-equidistant parametrization of the ring segment i -> i + 1
        t0, t1 = theta[i], theta[(i + 1) % n_ring]
        dt = (t1 - t0 + math.pi) % (2.0 * math.pi) - math.pi
        t = t0 + dt * np.asarray(s, dtype=float)
        return np.stack([cx + radius * np.cos(t), cy + radius * np.sin(t)],
                        axis=-1)

    return fit_interface_mesh(rect, ring, h, k, segment_curve=curve)


def fit_interface_mesh(rect, ring: np.ndarray, h: float, k: int,
                       segment_curve=None,
                       min_angle: float = REMESH_ANGLE) -> Mesh:
    """Fitted mesh of the rectangle around a closed interface polyline.

    ring           (n, 2) ordered vertices of the closed interface; kept
                   verbatim as mesh nodes
    segment_curve  optional callable (i, s) -> (..., 2) giving points of
                   the curved interface on ring segment i, from vertex i
                   to vertex i + 1 mod n, at parameters s (s=0 and s=1 are
                   the segment's ends); i and s broadcast against each
                   other.  Straight edges if omitted

    Raises MeshGenerationError when a ring segment is not an edge of one
    of the Delaunay triangulations, or when the mesh's min angle is not
    above min_angle or its scaled Jacobian not above 0; the message
    names each criterion that failed.
    """
    ring = np.asarray(ring, dtype=float)
    if len(ring) < 3:
        raise MeshGenerationError("interface polyline needs at least 3 points")
    pts, tris, ring_ids = _fit_points(rect, ring, h)
    phase = _classify(pts, tris, ring)
    mesh = _elevate(pts, tris, phase, rect, k, ring_ids, segment_curve)
    q = quality(mesh)
    failed = []
    if not q.min_angle > min_angle:
        failed.append(f"min angle {math.degrees(q.min_angle):.2f} deg is "
                      f"not above {math.degrees(min_angle):.2f} deg")
    if not q.min_jacobian > 0.0:
        failed.append(f"scaled Jacobian {q.min_jacobian:.3f} is not above 0")
    if failed:
        raise MeshGenerationError("; ".join(failed))
    return mesh


# Grid points nearer the interface polyline than this many grid spacings
# are removed, so that the ring's nodes replace them
_BAND = 0.55
# Laplacian smoothing passes of the free grid points, each followed by
# a new Delaunay triangulation
_SMOOTHING_PASSES = 4


def _fit_points(rect, ring, h):
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
    d = _dist_to_polyline(grid, ring)
    keep = (d >= _BAND * max(gx, gy)) | on_bnd
    grid = grid[keep]
    on_bnd = on_bnd[keep]

    pts = np.vstack([grid, ring])
    n_grid = len(grid)
    ring_ids = np.arange(n_grid, n_grid + len(ring))
    free = np.zeros(len(pts), dtype=bool)
    free[:n_grid] = ~on_bnd

    for it in range(_SMOOTHING_PASSES + 1):
        tris = _oriented_simplices(pts)
        _check_ring_edges(tris, ring_ids, len(pts))
        if it == _SMOOTHING_PASSES:
            break
        pts = _smooth(pts, tris, free)
    return pts, tris, ring_ids


def _check_ring_edges(tris, ring_ids, n_pts) -> None:
    """Raise MeshGenerationError naming the first ring segment that is
    not an edge of the triangles tris."""
    local_edges = np.stack([tris, tris[:, [1, 2, 0]]], axis=2).reshape(-1, 2)
    found = np.zeros(len(ring_ids), dtype=bool)
    found[_ring_segments(local_edges, ring_ids, n_pts)[1]] = True
    if not found.all():
        i = int(np.argmin(found))
        a, b = ring_ids[i], ring_ids[(i + 1) % len(ring_ids)]
        raise MeshGenerationError(
            f"ring segment {i} (nodes {a}-{b}) is not an edge of the "
            f"Delaunay triangulation")


def _oriented_simplices(pts):
    tris = Delaunay(pts).simplices.astype(int)     # Qhull's are int32
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
# degree elevation


def _elevate(pts, tris, phase, rect, k, ring_ids=None, segment_curve=None):
    """Insert degree-k edge/interior nodes and assemble the Mesh.

    With a segment_curve (see `fit_interface_mesh`), the edges joining
    consecutive ring_ids are interface edges whose nodes lie on it, got
    by one call for all their edge nodes and one for their midpoints; all
    other edges are straight.  Edge j's k-1 nodes get ids len(pts) +
    (k-1)*j + (0..k-2) along its increasing-id direction; cubic interior
    nodes follow, one per element.  The mesh keeps the edge table.
    """
    pts = np.asarray(pts, dtype=float)
    n_loc = (k + 1) * (k + 2) // 2
    edge_of, ends, first = table = _edge_table(tris)
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
            edges, seg, aligned = _ring_segments(ends, ring_ids, len(pts))
            # arc runs from ring vertex seg to seg + 1; store it along ends
            arc = np.asarray(segment_curve(seg[:, None], s), dtype=float)
            mids[edges] = np.where(aligned[:, None, None], arc, arc[:, ::-1])
            chord_mid = 0.5 * (pts[ends[edges, 0]] + pts[ends[edges, 1]])
            deviation[edges] = (np.asarray(segment_curve(seg, 0.5),
                                           dtype=float) - chord_mid)
            curved[edges] = True
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
    mesh = object.__new__(Mesh)         # as `displace` does, to add the table
    mesh.__dict__.update(x=coords.ravel(), elements=elements,
                         phase=np.asarray(phase, dtype=np.int8),
                         interface_edges=interface_edges,
                         boundary_edges=boundary_edges, degree=k, _edges=table)
    mesh.__post_init__()
    return mesh


def _ring_segments(ends, ring_ids, n_pts):
    """The edges joining consecutive ring vertices, in edge order, as
    arrays (edges, segment, aligned): edge edges[j] joins ring vertices
    segment[j] and segment[j] + 1 mod n, and runs that way from ends[:, 0]
    to ends[:, 1] where aligned[j]."""
    n = len(ring_ids)
    pos = np.full(n_pts, -1)
    pos[ring_ids] = np.arange(n)
    ia, ib = pos[ends[:, 0]], pos[ends[:, 1]]
    on_ring = (ia >= 0) & (ib >= 0)
    forward = on_ring & ((ia + 1) % n == ib)
    edges = np.flatnonzero(forward | (on_ring & ((ib + 1) % n == ia)))
    return edges, np.where(forward, ia, ib)[edges], forward[edges]


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
    and edges[i] is the (element, local_edge) row of the segment from
    vertex_ids[i] to vertex_ids[i+1 mod n].  The walk follows the rows'
    own direction (see the module doc) from the lowest vertex, or from
    its successor if the first row that touches it enters it.
    """
    rows = mesh.interface_edges
    if len(rows) == 0:
        raise MeshError("mesh has no interface")
    a, b = edge_nodes(mesh, rows)[:, [0, -1]].T
    n_out = np.bincount(a, minlength=mesh.n_nodes)
    bad = (n_out != np.bincount(b, minlength=mesh.n_nodes)) | (n_out > 1)
    if bad.any():
        raise MeshError(f"interface is not one simple closed curve at "
                        f"vertex {np.argmax(bad)}")
    succ, leave = np.full((2, mesh.n_nodes), -1)
    succ[a], leave[a] = b, np.arange(len(rows))
    low = int(a.min())
    # `_redistribute` starts the new ring here, so the start fixes a remesh
    start = low if leave[low] < np.argmax(b == low) else int(succ[low])
    cycle = [start]
    while len(cycle) < len(rows) and succ[cycle[-1]] != start:
        cycle.append(int(succ[cycle[-1]]))
    if len(cycle) != len(rows):
        raise MeshError("interface has more than one component")
    verts = np.array(cycle)
    if _cross2(mesh.coords[verts], mesh.coords[np.roll(verts, -1)]).sum() < 0:
        raise MeshError("interface runs clockwise: a minus element is inverted")
    return verts, rows[leave[verts]]
