"""Lagrange shape functions on the reference triangle.

Node ordering follows the Gmsh convention for triangle types 2/9/21:
the three vertices (0,0), (1,0), (0,1) first, then the interior nodes
of the edges v0-v1, v1-v2, v2-v0 (each traversed from first to second
vertex), then interior nodes (degree 3 has one, at the barycenter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def lattice_nodes(degree: int) -> np.ndarray:
    """Reference nodes of the degree-k Lagrange triangle, Gmsh ordering."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    k = degree
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    nodes = [verts[0], verts[1], verts[2]]
    for i0, i1 in ((0, 1), (1, 2), (2, 0)):
        for j in range(1, k):
            nodes.append(verts[i0] + (verts[i1] - verts[i0]) * (j / k))
    # interior lattice (only one point up to degree 3)
    for a in range(1, k):
        for b in range(1, k - a):
            nodes.append(np.array([a / k, b / k]))
    return np.array(nodes)


def edge_local_nodes(degree: int, edge: int) -> list[int]:
    """Local node indices lying on the given edge, ordered along it."""
    k = degree
    first, last = ((0, 1), (1, 2), (2, 0))[edge]
    return [first] + [3 + edge * (k - 1) + j for j in range(k - 1)] + [last]


def _monomial_exponents(degree: int) -> list[tuple[int, int]]:
    return [(a, b) for total in range(degree + 1) for a in range(total, -1, -1)
            for b in (total - a,)]


def _monomial_matrix(exps, pts):
    pts = np.atleast_2d(pts)
    cols = [pts[:, 0] ** a * pts[:, 1] ** b for a, b in exps]
    return np.column_stack(cols)


@dataclass(frozen=True)
class ReferenceElement:
    """Degree-k Lagrange basis on the reference triangle.

    The basis is represented in the monomial basis; coefficients come from
    inverting the Vandermonde matrix at the lattice nodes, which is well
    conditioned for the degrees used here (k <= 3).
    """

    degree: int
    nodes: np.ndarray = field(init=False)
    _coeffs: np.ndarray = field(init=False)   # (n_nodes, n_monomials)
    _exps: tuple = field(init=False)

    def __post_init__(self):
        nodes = lattice_nodes(self.degree)
        exps = tuple(_monomial_exponents(self.degree))
        V = _monomial_matrix(exps, nodes)
        coeffs = np.linalg.inv(V).T
        nodes.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_exps", exps)
        object.__setattr__(self, "_coeffs", coeffs)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def shape_values(self, pts) -> np.ndarray:
        """Basis values at reference points; shape (n_nodes, n_pts)."""
        V = _monomial_matrix(self._exps, pts)
        return self._coeffs @ V.T

    def shape_gradients(self, pts) -> np.ndarray:
        """Basis gradients at reference points; shape (n_nodes, n_pts, 2)."""
        pts = np.atleast_2d(pts)
        n_pts = len(pts)
        grads = np.zeros((self.n_nodes, n_pts, 2))
        for m, (a, b) in enumerate(self._exps):
            x, y = pts[:, 0], pts[:, 1]
            dx = a * x ** (a - 1) * y ** b if a > 0 else np.zeros(n_pts)
            dy = b * x ** a * y ** (b - 1) if b > 0 else np.zeros(n_pts)
            grads[:, :, 0] += np.outer(self._coeffs[:, m], dx)
            grads[:, :, 1] += np.outer(self._coeffs[:, m], dy)
        return grads


@lru_cache(maxsize=None)
def reference_element(degree: int) -> ReferenceElement:
    return ReferenceElement(degree)


@dataclass(frozen=True)
class EdgeElement:
    """Degree-k Lagrange basis on the reference edge [0, 1].

    The nodes 0, 1/k, ..., 1 are in increasing order, which is the order
    of `edge_local_nodes` along an edge, as `mesh.edge_nodes` reads them.
    """

    degree: int
    nodes: np.ndarray = field(init=False)
    _coeffs: np.ndarray = field(init=False)   # (n_nodes, n_monomials)

    def __post_init__(self):
        k = self.degree
        nodes = np.concatenate([[0.0], np.arange(1, k) / k, [1.0]])
        coeffs = np.linalg.inv(np.vander(nodes, increasing=True)).T
        nodes.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_coeffs", coeffs)

    @property
    def n_nodes(self) -> int:
        return self.degree + 1

    def shape_values(self, s) -> np.ndarray:
        """Basis values at edge parameters; shape (n_nodes, n_pts)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        P = np.vander(s, N=self.n_nodes, increasing=True)
        return self._coeffs @ P.T

    def shape_derivatives(self, s) -> np.ndarray:
        """Basis derivatives at edge parameters; shape (n_nodes, n_pts)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        D = np.zeros((len(s), self.n_nodes))
        for m in range(1, self.n_nodes):
            D[:, m] = m * s ** (m - 1)
        return self._coeffs @ D.T


@lru_cache(maxsize=None)
def edge_element(degree: int) -> EdgeElement:
    return EdgeElement(degree)
