"""Benchmark quantities of the rising-bubble runs.

All bubble integrals run over the minus-phase elements with the full
curved-geometry quadrature; the interface length uses Gauss quadrature
along the curved interface edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import PhaseParams, field_values
from .mesh import MINUS, Mesh, edge_nodes, geometry
from .quadrature import edge_rule
from .reference import edge_element


@dataclass(frozen=True)
class BenchmarkRecord:
    t: float
    circularity: float
    center_of_mass: tuple[float, float]
    rise_velocity: float
    kinetic_energy: float
    potential_energy: float
    total_energy: float
    area_minus: float
    interface_length: float
    min_angle: float
    remesh_count: int

    CSV_HEADER = ("t,circularity,com_x,com_y,rise_velocity,"
                  "e_kin,e_pot,e_tot,area_minus,min_angle,remesh_count")

    def csv_row(self) -> str:
        vals = [self.t, self.circularity, self.center_of_mass[0],
                self.center_of_mass[1], self.rise_velocity,
                self.kinetic_energy, self.potential_energy,
                self.total_energy, self.area_minus, self.min_angle]
        return ",".join(f"{v:.17g}" for v in vals) + f",{self.remesh_count}"


def _bubble(mesh: Mesh, geom):
    """(mask, w, area) of the minus phase: its elements, their weights
    geom.wdet[mask] and the sum of those, its area."""
    mask = mesh.phase == MINUS
    w = geom.wdet[mask]
    return mask, w, w.sum()


def _bubble_mean(bubble, f: np.ndarray) -> float:
    """Bubble average of f, an (E, Q) array at the quadrature points."""
    mask, w, area = bubble
    return float((w * f[mask]).sum() / area)


def interface_length(mesh: Mesh) -> float:
    """Length of the (curved) interface by edge quadrature."""
    if len(mesh.interface_edges) == 0:
        return 0.0
    k = mesh.degree
    rule = edge_rule(2 * k + 2)
    dbasis = edge_element(k).shape_derivatives(rule.points[:, 0])  # (k+1, Q)
    pos = mesh.coords[edge_nodes(mesh, mesh.interface_edges)]      # (n, k+1, 2)
    tangent = np.einsum("lq,nli->nqi", dbasis, pos)
    # a stack of (1, Q) @ (Q,) products takes one dot per edge, as a
    # matrix-vector product would not; the edges add up in row order
    per_edge = np.linalg.norm(tangent, axis=2)[:, None] @ rule.weights
    return float(np.cumsum(per_edge)[-1])


def _circularity(area: float, length: float) -> float:
    """Perimeter of the area-equivalent circle over the bubble perimeter."""
    return 2.0 * math.sqrt(math.pi * area) / length


def _energy(mesh: Mesh, geom, uq: np.ndarray, params: PhaseParams):
    """(kinetic, potential, total) energy; uq holds the velocity at the
    quadrature points of geom.  Each is one product of the density-
    weighted quadrature weights with a (point, component) array."""
    w = (geom.wdet * params.rho_of(mesh.phase)[:, None]).ravel()
    kin = 0.5 * float((w @ np.square(uq.reshape(-1, 2))).sum())
    pot = params.g * float((w @ geom.x.reshape(-1, 2))[1])
    return kin, pot, kin + pot


def benchmark_record(t: float, velocity_space, u: np.ndarray,
                     params: PhaseParams, min_angle: float,
                     remesh_count: int) -> BenchmarkRecord:
    """Every observable of a state on the mesh of velocity_space, each
    computed once: the velocity at the quadrature points serves the
    energy and the rise velocity, the bubble's weights its area, centroid
    and rise velocity (the average of the vertical velocity), and its
    area and the interface length the circularity."""
    mesh = velocity_space.mesh
    geom = geometry(mesh)
    uq = field_values(velocity_space, u, geom)
    bubble = _bubble(mesh, geom)
    area = float(bubble[2])
    length = interface_length(mesh)
    kin, pot, tot = _energy(mesh, geom, uq, params)
    return BenchmarkRecord(
        t=t,
        circularity=_circularity(area, length),
        center_of_mass=(_bubble_mean(bubble, geom.x[..., 0]),
                        _bubble_mean(bubble, geom.x[..., 1])),
        rise_velocity=_bubble_mean(bubble, uq[..., 1]),
        kinetic_energy=kin,
        potential_energy=pot,
        total_energy=tot,
        area_minus=area,
        interface_length=length,
        min_angle=min_angle,
        remesh_count=remesh_count,
    )
