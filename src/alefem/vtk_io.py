"""Legacy ASCII VTK output of a flow state.

Curved triangles are linearized by splitting each degree-k element into
k^2 straight sub-triangles through its existing nodes, since the legacy
unstructured-grid format has no curved cells.  Velocity is point data;
pressure (possibly two-valued at the interface) and phase are cell data.
"""

from __future__ import annotations

import numpy as np

from .assembly import scalar_field_values
from .mesh import Mesh, geometry

_SUBTRIANGLES = {
    1: [(0, 1, 2)],
    2: [(0, 3, 5), (3, 1, 4), (5, 4, 2), (3, 4, 5)],
    3: [(0, 3, 8), (3, 4, 9), (4, 1, 5), (3, 9, 8), (4, 5, 9),
        (8, 9, 7), (9, 5, 6), (9, 6, 7), (7, 6, 2)],
}


def write_vtk(path, mesh: Mesh, velocity: np.ndarray | None = None,
              pressure=None) -> None:
    """Write mesh (+ optional velocity/pressure) as legacy VTK.

    pressure is (pressure_space, coefficients); its cell value is the
    element mean, which is single-valued even across the interface.
    """
    coords = mesh.coords
    sub = _SUBTRIANGLES[mesh.degree]
    cells = []
    for tri in mesh.elements:
        for loc in sub:
            cells.append((tri[loc[0]], tri[loc[1]], tri[loc[2]]))
    lines = ["# vtk DataFile Version 3.0", "two-phase flow snapshot",
             "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_nodes} double"]
    for x, y in coords:
        lines.append(f"{x:.17g} {y:.17g} 0")
    lines.append(f"CELLS {len(cells)} {4 * len(cells)}")
    for a, b, c in cells:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {len(cells)}")
    lines.extend(["5"] * len(cells))

    n_sub = len(sub)
    lines.append(f"CELL_DATA {len(cells)}")
    lines.append("SCALARS phase int 1")
    lines.append("LOOKUP_TABLE default")
    for ph in mesh.phase:
        lines.extend([str(int(ph))] * n_sub)
    if pressure is not None:
        space, coeffs = pressure
        geom = geometry(mesh)
        pq = scalar_field_values(space, coeffs, geom)
        means = (pq * geom.wdet).sum(axis=1) / geom.wdet.sum(axis=1)
        lines.append("SCALARS pressure double 1")
        lines.append("LOOKUP_TABLE default")
        for v in means:
            lines.extend([f"{v:.17g}"] * n_sub)
    if velocity is not None:
        uv = velocity[:2 * mesh.n_nodes].reshape(-1, 2)
        lines.append(f"POINT_DATA {mesh.n_nodes}")
        lines.append("VECTORS velocity double")
        for vx, vy in uv:
            lines.append(f"{vx:.17g} {vy:.17g} 0")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
