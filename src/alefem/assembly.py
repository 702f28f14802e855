"""Assembly of the domain-dependent matrices, load vectors and norms.

All matrices act on interleaved vector coefficients (entries 2i, 2i+1
are the x/y components of scalar DOF i) except the divergence matrix,
whose rows live on the pressure space.  Phase weights are per-element
constants; the mesh is fitted, so no integrand ever straddles the
interface.  Every integral runs over the quadrature table of
`mesh.geometry`, which is built once per mesh configuration; a tangled
mesh raises TangledElementError.

Available kinds for `assemble`:
    M      vector mass             v^T M u   = sum_K  int u.v
    M_rho  density-weighted mass   v^T Mr u  = sum_K rho_K int u.v
    A      vector Laplace form     v^T A u   = sum_K  int grad u : grad v
    A_mu   viscous form            v^T Am u  = sum_K 2 mu_K int D(u):D(v)
    C      divergence form         q^T C v   = sum_K  int (div v) q
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .fespace import FESpacePair, ScalarSpace
from .mesh import MINUS, GeometryTables, Mesh, geometry

MATRIX_KINDS = ("M", "M_rho", "A", "A_mu", "C")


@dataclass(frozen=True)
class PhaseParams:
    """Densities, viscosities and gravity for the two phases."""

    rho_plus: float
    rho_minus: float
    mu_plus: float
    mu_minus: float
    g: float

    def __post_init__(self):
        for name in ("rho_plus", "rho_minus", "mu_plus", "mu_minus"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    def rho_of(self, phase: np.ndarray) -> np.ndarray:
        return np.where(phase == MINUS, self.rho_minus, self.rho_plus)

    def mu_of(self, phase: np.ndarray) -> np.ndarray:
        return np.where(phase == MINUS, self.mu_minus, self.mu_plus)


def _scatter(rows, cols, vals, shape):
    A = sparse.coo_matrix(
        (vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape
    )
    return A.tocsr()


def _scalar_local_to_csr(local, dofs, n_dofs):
    n_loc = dofs.shape[1]
    rows = np.repeat(dofs[:, :, None], n_loc, axis=2)
    cols = np.repeat(dofs[:, None, :], n_loc, axis=1)
    return _scatter(rows, cols, local, (n_dofs, n_dofs))


def _vector_expand(scalar_csr):
    """Kronecker with the 2x2 identity, matching interleaved layout."""
    return sparse.kron(scalar_csr, sparse.identity(2, format="csr"), format="csr")


def scalar_mass(mesh: Mesh, space: ScalarSpace, weights=None) -> sparse.csr_matrix:
    geom = geometry(mesh)
    vals = space.basis_values(geom.rule.points)         # (n_loc, Q)
    w = geom.wdet if weights is None else geom.wdet * weights[:, None]
    local = (vals[None] * w[:, None, :]) @ vals.T       # (E, n_loc, n_loc)
    return _scalar_local_to_csr(local, space.dof_of, space.n_dofs)


def scalar_laplacian(mesh: Mesh, space: ScalarSpace, weights=None) -> sparse.csr_matrix:
    geom = geometry(mesh)
    gphys = geom.physical_gradients(space)              # (E, Q, n_loc, 2)
    w = geom.wdet if weights is None else geom.wdet * weights[:, None]
    E, Q, n_loc, _ = gphys.shape
    G = gphys.transpose(0, 2, 1, 3).reshape(E, n_loc, 2 * Q)
    Gw = (gphys * w[:, :, None, None]).transpose(0, 2, 1, 3).reshape(
        E, n_loc, 2 * Q)
    local = Gw @ G.transpose(0, 2, 1)
    return _scalar_local_to_csr(local, space.dof_of, space.n_dofs)


def assemble(kind: str, mesh: Mesh, spaces: FESpacePair,
             params: PhaseParams | None = None) -> sparse.csr_matrix:
    """Assemble one of the domain-dependent matrices (see module doc)."""
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    if spaces.mesh is not mesh:
        raise ValueError("spaces were built on a different mesh")
    if kind in ("M_rho", "A_mu") and params is None:
        raise ValueError(f"kind {kind} needs phase parameters")
    geom = geometry(mesh)
    V = spaces.velocity

    if kind in ("M", "M_rho"):
        w = None if kind == "M" else params.rho_of(mesh.phase)
        return _vector_expand(scalar_mass(mesh, V, weights=w))

    if kind == "A":
        return _vector_expand(scalar_laplacian(mesh, V))

    if kind == "A_mu":
        mu = params.mu_of(mesh.phase)
        gphys = geom.physical_gradients(V)
        w = geom.wdet * mu[:, None]
        E, Q, n_loc, _ = gphys.shape
        # P[(i,a),(j,b)] = sum_K mu_K int d_a phi_i d_b phi_j
        G = gphys.reshape(E, Q, 2 * n_loc)
        P = (G * w[:, :, None]).transpose(0, 2, 1) @ G  # (E, 2n, 2n)
        P = P.reshape(E, n_loc, 2, n_loc, 2)
        trace = P[:, :, 0, :, 0] + P[:, :, 1, :, 1]
        local = np.swapaxes(P, 2, 4).copy()             # entry [i,a,j,b] = P[i,b,j,a]
        local[:, :, 0, :, 0] += trace
        local[:, :, 1, :, 1] += trace
        dofs = V.dof_of
        vrows = (2 * dofs[:, :, None] + np.arange(2)[None, None, :])
        rows = np.broadcast_to(vrows[:, :, :, None, None], local.shape)
        cols = np.broadcast_to(vrows[:, None, None, :, :], local.shape)
        return _scatter(rows, cols, local, (2 * V.n_dofs, 2 * V.n_dofs))

    # kind == "C"
    P = spaces.pressure
    pvals = P.basis_values(geom.rule.points)            # (n_p, Q)
    gphys = geom.physical_gradients(V)                  # (E, Q, n_v, 2)
    E, Q, n_v, _ = gphys.shape
    G = gphys.reshape(E, Q, 2 * n_v)
    local = ((pvals[None] * geom.wdet[:, None, :]) @ G).reshape(
        E, P.n_local, n_v, 2)
    prow = np.broadcast_to(P.dof_of[:, :, None, None], local.shape)
    vcol = 2 * V.dof_of[:, None, :, None] + np.arange(2)[None, None, None, :]
    vcol = np.broadcast_to(vcol, local.shape)
    return _scatter(prow, vcol, local, (P.n_dofs, 2 * V.n_dofs))


def assemble_convection(mesh: Mesh, spaces: FESpacePair, params: PhaseParams,
                        transport: np.ndarray) -> sparse.csr_matrix:
    """Convection matrix for a frozen transport field.

    transport holds interleaved velocity-space coefficients of the field
    a = u - w; the result satisfies
    v^T B chi = sum_K rho_K int (a . grad chi) . v.
    """
    geom = geometry(mesh)
    V = spaces.velocity
    vals = V.basis_values(geom.rule.points)             # (n_loc, Q)
    gphys = geom.physical_gradients(V)                  # (E, Q, n_loc, 2)
    a_coeff = transport.reshape(-1, 2)[V.dof_of]        # (E, n_loc, 2)
    a_q = np.einsum("lq,eli->eqi", vals, a_coeff)       # (E, Q, 2)
    rho = params.rho_of(mesh.phase)
    w = geom.wdet * rho[:, None]
    # scalar form: int phi_i (a . grad phi_j); identical for both components
    adg = np.einsum("eqja,eqa->eqj", gphys, a_q)        # (E, Q, n_loc)
    local = (vals[None] * w[:, None, :]) @ adg
    return _vector_expand(_scalar_local_to_csr(local, V.dof_of, V.n_dofs))


def assemble_load(mesh: Mesh, spaces: FESpacePair, params: PhaseParams,
                  weighted_by_rho: bool = True) -> np.ndarray:
    """Pairing of the gravity interpolant (0, -g) with the test functions.

    With weighted_by_rho the per-element density multiplies the pairing,
    which is the buoyancy form used by the benchmark; without it the
    force enters the momentum equation unweighted.
    """
    geom = geometry(mesh)
    V = spaces.velocity
    vals = V.basis_values(geom.rule.points)
    w = geom.wdet
    if weighted_by_rho:
        w = w * params.rho_of(mesh.phase)[:, None]
    cell = np.einsum("iq,eq->ei", vals, w) * (-params.g)
    out = np.zeros(2 * V.n_dofs)
    np.add.at(out, 2 * V.dof_of + 1, cell)
    return out


def pressure_mean_vector(mesh: Mesh, spaces: FESpacePair) -> np.ndarray:
    """Vector m with m^T p = integral of the pressure FE function."""
    geom = geometry(mesh)
    P = spaces.pressure
    vals = P.basis_values(geom.rule.points)
    cell = np.einsum("iq,eq->ei", vals, geom.wdet)
    out = np.zeros(P.n_dofs)
    np.add.at(out, P.dof_of, cell)
    return out


def quadratic_norm(v: np.ndarray, kind: str, mesh: Mesh,
                   space: ScalarSpace) -> float:
    """Quadratic form v^T K v for K in {M, A, K}; equals the squared
    L2 / H1-semi / H1 norm of the FE function with coefficients v."""
    if kind not in ("M", "A", "K"):
        raise ValueError(f"unknown norm kind {kind!r}")
    geom = geometry(mesh)
    if len(v) == 2 * space.n_dofs:
        cf = v.reshape(-1, 2)
    elif len(v) == space.n_dofs:
        cf = v.reshape(-1, 1)
    else:
        raise ValueError(f"coefficient vector has length {len(v)}, expected "
                         f"{space.n_dofs} or {2 * space.n_dofs}")
    out = 0.0
    if kind in ("M", "K"):
        vals = space.basis_values(geom.rule.points)
        uq = np.einsum("lq,elc->eqc", vals, cf[space.dof_of])
        out += float(np.einsum("eqc,eqc,eq->", uq, uq, geom.wdet))
    if kind in ("A", "K"):
        gphys = geom.physical_gradients(space)
        gq = np.einsum("eqla,elc->eqca", gphys, cf[space.dof_of])
        out += float(np.einsum("eqca,eqca,eq->", gq, gq, geom.wdet))
    return out


# ---------------------------------------------------------------------------
# field evaluation at quadrature points (shared with the verification module)


def field_values(space: ScalarSpace, coeffs: np.ndarray,
                 geom: GeometryTables) -> np.ndarray:
    """Vector field values at quadrature points; (E, Q, 2)."""
    vals = space.basis_values(geom.rule.points)
    cf = coeffs.reshape(-1, 2)[space.dof_of]
    return np.einsum("lq,eli->eqi", vals, cf)


def field_gradients(space: ScalarSpace, coeffs: np.ndarray,
                    geom: GeometryTables) -> np.ndarray:
    """Vector field Jacobians at quadrature points; (E, Q, 2, 2) with
    entry [i, j] = d u_i / d x_j."""
    gphys = geom.physical_gradients(space)
    cf = coeffs.reshape(-1, 2)[space.dof_of]
    return np.einsum("eqlj,eli->eqij", gphys, cf)


def scalar_field_values(space: ScalarSpace, coeffs: np.ndarray,
                        geom: GeometryTables) -> np.ndarray:
    vals = space.basis_values(geom.rule.points)
    return np.einsum("lq,el->eq", vals, coeffs[space.dof_of])
