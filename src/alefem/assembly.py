"""Assembly of the domain-dependent matrices and load vectors.

The matrices of `assemble` act on interleaved vector coefficients
(entries 2i, 2i+1 are the x/y components of scalar DOF i) except the
divergence matrix, whose rows live on the pressure space.  The
convection form and the forms of `scalar_mass` and `scalar_laplacian`
are scalar.  Phase weights are per-element constants; the mesh is
fitted, so no integrand ever straddles the interface.  Every integral
runs over the quadrature table of `mesh.geometry`, which is built once
per mesh configuration; a tangled mesh raises TangledElementError.

Available kinds for `assemble`:
    M      vector mass             v^T M u   = sum_K  int u.v
    M_rho  density-weighted mass   v^T Mr u  = sum_K rho_K int u.v
    A      vector Laplace form     v^T A u   = sum_K  int grad u : grad v
    A_mu   viscous form            v^T Am u  = sum_K 2 mu_K int D(u):D(v)
    C      divergence form         q^T C v   = sum_K  int (div v) q

Element kernels.  Each is one GEMM, F @ T, of per-point factors F, a
row per element, against a reference tensor T fixed by the degrees and
the rule (`_reference_tensor`); phi, psi are the velocity and pressure
bases, d^_c the reference derivatives and wdet = w_q detJ:

    form        rows  F[e, row]                   cols  T[row, col]
    mass        q     wdet rho                    ij    phi_i phi_j
    convection  qc    wdet rho (Jinv a)_c         ij    phi_i d^_c phi_j
    divergence  qca   wdet Jinv[c, a]             ijb   psi_i d^_c phi_j [a=b]
    Gram        cdq   wdet Jinv[c, a] Jinv[d, b]  ij    d^_c phi_i d^_d phi_j

The Gram's F has a block per ab = 00, 11, 01 and runs per element chunk;
the mesh Laplacian L = K00 + K11, A (L on both components) and the four
scalar blocks mu (K_ab^T + L [a=b]) of A_mu, ab = 00, 01, 10, 11, are
read off its K (see `_gram_local`), so a configuration keeps only its
Jacobian table.  Against kernels that read an (E, Q, n_loc, 2) table of
physical gradients, at h=0.04, k=2 on one CPU of a 2-CPU Xeon VM (best
of 20, `BENCH_pr23.json`): mass 1.3 -> 0.3 ms, convection 6.6 -> 4.4 ms,
the Gram with that table's build 12.5 -> 5.9 ms, the divergence
1.4 -> 1.7 ms (2.5 times that with F as (2, E, 2Q), spent in
transposes).

Index maps.  Between remeshes the nodes move but the connectivity does
not, so every matrix keeps its sparsity pattern for hundreds of steps.
`DofMaps` holds, for the DOF numbering of a Taylor-Hood pair, the
canonical CSR pattern of the scalar and of the divergence element
matrices and the CSR slot of each element contribution (`Pattern`);
assembly then sums the element kernels straight into CSR data arrays
with one `np.bincount`.  Every velocity form is summed on the scalar
pattern, the viscous form as its four blocks, and every vector matrix is
gathered from scalar ones.  A slot map of the vector element entries
would hold E (2 n_loc)^2 slots, four times the scalar one; without it
the peak memory of the rising-bubble run at h=0.04, k=2 fell from 131
MB to 122 MB (median of 10 runs on a 2-CPU Xeon VM), and each CSR entry
still sums the same contributions in the same order.  The pair owns its maps
(`FESpacePair.maps`): `fespace.build_taylor_hood` makes them and
`ale.spaces_with_mesh` hands them on to every moved configuration, so
each is built once per numbering and dropped with it.

The pattern is that of a COO assembly (`coo_matrix(...).tocsr()`); the
sums, taken in element order, differ from its sums in the last bits.
`Gather` replays matrices derived by slicing, stacking and copying (the
saddle matrix, the interior block of the mesh Laplacian, a scalar matrix
on both components, the vector matrix of four scalar blocks): the
derivation runs once on entry ids and is replayed as one gather per
step, which only permutes and copies entries and so is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse

from .fespace import FESpacePair, ScalarSpace
from .linalg import saddle_matrix
from .mesh import MINUS, GeometryTables, Mesh, geometry
from .quadrature import triangle_rule
from .reference import reference_element

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


# ---------------------------------------------------------------------------
# index maps


def _index(a) -> np.ndarray:
    out = np.array(a, dtype=np.int32)
    out.setflags(write=False)
    return out


class Pattern:
    """Canonical CSR pattern of the entries (rows, cols), two arrays
    that broadcast together, taken in C order; slot holds the CSR slot
    of each entry."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape):
        self.shape = shape
        keys, slot = np.unique(
            (rows.astype(np.int64) * shape[1] + cols).ravel(),
            return_inverse=True)
        self.indices = _index(keys % shape[1])
        self.indptr = _index(np.searchsorted(
            keys, np.arange(shape[0] + 1) * shape[1]))
        # intp, which bincount reads without a converted copy
        slot.setflags(write=False)
        self.slot = slot

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def sum(self, vals: np.ndarray) -> np.ndarray:
        """CSR data of the entries vals (in entry order)."""
        return np.bincount(self.slot, vals.ravel(), self.nnz)

    def matrix(self, vals: np.ndarray) -> sparse.csr_matrix:
        return sparse.csr_matrix((self.sum(vals), self.indices, self.indptr),
                                 shape=self.shape)


class Gather:
    """A matrix derived from assembled ones by slicing, stacking,
    Kronecker products with the identity, transposition, format changes
    and negation, replayed as one gather over their data arrays.

    derive(*matrices) runs once, on copies whose data are entry ids;
    the ids it returns (negative where it negated) are the map.
    """

    def __init__(self, derive, matrices):
        sizes = [m.nnz for m in matrices]
        offsets = np.cumsum([0] + sizes)
        tagged = [type(m)((np.arange(o + 1, o + n + 1, dtype=float),
                           m.indices, m.indptr), shape=m.shape)
                  for m, o, n in zip(matrices, offsets, sizes)]
        out = derive(*tagged)
        tags = out.data.astype(np.int64)
        self.source = _index(np.abs(tags) - 1)
        owner = np.searchsorted(offsets, self.source, side="right") - 1
        self.negated = [bool(np.any(tags[owner == i] < 0))
                        for i in range(len(matrices))]
        if any(np.any(tags[owner == i] > 0) and self.negated[i]
               for i in range(len(matrices))):
            raise ValueError("derive may negate an input only as a whole")
        self.container = type(out)
        self.indices = _index(out.indices)
        self.indptr = _index(out.indptr)
        self.shape = out.shape

    def __call__(self, matrices):
        data = np.concatenate([-m.data if neg else m.data
                               for m, neg in zip(matrices, self.negated)])
        return self.container((data[self.source], self.indices, self.indptr),
                              shape=self.shape)


def _scalar_pattern(dof_of: np.ndarray, n_dofs: int) -> Pattern:
    """Scalar element matrices of a numbering, entries (E, n_loc, n_loc)."""
    return Pattern(dof_of[:, :, None], dof_of[:, None, :], (n_dofs, n_dofs))


def _zeros_on(pattern: Pattern) -> sparse.csr_matrix:
    """A matrix on pattern, as a template for `Gather`."""
    return sparse.csr_matrix(
        (np.zeros(pattern.nnz), pattern.indices, pattern.indptr),
        shape=pattern.shape)


def _vector_matrix(*blocks) -> sparse.csr_matrix:
    """The matrix on interleaved vector coefficients whose entry
    (2i + a, 2j + b) is that of blocks[2a + b] at (i, j), blocks given
    in the order ab = 00, 01, 10, 11."""
    units = [sparse.csr_matrix(([1.0], ([a], [b])), shape=(2, 2))
             for a in range(2) for b in range(2)]
    return sum(sparse.kron(B, E, format="csr") for B, E in zip(blocks, units))


class DofMaps:
    """Index maps of the DOF numbering of a Taylor-Hood pair, each built
    on first use (see the module doc).  They hold the numbering's arrays
    but no space, so that they keep no mesh alive.  interface_dofs and
    boundary_dofs are scalar velocity DOF ids.  The read-only masks
    saddle_mask (interleaved velocity DOFs off the boundary) and
    interior_mask (scalar ones off both) select the unknowns of `saddle`
    and `interior`, and are built once, with the maps.  scalar and
    divergence are `Pattern`s, interleaved, blocks, saddle and interior
    `Gather`s; a step between remeshes reads scalar, divergence, saddle
    and interior only.
    """

    def __init__(self, velocity: ScalarSpace, pressure: ScalarSpace,
                 interface_dofs: np.ndarray, boundary_dofs: np.ndarray):
        self.dof_of = velocity.dof_of
        self.n_dofs = velocity.n_dofs
        self._pressure = pressure.dof_of, pressure.n_dofs
        free = np.ones(self.n_dofs, dtype=bool)
        free[boundary_dofs] = False
        self.saddle_mask = np.repeat(free, 2)
        free[interface_dofs] = False
        self.interior_mask = free
        self.saddle_mask.setflags(write=False)
        free.setflags(write=False)

    @cached_property
    def scalar(self) -> Pattern:
        """Scalar element matrices of the velocity space."""
        return _scalar_pattern(self.dof_of, self.n_dofs)

    @cached_property
    def interleaved(self) -> Gather:
        """Gathers a scalar matrix acting on both components: scalar
        row i becomes rows 2i and 2i+1 with the same data."""
        return Gather(lambda S: sparse.kron(S, sparse.identity(2),
                                            format="csr"),
                      [_zeros_on(self.scalar)])

    @cached_property
    def blocks(self) -> Gather:
        """Gathers the vector matrix (`_vector_matrix`) of four blocks
        on the scalar pattern."""
        return Gather(_vector_matrix, [_zeros_on(self.scalar)] * 4)

    @cached_property
    def divergence(self) -> Pattern:
        """Divergence element matrices, entries (E, n_p, n_loc, 2)."""
        p_dof_of, p_n_dofs = self._pressure
        vdofs = 2 * self.dof_of[:, None, :, None] + np.arange(2)
        return Pattern(p_dof_of[:, :, None, None], vdofs,
                       (p_n_dofs, 2 * self.n_dofs))

    @cached_property
    def saddle(self) -> Gather:
        """Gathers the saddle block (`linalg.saddle_matrix`) of the
        velocity DOFs off the boundary from the four blocks of the
        momentum matrix, on the scalar pattern, and the divergence
        matrix."""
        free = self.saddle_mask

        def derive(A00, A01, A10, A11, C):
            Kuu = _vector_matrix(A00, A01, A10, A11)
            return saddle_matrix(Kuu[free][:, free], (-C[:, free]).tocsr())
        return Gather(derive, [_zeros_on(self.scalar)] * 4
                      + [_zeros_on(self.divergence)])

    @cached_property
    def interior(self) -> Gather:
        """Gathers the interior block, in CSC, of a matrix on the scalar
        pattern: the velocity DOFs off the interface and off the boundary,
        on which `ale.harmonic_extension` solves."""
        free = self.interior_mask
        return Gather(lambda L: L[free][:, free].tocsc(),
                      [_zeros_on(self.scalar)])


# ---------------------------------------------------------------------------
# element kernels


@lru_cache(maxsize=None)
def _reference_tensor(form: str, test: int, trial: int,
                      rule_degree: int) -> np.ndarray:
    """The read-only reference tensor T of form (see the module doc) for
    the basis of degree test against that of degree trial at the points
    of triangle_rule(rule_degree)."""
    points = triangle_rule(rule_degree).points
    Q = len(points)
    ref_i, ref_j = reference_element(test), reference_element(trial)
    phi, dphi = ref_i.shape_values(points), ref_i.shape_gradients(points)
    phj, dphj = ref_j.shape_values(points), ref_j.shape_gradients(points)
    if form == "mass":
        T = np.einsum("iq,jq->qij", phi, phj).reshape(Q, -1)
    elif form == "convection":
        T = np.einsum("iq,jqc->qcij", phi, dphj).reshape(2 * Q, -1)
    elif form == "divergence":
        T = np.einsum("iq,jqc,ab->qcaijb", phi, dphj, np.eye(2))
        T = T.reshape(4 * Q, -1)
    else:                                       # the gradient Gram
        T = np.einsum("iqc,jqd->cdqij", dphi, dphj).reshape(4 * Q, -1)
    T.setflags(write=False)
    return T


def _mass_local(geom: GeometryTables, space: ScalarSpace, weights):
    T = _reference_tensor("mass", space.degree, space.degree, geom.rule_degree)
    w = geom.wdet if weights is None else geom.wdet * weights[:, None]
    return (w @ T).reshape(-1, space.n_local, space.n_local)


# Elements per chunk of the gradient Gram.  Its work arrays, the factors
# F and the chunk's element matrices K, would outgrow the Jacobian table;
# the Gram runs while the saddle factor of the step before is alive, so
# it adds to the peak memory of a run.  Chunks of 128 elements keep them to a few
# hundred kB; chunks of 512 raised the peak of the rising-bubble run at
# h=0.08 by about 5 MB, when the Gram ran on a second thread.
_ELEMENT_CHUNK = 128


def _gram_local(geom: GeometryTables, V: ScalarSpace, mu=None):
    """Entries (E, n_loc, n_loc) of the Laplacian and (4, E, n_loc,
    n_loc) of the viscous form, None without mu, read off one Gram of
    the physical gradients per element; mu multiplies last.  The viscous
    form couples the components: its block ab = 00, 01, 10, 11 pairs
    component a of the test function with component b of the trial."""
    T = _reference_tensor("gram", V.degree, V.degree, geom.rule_degree)
    E, Q = geom.wdet.shape
    n_loc = V.n_local
    laplacian = np.empty((E, n_loc, n_loc))
    viscous = None if mu is None else np.empty((4, E, n_loc, n_loc))
    F = np.empty((3, min(E, _ELEMENT_CHUNK), 2, 2, Q))
    for lo in range(0, E, _ELEMENT_CHUNK):
        # X[e, a, c, q] = Jinv[e, q, c, a]: d xi_c / d x_a
        X = geom.Jinv[lo:lo + _ELEMENT_CHUNK].transpose(0, 3, 2, 1)
        n = len(X)
        wX = X * geom.wdet[lo:lo + n, None, None, :]
        # F[ab, e, c, d, q] = wdet Jinv[c, a] Jinv[d, b], ab = 00, 11, 01
        for f, (a, b) in zip(F, ((0, 0), (1, 1), (0, 1))):
            np.multiply(wX[:, a, :, None], X[:, b, None], out=f[:n])
        # K[ab, e, i, j] = int_K d_a phi_i d_b phi_j
        K = (F[:, :n].reshape(3 * n, 4 * Q) @ T).reshape(3, n, n_loc, n_loc)
        trace = np.add(K[0], K[1], out=laplacian[lo:lo + n])
        if viscous is None:
            continue
        out = viscous[:, lo:lo + n]             # [ab, e] = K[ba][e]
        np.add(K[0], trace, out=out[0])
        out[1] = K[2].transpose(0, 2, 1)
        out[2] = K[2]
        np.add(K[1], trace, out=out[3])
        out *= mu[lo:lo + n, None, None]
    return laplacian, viscous


def _divergence_local(geom: GeometryTables, P: ScalarSpace, V: ScalarSpace):
    """Entries (E, n_p, n_v, 2) of the divergence form."""
    T = _reference_tensor("divergence", P.degree, V.degree, geom.rule_degree)
    E, Q = geom.wdet.shape
    F = geom.Jinv * geom.wdet[:, :, None, None]         # rows (q, c, a)
    return (F.reshape(E, 4 * Q) @ T).reshape(E, P.n_local, V.n_local, 2)


def _convection_local(geom: GeometryTables, V: ScalarSpace, rho,
                      transport: np.ndarray):
    """Scalar entries (E, n_loc, n_loc) of the convection form."""
    T = _reference_tensor("convection", V.degree, V.degree, geom.rule_degree)
    a = field_values(V, transport, geom)                # (E, Q, 2)
    # scalar form: int phi_i (a . grad phi_j), identical for both
    # components; a . grad = sum_c (Jinv a)_c d^_c
    w = geom.wdet * rho[:, None]
    J = geom.Jinv
    E, Q = w.shape
    F = np.empty((E, Q, 2))
    for c in range(2):
        np.multiply(J[:, :, c, 0] * a[..., 0] + J[:, :, c, 1] * a[..., 1],
                    w, out=F[:, :, c])
    return (F.reshape(E, 2 * Q) @ T).reshape(E, V.n_local, V.n_local)


def scalar_mass(mesh: Mesh, space: ScalarSpace, weights=None,
                pattern: Pattern | None = None) -> sparse.csr_matrix:
    """The mass matrix of the space weighted by the per-element weights
    (none if None), summed through pattern as in `scalar_laplacian`."""
    if pattern is None:
        pattern = _scalar_pattern(space.dof_of, space.n_dofs)
    return pattern.matrix(_mass_local(geometry(mesh), space, weights))


def scalar_laplacian(geom: GeometryTables, space: ScalarSpace,
                     pattern: Pattern | None = None) -> sparse.csr_matrix:
    """The Laplacian of the space on the configuration of geom, summed
    through pattern, the scalar pattern of its numbering (built here if
    None)."""
    if pattern is None:
        pattern = _scalar_pattern(space.dof_of, space.n_dofs)
    return pattern.matrix(_gram_local(geom, space)[0])


def assemble(kind: str, mesh: Mesh, spaces: FESpacePair,
             params: PhaseParams | None = None) -> sparse.csr_matrix:
    """Assemble one of the domain-dependent matrices (see module doc).

    It reads the geometry table of mesh and the index maps of spaces and
    builds whichever of them is missing.
    """
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    if spaces.mesh is not mesh:
        raise ValueError("spaces were built on a different mesh")
    if kind in ("M_rho", "A_mu") and params is None:
        raise ValueError(f"kind {kind} needs phase parameters")
    geom = geometry(mesh)
    V = spaces.velocity
    maps = spaces.maps

    if kind in ("M", "M_rho"):
        w = None if kind == "M" else params.rho_of(mesh.phase)
        return maps.interleaved([maps.scalar.matrix(_mass_local(geom, V, w))])

    if kind == "A":
        return maps.interleaved([maps.scalar.matrix(_gram_local(geom, V)[0])])

    if kind == "A_mu":
        return maps.blocks(viscous_and_laplacian(mesh, spaces, params)[0])

    # kind == "C"
    P = spaces.pressure
    return maps.divergence.matrix(_divergence_local(geom, P, V))


def viscous_and_laplacian(mesh: Mesh, spaces: FESpacePair,
                          params: PhaseParams):
    """(A_mu, L): the four blocks ab = 00, 01, 10, 11 of the viscous form
    (`_gram_local`) and the Laplacian of the velocity space, all on its
    scalar pattern and read off one gradient Gram, for a step's flow
    solve and the harmonic extension of its u (see `stepper.flow_solve`).
    `DofMaps.blocks` gathers the viscous form of `assemble` from A_mu.
    Like `assemble`, it builds the table and maps it reads if missing."""
    if spaces.mesh is not mesh:
        raise ValueError("spaces were built on a different mesh")
    L, A_mu = _gram_local(geometry(mesh), spaces.velocity,
                          params.mu_of(mesh.phase))
    scalar = spaces.maps.scalar
    return [scalar.matrix(b) for b in A_mu], scalar.matrix(L)


def assemble_convection(mesh: Mesh, spaces: FESpacePair, params: PhaseParams,
                        transport: np.ndarray) -> sparse.csr_matrix:
    """Convection matrix for a frozen transport field, on the scalar
    pattern of the velocity space.

    transport holds interleaved velocity-space coefficients of the field
    a = u - w; the result B satisfies
    v^T B chi = sum_K rho_K int (a . grad chi) v
    for scalar v and chi, and acts so on each component of a vector field.
    """
    V = spaces.velocity
    local = _convection_local(geometry(mesh), V, params.rho_of(mesh.phase),
                              transport)
    return spaces.maps.scalar.matrix(local)


def assemble_load(mesh: Mesh, spaces: FESpacePair,
                  params: PhaseParams) -> np.ndarray:
    """Pairing of the gravity force rho (0, -g) with the test functions,
    rho being the per-element density.

    Only this buoyancy form exists: an unweighted (0, -g) is balanced
    exactly by the pressure p = -g y with u = 0, so it cannot move a
    bubble.
    """
    geom = geometry(mesh)
    V = spaces.velocity
    vals = V.basis_values(geom.rule.points)
    w = geom.wdet * params.rho_of(mesh.phase)[:, None]
    cell = np.einsum("iq,eq->ei", vals, w) * (-params.g)
    out = np.zeros(2 * V.n_dofs)
    out[1::2] = np.bincount(V.dof_of.ravel(), cell.ravel(), V.n_dofs)
    return out


def pressure_mean_vector(mesh: Mesh, spaces: FESpacePair) -> np.ndarray:
    """Vector m with m^T p = integral of the pressure FE function."""
    geom = geometry(mesh)
    P = spaces.pressure
    vals = P.basis_values(geom.rule.points)
    cell = np.einsum("iq,eq->ei", vals, geom.wdet)
    return np.bincount(P.dof_of.ravel(), cell.ravel(), P.n_dofs)


# ---------------------------------------------------------------------------
# field evaluation at quadrature points (shared with the verification module)


def field_values(space: ScalarSpace, coeffs: np.ndarray,
                 geom: GeometryTables) -> np.ndarray:
    """Vector field values at quadrature points; (E, Q, 2), the view of
    one GEMM's (E, 2, Q) result."""
    cf = coeffs.reshape(-1, 2)[space.dof_of].transpose(0, 2, 1)
    vals = space.basis_values(geom.rule.points)         # (n_loc, Q)
    return (cf.reshape(-1, space.n_local) @ vals).reshape(
        len(cf), 2, -1).transpose(0, 2, 1)


def field_gradients(space: ScalarSpace, coeffs: np.ndarray,
                    geom: GeometryTables) -> np.ndarray:
    """Vector field Jacobians at quadrature points; (E, Q, 2, 2) with
    entry [i, j] = d u_i / d x_j."""
    G = space.basis_gradients(geom.rule.points)        # (n_loc, Q, 2)
    cf = coeffs.reshape(-1, 2)[space.dof_of].transpose(0, 2, 1)
    # reference gradients [e, i, q, c] = d u_i / d xi_c, times d xi / d x
    ref = cf.reshape(-1, len(G)) @ G.reshape(len(G), -1)
    return ref.reshape(len(cf), 2, -1, 2).transpose(0, 2, 1, 3) @ geom.Jinv


def scalar_field_values(space: ScalarSpace, coeffs: np.ndarray,
                        geom: GeometryTables) -> np.ndarray:
    vals = space.basis_values(geom.rule.points)
    return np.einsum("lq,el->eq", vals, coeffs[space.dof_of])
