"""Sparse solves for the coupled velocity-pressure systems.

The zero-mean pressure constraint is imposed by a single scalar
multiplier row/column bordering the saddle block, which is
preconditioned by an LU factor of its quasi-definite form, made in a
symmetric minimum-degree order without pivoting (`SaddleFactor`).  A
factor outlives its solve: between remeshes the saddle matrix changes
only by O(tau), so the factor of an earlier step preconditions GMRES on
the current system and a new factorization is needed only when that
stops paying off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu


class SolverError(Exception):
    pass


def saddle_matrix(Kuu: sparse.spmatrix, B: sparse.spmatrix) -> sparse.csr_matrix:
    """The saddle block [[Kuu, B^T], [B, 0]] in CSR."""
    return sparse.bmat([[Kuu, B.T], [B, None]], format="csr")


@dataclass
class SaddleSystem:
    """Constrained saddle-point problem

        [ Kuu  B^T  0 ] [u]   [rhs_u]
        [ B    0    m ] [p] = [rhs_p]
        [ 0    m^T  0 ] [l]   [  0  ]

    where m is the pressure-mean functional, so m^T p = 0 holds exactly
    at the solution and l absorbs any mean component of rhs_p.  A0 holds
    the saddle block [[Kuu, B^T], [B, 0]] in CSR (`saddle_matrix`); the
    sizes of rhs_u and rhs_p split it.
    """

    A0: sparse.csr_matrix
    rhs_u: np.ndarray
    rhs_p: np.ndarray
    mean_vector: np.ndarray

    def __post_init__(self):
        n = len(self.rhs_u) + len(self.rhs_p)
        if self.A0.shape != (n, n):
            raise SolverError(f"A0 has shape {self.A0.shape}, the right-hand "
                              f"sides need ({n}, {n})")
        if len(self.mean_vector) != len(self.rhs_p):
            raise SolverError("mean vector size does not match pressure block")


# Applications of a factor (iterations) one saddle solve may spend before
# the factor is handed back as stale, so that the next solve refactors.
MAX_ITERATIONS = 20

# Weight, relative to max |diag A0|, of the pressure diagonal that makes
# the factored matrix quasi-definite; the fill does not depend on it.  Over
# the first 7 steps at h=0.04 (k=2, BP1), 1e-10 took 23 iterations a step,
# 1e-12 5-6, 1e-14 4-5, 1e-16 3-5, and COLAMD with partial pivoting 2-5.
EPSILON = 1e-14


class SaddleFactor:
    """Preconditioner of one bordered saddle matrix [[A0, c], [c^T, 0]],
    A0 = [[Kuu, B^T], [B, 0]] with a velocity block of size n_u.

    Factored verbatim, the dense border would ruin the fill-reducing
    order, and A0 alone is singular.  So F = A0 - EPSILON sigma E_p is
    factored, E_p the identity on the pressure block and sigma = max
    |diag A0|, as P = S F, S = diag(I, -I).  P's symmetric part, sym(Kuu)
    + EPSILON sigma E_p, is positive definite while M_rho / tau dominates
    Kuu, so P has an LU factor without pivoting in any symmetric order
    (Vanderbei, SIAM J. Optim. 5 (1995)): SuperLU's MMD order of P^T + P
    gives 1.52M nonzeros at h=0.04, where COLAMD with partial pivoting
    gave 3.50M.  F^-1 v = P^-1 S v, and c^T F^-1 c closes the border.
    """

    def __init__(self, A0: sparse.spmatrix, c: np.ndarray, n_u: int):
        self.n = n = A0.shape[0]
        self.c = c
        self.sign = np.repeat([1.0, -1.0], [n_u, n - n_u])
        sigma = float(np.abs(A0.diagonal()).max()) or 1.0
        P = (sparse.diags(self.sign) @ A0
             + sparse.diags(EPSILON * sigma * (self.sign < 0)))
        try:
            self.lu = splu(P.tocsc(), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
        except RuntimeError as err:
            raise SolverError(f"factorization failed: {err}") from err
        self.x2 = self.lu.solve(self.sign * c)
        self.cx2 = c @ self.x2
        if self.cx2 == 0.0 or not np.isfinite(self.cx2):
            raise SolverError("bordered closure is singular "
                              "(mean vector incompatible with the blocks)")

    def solve(self, rs: np.ndarray) -> np.ndarray:
        """(x, lam) with F x + lam c = r and c^T x = s, for rs = (r, s)."""
        x1 = self.lu.solve(self.sign * rs[:-1])
        lam = (self.c @ x1 - rs[-1]) / self.cx2
        return np.append(x1 - lam * self.x2, lam)


def reusable(factor, n: int) -> bool:
    """Whether factor, handed on by an earlier solve, may precondition a
    solve of n unknowns rather than be replaced by a fresh factorization:
    a stale factor is handed on as None, and one of another size belongs
    to another numbering."""
    return factor is not None and factor.n == n


@dataclass
class SaddleStats:
    """What a saddle solve hands on: the factor for the next solve (None
    when it has gone stale), the iterations spent (applications of the
    factor) and the factorizations made (0 or 1)."""

    factor: SaddleFactor | None
    iterations: int
    factorizations: int


def _gmres(matvec: Callable, precond: Callable, r: np.ndarray,
           accept: Callable, max_iter: int):
    """Right-preconditioned GMRES for matvec(d) = r, started from d = 0.

    The preconditioned directions are kept, so forming the iterate costs
    no further preconditioner application.  Stops as soon as accept(d)
    holds, on breakdown, or after max_iter iterations; returns (d,
    iterations).
    """
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


def solve_saddle(system: SaddleSystem, factor: SaddleFactor | None = None):
    """Solve the bordered saddle problem; returns (u, p, multiplier, stats).

    The first iterate is one bordered solve with factor, typically the
    one an earlier solve handed on; iterative refinement on the exact
    bordered residual follows, each correction computed by GMRES right-
    preconditioned with the same factor.  The factor inverts a matrix
    EPSILON away from A0 (see `SaddleFactor`), so a fresh one needs a
    few iterations too.  A factor of the wrong size, or one that cannot
    reach the refinement target, is replaced by a fresh factorization.
    stats.iterations counts applications of the factor; stats.factor is
    None when they exceeded MAX_ITERATIONS, so that the next solve
    refactors instead.

    The refinement target is 1e-12 of the bound below and, row by row,
    1e-12 of |A| |x| + |b|.  The matrix is badly scaled (M_rho / tau
    against the divergence rows), and the row-wise target makes the
    result independent, to about 1e-12 in the observables, of which
    factor preconditioned it.
    """
    n_u = len(system.rhs_u)
    n = system.A0.shape[0]
    m = system.mean_vector
    c = np.concatenate([np.zeros(n_u), m])
    A0 = system.A0
    abs_A0, abs_c = abs(A0), np.abs(c)
    rhs = np.concatenate([system.rhs_u, system.rhs_p])
    b = np.append(rhs, 0.0)
    abs_b = np.abs(b)
    # rows summed in order by the product: stored zeros change nothing
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
        """(on target, residual b - matvec(z), row scale of z or None):
        the row scale is computed only when the residual meets the
        bound, without which z is off target anyway."""
        r = b - matvec(z)
        res = np.abs(r)
        if not res.max() <= 1e-12 * bound(z[:n]):
            return False, r, None
        s = row_scale(z)
        return bool(np.all(res <= 1e-12 * s)), r, s

    def refine(factor):
        z = factor.solve(b)
        iterations = 1
        checked = check(z)
        for _ in range(3):
            on_target, r, s = checked
            if on_target:
                return z, iterations, True
            # GMRES minimizes the residual relative to the row scales, the
            # measure the row-wise target applies
            if s is None:
                s = row_scale(z)
            D = s.max() / s
            tried = []                  # (d, z + d, check(z + d)), last

            def accept(d):
                zd = z + d
                tried[:] = [d, zd, check(zd)]
                return tried[2][0]

            dz, its = _gmres(lambda v: D * matvec(v),
                             lambda v: factor.solve(v / D), D * r,
                             accept, MAX_ITERATIONS)
            iterations += its
            if tried and tried[0] is dz:
                # GMRES stopped on the last correction it tried: its
                # check is that of the new z
                z, checked = tried[1], tried[2]
            else:
                z = z + dz
                checked = check(z)
        return z, iterations, checked[0]

    factorizations = 0
    converged = False
    if reusable(factor, n):
        z, iterations, converged = refine(factor)
    if not converged:
        factor = None               # drop this reference before allocating
        factor = SaddleFactor(A0, c, n_u)
        factorizations = 1
        z, iterations, _ = refine(factor)

    x, lam = z[:n], z[n]
    res = rhs - (A0 @ x + lam * c)
    if np.abs(res).max(initial=0.0) > 1e-9 * bound(x):
        raise SolverError(f"saddle residual {np.abs(res).max():.3e} exceeds "
                          f"1e-9 * {bound(x):.3e}")
    u = x[:n_u]
    p = x[n_u:]
    mean = float(m @ p)
    if abs(mean) > 1e-10 * max(np.abs(p).max(initial=0.0), 1.0) * \
            max(np.abs(m).sum(), 1.0):
        raise SolverError(f"pressure mean {mean:.3e} not eliminated")
    stats = SaddleStats(factor if iterations <= MAX_ITERATIONS else None,
                        iterations, factorizations)
    return u, p, float(lam), stats
