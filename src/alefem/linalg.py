"""Sparse solves for the coupled velocity-pressure systems.

The zero-mean pressure constraint is imposed by a single scalar
multiplier row/column bordering the saddle block, which is
preconditioned by an LU factor of its quasi-definite form, made in a
symmetric minimum-degree order without pivoting, of its transpose,
which SuperLU reads off the CSR arrays without a copy (`SaddleFactor`).
Refinement by GMRES on that factor takes one product by the matrix per
iteration, and checks an iterate only when GMRES's residual says that
it may meet the target (`solve_saddle`).

A factor outlives its solve.  Between remeshes the matrices of a step
change only by O(tau), so the factor of an earlier step preconditions
an iteration on the current system, and a new factorization is needed
only when that stops paying off.  `LaggedFactor` holds such a factor,
decides when to replace it and counts what its solves spent, for the
saddle solve here and for the harmonic extension (`ale.extend`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.linalg import solve_triangular
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


# Applications of a factor (iterations) one saddle solve may spend on it
# before it goes stale, so that the next solve refactors (`LaggedFactor`).
MAX_ITERATIONS = 20

# Weight, relative to max |diag A0|, of the pressure diagonal that makes
# the factored matrix quasi-definite; the fill does not depend on it.  Over
# the first 7 steps at h=0.04 (k=2, BP1), 1e-10 took 23 iterations a step,
# 1e-12 5-6, 1e-14 4-5, 1e-16 3-5, and COLAMD with partial pivoting 2-5.
EPSILON = 1e-14


class SaddleFactor:
    """Preconditioner of one bordered saddle matrix [[A0, c], [c^T, 0]],
    A0 = [[Kuu, B^T], [B, 0]] in CSR with a velocity block of size n_u.

    Factored verbatim, the dense border would ruin the fill-reducing
    order, and A0 alone is singular.  So F = A0 - EPSILON sigma E_p is
    factored, E_p the identity on the pressure block and sigma = max
    |diag A0|, as P = S F, S = diag(I, -I).  P's symmetric part, sym(Kuu)
    + EPSILON sigma E_p, is positive definite while M_rho / tau dominates
    Kuu, so P has an LU factor without pivoting in any symmetric order
    (Vanderbei, SIAM J. Optim. 5 (1995)).  P's CSR arrays are handed to
    SuperLU as the CSC arrays of P^T, which it factors without a copy,
    and solves by P^-1 are its solves with trans="T".  With relax=1 (see
    `ale.splu`), SuperLU's MMD order of P + P^T gives 1.39M nonzeros at
    h=0.04, where COLAMD with partial pivoting gave 3.50M.  F^-1 v =
    P^-1 S v, and c^T F^-1 c closes the border.
    """

    def __init__(self, A0: sparse.csr_matrix, c: np.ndarray, n_u: int):
        n = A0.shape[0]
        self.c = c
        self.sign = np.repeat([1.0, -1.0], [n_u, n - n_u])
        sigma = float(np.abs(A0.diagonal()).max()) or 1.0
        P = (sparse.diags(self.sign) @ A0
             + sparse.diags(EPSILON * sigma * (self.sign < 0))).tocsr()
        try:
            self.lu = splu(sparse.csc_matrix((P.data, P.indices, P.indptr),
                                             shape=P.shape),
                           permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           relax=1, options=dict(SymmetricMode=True))
        except RuntimeError as err:
            raise SolverError(f"factorization failed: {err}") from err
        self.x2 = self.lu.solve(self.sign * c, trans="T")
        self.cx2 = c @ self.x2
        if self.cx2 == 0.0 or not np.isfinite(self.cx2):
            raise SolverError("bordered closure is singular "
                              "(mean vector incompatible with the blocks)")

    def solve(self, rs: np.ndarray) -> np.ndarray:
        """(x, lam) with F x + lam c = r and c^T x = s, for rs = (r, s)."""
        x1 = self.lu.solve(self.sign * rs[:-1], trans="T")
        lam = (self.c @ x1 - rs[-1]) / self.cx2
        return np.append(x1 - lam * self.x2, lam)


class LaggedFactor:
    """The factor of one numbering's matrix that the solves of a run
    hand on from step to step, and the one rule by which it is replaced.

    A solve runs its iteration on the held factor.  It refactors from
    its own matrix first when there is none, as in the first solve of a
    numbering or after the solve before went stale, and at once when the
    iteration cannot converge on a lagged factor; it then finishes on
    the fresh factor.  A solve that spends more than cap iterations on
    the factor it leaves behind drops it: the factor has gone stale, and
    the next solve refactors.  The old factor is always freed before the
    new one is made.  iterations counts those of the last solve, both
    attempts summed, and factorizations all the factors made.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.factor = None
        self.iterations = 0
        self.factorizations = 0

    def solve(self, make: Callable, attempt: Callable):
        """Run attempt(factor, fresh) -> (result, iterations, converged)
        on the held factor, fresh telling it that the factor was made by
        make(), from the matrix of this solve.  Returns the result."""
        self.iterations = 0
        while True:
            fresh = self.factor is None
            if fresh:
                self.factor = make()
                self.factorizations += 1
            result, spent, converged = attempt(self.factor, fresh)
            self.iterations += spent
            if converged or fresh:
                break
            self.factor = None          # freed before the new one is made
        if spent > self.cap:
            self.factor = None          # stale: the next solve refactors
        return result


def _gmres(matvec: Callable, precond: Callable, r: np.ndarray,
           accept: Callable, max_iter: int, reach: float):
    """Right-preconditioned GMRES for matvec(d) = r, started from d = 0.

    Each iteration orthogonalizes by classical Gram-Schmidt with one
    reorthogonalization (CGS2; Giraud, Langou & Rozloznik, Comput. Math.
    Appl. 50 (2005)) and updates the Givens rotations of the
    least-squares problem, so that |g[j + 1]| is the 2-norm of its
    residual (Saad, Iterative Methods for Sparse Linear Systems, 2nd
    ed., 6.5.3).  Only once that is at most reach, after max_iter
    iterations or on breakdown is the iterate d formed, from the
    preconditioned directions kept, and accept(d) asked.  Stops as soon
    as accept(d) holds, on breakdown, or after max_iter iterations;
    returns (d, iterations).
    """
    n = len(r)
    V = np.zeros((max_iter + 1, n))
    Z = np.empty((max_iter, n))
    R = np.zeros((max_iter, max_iter))
    rotations = np.empty((max_iter, 2))         # (cos, sin)
    g = np.zeros(max_iter + 1)
    g[0] = np.linalg.norm(r)
    V[0] = r / g[0]
    for j in range(max_iter):
        Z[j] = precond(V[j])
        w = matvec(Z[j])
        h = np.zeros(j + 2)
        for _ in range(2):
            a = V[:j + 1] @ w
            w -= a @ V[:j + 1]
            h[:j + 1] += a
        h[j + 1] = np.linalg.norm(w)
        if h[j + 1] > 0.0:
            V[j + 1] = w / h[j + 1]
        for i, (c, s) in enumerate(rotations[:j]):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        c, s = rotations[j] = h[j:] / np.hypot(h[j], h[j + 1])
        R[:j + 1, j] = np.append(h[:j], c * h[j] + s * h[j + 1])
        g[j], g[j + 1] = c * g[j], -s * g[j]
        last = h[j + 1] == 0.0 or j + 1 == max_iter
        if last or abs(g[j + 1]) <= reach:
            d = solve_triangular(R[:j + 1, :j + 1], g[:j + 1]) @ Z[:j + 1]
            if accept(d) or last:
                return d, j + 1


def solve_saddle(system: SaddleSystem, factor: LaggedFactor | None = None):
    """Solve the bordered saddle problem; returns (u, p, multiplier, factor).

    The first iterate is one bordered solve with the factor that factor
    holds, typically one an earlier solve of the numbering made;
    iterative refinement on the exact bordered residual follows, each
    correction computed by GMRES right-preconditioned with the same
    factor.  The factor inverts a matrix EPSILON away from A0 (see
    `SaddleFactor`), so a fresh one needs a few iterations too.  When
    factor holds none, or its factor cannot reach the refinement target,
    A0 is factored afresh, and when the solve spends more than
    MAX_ITERATIONS applications the factor goes stale (see
    `LaggedFactor`).  Without factor a new LaggedFactor is made; the
    one the solve ran on, and counted in, is returned.

    The refinement target is 1e-12 of the bound below and, row by row,
    1e-12 of |A| |x| + |b|.  The matrix is badly scaled (M_rho / tau
    against the divergence rows), and the row-wise target makes the
    result independent, to about 1e-12 in the observables, of which
    factor preconditioned it.  An iterate is checked against it only
    once GMRES's residual, scaled by the rows' targets, has a 2-norm in
    reach: at most sqrt(n) times the largest target.  A check multiplies
    by A0, and by |A0| only once the residual meets the bound; |A0|
    shares A0's index arrays and is made then, after the factor, so
    that it does not add to the factorization's peak memory.
    """
    n_u = len(system.rhs_u)
    n = system.A0.shape[0]
    m = system.mean_vector
    c = np.concatenate([np.zeros(n_u), m])
    A0 = system.A0
    abs_A0, abs_c = [], np.abs(c)       # |A0| is made by the first row_scale
    rhs = np.concatenate([system.rhs_u, system.rhs_p])
    b = np.append(rhs, 0.0)
    abs_b = np.abs(b)
    # row sums of |A0|: an empty row sums one entry of a later row, or
    # the 0 appended, so the largest is that of the nonempty rows
    norm_A = (np.add.reduceat(np.append(np.abs(A0.data), 0.0),
                              A0.indptr[:-1]).max(initial=0.0)
              + np.abs(m).sum())

    def matvec(z):
        return np.append(A0 @ z[:n] + z[n] * c, c @ z[:n])

    def bound(x):
        return max(norm_A * np.abs(x).max(initial=0.0),
                   np.abs(rhs).max(initial=0.0), 1e-30)

    def row_scale(z):
        if not abs_A0:
            abs_A0.append(type(A0)((np.abs(A0.data), A0.indices, A0.indptr),
                                   shape=A0.shape))
        az = np.abs(z)
        s = np.append(abs_A0[0] @ az[:n] + az[n] * abs_c, abs_c @ az[:n])
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
            tried = []                  # z + d and its check, for the last d

            def accept(d):
                zd = z + d
                tried[:] = [zd, check(zd)]
                return tried[1][0]

            # GMRES's last correction is checked: its check is that of the
            # new z.  The reach allows the row scale to double from z to it.
            iterations += _gmres(lambda v: D * matvec(v),
                                 lambda v: factor.solve(v / D), D * r, accept,
                                 MAX_ITERATIONS,
                                 2.0 * np.sqrt(n + 1) * 1e-12 * s.max())[1]
            z, checked = tried
        return z, iterations, checked[0]

    if factor is None:
        factor = LaggedFactor(MAX_ITERATIONS)
    z = factor.solve(lambda: SaddleFactor(A0, c, n_u),
                     lambda f, fresh: refine(f))

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
    return u, p, float(lam), factor
