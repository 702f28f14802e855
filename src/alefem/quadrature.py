"""Gauss quadrature on the reference triangle and the reference edge.

The reference triangle is K = {(x, y) : x >= 0, y >= 0, x + y <= 1}
(measure 1/2), the reference edge is [0, 1].  Triangle rules collapse a
tensor Gauss-Legendre grid onto the triangle (Duffy transform), exact to
the requested total degree with machine-precision weights, and average
it over the triangle's three rotations.  The rotations add no polynomial
exactness.  They are kept for the one rational integrand, the gradient
Gram (1/det J on curved elements), which the benchmark's references pin:
at h=0.08, seed 0, dropping them moved the pre-remesh rise velocity by
5.3e-8 and the circularity by 2.8e-8 of their scales (tolerance 1e-8),
while moving only the polynomial forms (mass, convection, divergence,
load, pressure mean) to the first rotation's points kept 2.0e-10.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_DEGREE = 12


@dataclass(frozen=True)
class QuadRule:
    """Positive quadrature rule with guaranteed polynomial exactness."""

    points: np.ndarray   # (n, dim) reference coordinates
    weights: np.ndarray  # (n,) positive, summing to the reference measure

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.weights)


def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def triangle_rule(exact_degree: int) -> QuadRule:
    """Symmetric rule on the reference triangle, exact for total degree
    <= exact_degree; each of its three rotations is exact alone."""
    if not 0 <= exact_degree <= MAX_DEGREE:
        raise ValueError(
            f"triangle rule supports degrees 0..{MAX_DEGREE}, got {exact_degree}"
        )
    d = max(exact_degree, 1)
    # Collapsed coordinates: x = a, y = b*(1-a). The pullback integrand of a
    # degree-d polynomial has degree d+1 in a (Jacobian factor 1-a) and d in b.
    na = (d + 1) // 2 + 1
    nb = d // 2 + 1
    a, wa = _gauss01(na)
    b, wb = _gauss01(nb)
    A, B = np.meshgrid(a, b, indexing="ij")
    x = A.ravel()
    y = (B * (1.0 - A)).ravel()
    w = (np.outer(wa * (1.0 - a), wb)).ravel()
    # Average over the three rotations (x,y) -> (y,1-x-y) -> (1-x-y,x) so the
    # rule treats the triangle's vertices symmetrically.
    pts = np.concatenate(
        [
            np.column_stack([x, y]),
            np.column_stack([y, 1.0 - x - y]),
            np.column_stack([1.0 - x - y, x]),
        ]
    )
    wts = np.concatenate([w, w, w]) / 3.0
    return QuadRule(points=pts, weights=wts)


@lru_cache(maxsize=None)
def edge_rule(exact_degree: int) -> QuadRule:
    """Gauss-Legendre rule on [0, 1], exact for degree <= exact_degree."""
    if not 0 <= exact_degree <= 2 * MAX_DEGREE:
        raise ValueError(
            f"edge rule supports degrees 0..{2 * MAX_DEGREE}, got {exact_degree}"
        )
    n = exact_degree // 2 + 1
    s, w = _gauss01(n)
    return QuadRule(points=s.reshape(-1, 1), weights=w)


def triangle_monomial_integral(a: int, b: int) -> float:
    """Exact value of the monomial integral of x^a y^b over the reference
    triangle: a! b! / (a + b + 2)!."""
    from math import factorial

    return factorial(a) * factorial(b) / factorial(a + b + 2)
