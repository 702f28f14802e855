"""The remesh corpus: the old interface curves that the BP1 runs to T=3
hand to their remeshes (tests/data/remesh_corpus.npz, written by
tests/make_remesh_corpus.py), redistributed and fitted at their h and k.

Today two fits raise, since their meshes sample a negative scaled
Jacobian: the last curves of k=2 at h=0.08 (step 417, -1.325) and of
k=3 at h=0.08 (step 313, -0.220).  Three fits come back inverted at an
element vertex although `quality` samples det J above 0 at every
quadrature point.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from alefem.ale import _redistribute
from alefem.mesh import (
    MeshGenerationError,
    fit_interface_mesh,
    map_points,
    quality,
)
from alefem.reference import edge_element

from conftest import RECT

CORPUS = Path(__file__).parent / "data" / "remesh_corpus.npz"

# (run, step) of the fits that are inverted at a vertex; `quality` takes
# det J at quadrature points, a sample and not a bound (ROADMAP item 19)
INVERTED = {("k2_h04", 453), ("k3_h04", 319), ("k3_h04", 374)}


def load_corpus():
    """(run, step, h, k, curve) of every curve in the corpus."""
    with np.load(CORPUS) as f:
        return [(str(run), int(step), float(h), int(k), f[f"curve_{j:02d}"])
                for j, (run, step, h, k)
                in enumerate(zip(f["run"], f["step"], f["h"], f["k"]))]


CURVES = load_corpus()


def cases(curves, marked=False):
    for run, step, h, k, curve in curves:
        marks = ()
        if marked and (run, step) in INVERTED:
            marks = pytest.mark.xfail(strict=True, reason=(
                "the fit is inverted at a vertex while its quadrature "
                "sample is positive (ROADMAP item 19)"))
        yield pytest.param(h, k, curve, id=f"{run}-{step}", marks=marks)


def test_corpus_holds_closed_curves():
    assert len(CURVES) == 22
    for run, step, h, k, curve in CURVES:
        assert curve.shape[1:] == (k + 1, 2)
        # segment i ends where segment i + 1 starts
        assert np.array_equal(curve[:, -1], np.roll(curve[:, 0], -1, axis=0))


def cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def vertex_jacobian(mesh) -> float:
    """Least det J / (2 x straight area) at the element vertices."""
    E = mesh.n_elements
    corners = np.tile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], (E, 1))
    detJ = map_points(mesh, np.repeat(np.arange(E), 3), corners)[2]
    a, b, c = np.moveaxis(mesh.coords[mesh.elements[:, :3]], 1, 0)
    area2 = np.abs(cross(b - a, c - a))
    return float((detJ.reshape(E, 3) / area2[:, None]).min())


@pytest.mark.parametrize("h, k, curve", cases(CURVES, marked=True))
def test_fit_is_valid_or_raises(h, k, curve):
    """The fit of a redistributed curve either raises MeshGenerationError
    or beats the remesh angle with det J positive at every vertex."""
    ring, segment_curve = _redistribute(curve, h)
    try:
        mesh = fit_interface_mesh(RECT, ring, h, k,
                                  segment_curve=segment_curve)
    except MeshGenerationError:
        return
    assert quality(mesh).min_angle > math.pi / 18
    assert vertex_jacobian(mesh) > 0.0


def turning(curve) -> float:
    """The largest turn of the old ring at a vertex, in radians."""
    chord = np.roll(curve[:, 0], -1, axis=0) - curve[:, 0]
    ahead = np.roll(chord, -1, axis=0)
    return float(np.abs(np.arctan2(cross(chord, ahead),
                                   (chord * ahead).sum(axis=1))).max())


# the curves whose ring turns by more than 45 degrees at a vertex, at the
# tips of the bubble's skirt
SKIRT_TIPS = [c for c in CURVES if turning(c[4]) > math.radians(45)]


def nearest_on_curve(curve, pts):
    """(distance, segment, parameter) of the point of the degree-k curve
    nearest to each point: the best over the segments of a Gauss-Newton
    on the parameter, started from the nearest of 65 samples."""
    basis = edge_element(curve.shape[1] - 1)
    s = np.linspace(0.0, 1.0, 65)
    samples = np.einsum("ls,nli->nsi", basis.shape_values(s), curve)
    t = s[np.linalg.norm(samples[:, :, None] - pts, axis=3).argmin(axis=1)]
    seg = np.broadcast_to(np.arange(len(curve))[:, None], t.shape).ravel()
    t, pts = t.ravel(), np.tile(pts, (len(curve), 1))
    for _ in range(8):
        x = np.einsum("lp,pli->pi", basis.shape_values(t), curve[seg])
        dx = np.einsum("lp,pli->pi", basis.shape_derivatives(t), curve[seg])
        t = np.clip(t - ((x - pts) * dx).sum(axis=1) / (dx * dx).sum(axis=1),
                    0.0, 1.0)
    x = np.einsum("lp,pli->pi", basis.shape_values(t), curve[seg])
    dist = np.linalg.norm(x - pts, axis=1).reshape(len(curve), -1)
    best = (dist.argmin(axis=0), np.arange(dist.shape[1]))
    return (dist[best], seg.reshape(dist.shape)[best],
            t.reshape(dist.shape)[best])


def arc_length(curve, seg, t):
    """The arc length from the curve's start to parameter t of segment
    seg, by 24-point Gauss-Legendre quadrature of the speed."""
    basis = edge_element(curve.shape[1] - 1)
    x, w = np.polynomial.legendre.leggauss(24)

    def integral(i, b):                 # of the speed of segments i on [0, b]
        s = b[:, None] * (x + 1.0) / 2.0
        d = basis.shape_derivatives(s.ravel()).reshape(-1, *s.shape)
        v = np.einsum("lpq,pli->pqi", d, curve[i])
        return (np.linalg.norm(v, axis=2) * w).sum(axis=1) * b / 2.0

    n = len(curve)
    start = np.concatenate([[0.0], np.cumsum(integral(np.arange(n),
                                                      np.ones(n)))])
    return start[seg] + integral(seg, t)


def polyline_length(curve, samples: int) -> float:
    """Length of the polyline through samples points per segment."""
    s = np.linspace(0.0, 1.0, samples + 1)[:-1]
    basis = edge_element(curve.shape[1] - 1).shape_values(s)
    pts = np.einsum("ls,nli->nsi", basis, curve).reshape(-1, 2)
    return float(np.linalg.norm(np.roll(pts, -1, axis=0) - pts,
                                axis=1).sum())


def test_the_corpus_has_skirt_tips():
    assert len(SKIRT_TIPS) == 10
    assert max(turning(c[4]) for c in SKIRT_TIPS) > math.radians(90)


@pytest.mark.parametrize("h, k, curve", cases(SKIRT_TIPS))
def test_redistribute_keeps_the_curve_and_evens_the_arcs(h, k, curve):
    """Around the skirt tips too, the new ring's vertices and its
    segments' points lie on the old curve, and its max(3, round(L / h))
    segments have equal arc length within the error of the polyline
    `_redistribute` measures arc length on."""
    ring, segment_curve = _redistribute(curve, h)
    dist, seg, t = nearest_on_curve(curve, ring)
    assert dist.max() < 1e-13
    n = len(ring)
    pts = segment_curve(np.arange(n)[:, None], np.linspace(0.0, 1.0, 9))
    assert nearest_on_curve(curve, pts.reshape(-1, 2))[0].max() < 1e-13
    # the segments join at the ring's vertices
    assert np.abs(pts[:, 0] - ring).max() < 1e-15
    assert np.abs(pts[:, -1] - np.roll(ring, -1, axis=0)).max() < 1e-15

    length = float(arc_length(curve, np.array([len(curve) - 1]),
                              np.ones(1))[0])
    error = length - polyline_length(curve, 64)
    assert n == max(3, round(length / h))
    # ring[0] is the curve's start, where nearest_on_curve may find its end
    at = np.append(arc_length(curve, seg, t)[1:], length)
    arcs = np.diff(at, prepend=0.0)
    assert np.abs(arcs - length / n).max() <= error
