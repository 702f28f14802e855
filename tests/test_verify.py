import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alefem import stepper
from alefem.fespace import build_taylor_hood
from alefem.mesh import generate_bubble_mesh
from alefem.stepper import SimConfig
from alefem.verify import (
    convergence_rate,
    homotopy_identity_residual,
    manufactured_flow_errors,
    pullback_difference_norms,
    spatial_convergence_study,
    transport_formula_residual,
)

from conftest import BP1, CENTER, RADIUS, RECT, smooth_displacement


@pytest.fixture(scope="module")
def coarse():
    mesh = generate_bubble_mesh(RECT, CENTER, RADIUS, 0.2, 2)
    return mesh, build_taylor_hood(mesh, 2)


def test_homotopy_zero_displacement_exact(coarse):
    mesh, spaces = coarse
    rng = np.random.default_rng(0)
    n_u = 2 * spaces.velocity.n_dofs
    u, v = rng.normal(size=n_u), rng.normal(size=n_u)
    r = homotopy_identity_residual(mesh, np.zeros(n_u), "M", u, v,
                                   spaces=spaces)
    assert r == 0.0


@pytest.mark.parametrize("kind", ["M", "M_rho", "A", "A_mu", "C"])
def test_homotopy_identity_small_residual(coarse, kind):
    mesh, spaces = coarse
    rng = np.random.default_rng(13)
    n_u = 2 * spaces.velocity.n_dofs
    e_x = smooth_displacement(rng, spaces.velocity.positions, 1e-2)
    u = rng.normal(size=n_u)
    nv = spaces.pressure.n_dofs if kind == "C" else n_u
    v = rng.normal(size=nv)
    r = homotopy_identity_residual(mesh, e_x, kind, u, v, params=BP1,
                                   spaces=spaces)
    assert r < 1e-10


def test_homotopy_residual_stays_small_under_scaling(coarse):
    """The identity is exact, not asymptotic: scaling the displacement
    keeps the residual at roundoff."""
    mesh, spaces = coarse
    rng = np.random.default_rng(5)
    n_u = 2 * spaces.velocity.n_dofs
    e_x = smooth_displacement(rng, spaces.velocity.positions, 1e-2)
    u, v = rng.normal(size=n_u), rng.normal(size=n_u)
    for alpha in (0.25, 0.5, 1.0):
        r = homotopy_identity_residual(mesh, alpha * e_x, "A", u, v,
                                       spaces=spaces)
        assert r < 1e-10


def test_homotopy_two_phase_viscosity(coarse):
    mesh, spaces = coarse
    rng = np.random.default_rng(21)
    n_u = 2 * spaces.velocity.n_dofs
    e_x = smooth_displacement(rng, spaces.velocity.positions, 1e-2)
    u, v = rng.normal(size=n_u), rng.normal(size=n_u)
    r = homotopy_identity_residual(mesh, e_x, "A_mu", u, v, params=BP1,
                                   spaces=spaces)
    assert r < 1e-9


def test_transport_zero_velocity(coarse):
    mesh, spaces = coarse
    rng = np.random.default_rng(1)
    f = rng.normal(size=spaces.velocity.n_dofs)
    w = np.zeros(2 * spaces.velocity.n_dofs)
    assert transport_formula_residual(mesh, w, f, 0.01) == 0.0


def test_transport_rigid_translation(coarse):
    mesh, spaces = coarse
    rng = np.random.default_rng(2)
    f = rng.normal(size=spaces.velocity.n_dofs)
    w = np.tile([0.05, -0.02], spaces.velocity.n_dofs)
    assert transport_formula_residual(mesh, w, f, 0.01) < 1e-12


def test_transport_first_order_decay(coarse):
    mesh, spaces = coarse
    rng = np.random.default_rng(3)
    w = smooth_displacement(rng, spaces.velocity.positions, 0.1)
    f = rng.normal(size=spaces.velocity.n_dofs)
    res = [transport_formula_residual(mesh, w, f, tau)
           for tau in (0.02, 0.01, 0.005, 0.0025)]
    orders = [math.log2(res[i] / res[i + 1]) for i in range(3)]
    assert all(0.9 <= o <= 1.1 for o in orders)


def test_convergence_rate_arithmetic():
    assert convergence_rate(4e-2, 1e-2, 2) == pytest.approx(2.0)
    assert convergence_rate(8e-3, 1e-3, 2) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        convergence_rate(0.0, 1e-3, 2)
    with pytest.raises(ValueError):
        convergence_rate(1e-2, 1e-3, 1)


def test_convergence_study_without_a_step_runs_nothing(monkeypatch):
    """A study compares the w of each level's last step, so a
    configuration with T=0 is rejected, naming T and tau, before any
    level starts."""
    started = []
    monkeypatch.setattr(stepper, "initialize", started.append)
    config = SimConfig(params=BP1, k=2, h=0.2, tau=0.005, T=0.0)
    with pytest.raises(ValueError, match=r"T=0\.0 .* tau=0\.005"):
        spatial_convergence_study(config)
    assert started == []


@given(scale=st.floats(min_value=1e-6, max_value=1e6),
       d1=st.floats(min_value=1e-8, max_value=1.0),
       ratio=st.floats(min_value=1.1, max_value=100.0))
@settings(max_examples=50, deadline=None)
def test_convergence_rate_scale_invariant(scale, d1, ratio):
    d2 = d1 / ratio
    r1 = convergence_rate(d1, d2, 2)
    r2 = convergence_rate(scale * d1, scale * d2, 2)
    assert r1 == pytest.approx(r2, rel=1e-9)


def test_manufactured_polynomial_reproduction():
    for k in (2, 3):
        eu, ep = manufactured_flow_errors(k, 0.25, 0.05, 0.5, case="poly")
        assert eu < 1e-9
        assert ep < 1e-9


def test_manufactured_forcing_consistent_with_fields():
    """Finite-difference check that the hard-coded trig forcing solves
    the steady momentum equation for the hard-coded exact fields."""
    from alefem.verify import _trig_case

    rho, mu = 1.3, 0.7
    u, grad_u, p, f = _trig_case(rho, mu)
    rng = np.random.default_rng(4)
    e1 = 1e-5   # first differences
    e2 = 1e-4   # second differences need a wider stencil against roundoff
    for _ in range(25):
        x, y = rng.uniform(0.1, 0.9), rng.uniform(0.1, 1.9)
        gu = np.array(grad_u(x, y))
        fd = np.array([
            [(u(x + e1, y)[i] - u(x - e1, y)[i]) / (2 * e1) for i in (0, 1)],
            [(u(x, y + e1)[i] - u(x, y - e1)[i]) / (2 * e1) for i in (0, 1)],
        ]).T
        assert np.abs(gu - fd).max() < 1e-7
        lap = np.array([
            (u(x + e2, y)[i] + u(x - e2, y)[i] + u(x, y + e2)[i]
             + u(x, y - e2)[i] - 4 * u(x, y)[i]) / e2 ** 2
            for i in (0, 1)])
        gp = np.array([(p(x + e1, y) - p(x - e1, y)) / (2 * e1),
                       (p(x, y + e1) - p(x, y - e1)) / (2 * e1)])
        conv = gu @ np.array(u(x, y))
        resid = rho * conv - mu * lap + gp - np.array(f(x, y))
        assert np.abs(resid).max() < 2e-5


def test_pullback_norms_of_a_run_against_itself_and_shifted_copies(
        coarse, monkeypatch):
    """A run against itself differs by roundoff; a pressure shifted by c
    differs by |c| sqrt(|RECT|) in L2, a velocity shifted by (a, b) by
    sqrt(|RECT| (a^2 + b^2)) in H1.  Each call locates the coarse
    quadrature points once."""
    from alefem import fespace

    mesh, spaces = coarse
    rng = np.random.default_rng(21)
    V, P = spaces.velocity.positions, spaces.pressure.positions
    # a run's final fields, smooth and O(1)
    run = {"mesh0": mesh, "spaces0": spaces,
           "u": smooth_displacement(rng, V, 1.0),
           "w": smooth_displacement(rng, V, 1.0),
           "phi": mesh.x + smooth_displacement(rng, V, 1e-2),
           "p": smooth_displacement(rng, P, 1.0)[::2]}
    zero = {**run, **{name: np.zeros_like(run[name])
                      for name in ("u", "w", "phi", "p")}}
    scale = pullback_difference_norms(run, zero)
    calls = []
    original = fespace.PointLocator.locate

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(fespace.PointLocator, "locate", counting)
    same = pullback_difference_norms(run, run)
    assert len(calls) == 1
    for name, value in same.items():
        assert value <= 1e-12 * scale[name], name

    area = (RECT[2] - RECT[0]) * (RECT[3] - RECT[1])
    c, a, b = -0.75, 0.3, -0.4
    shifted = pullback_difference_norms(run, {**run, "p": run["p"] + c})
    assert shifted["p"] == pytest.approx(abs(c) * math.sqrt(area), rel=1e-12)
    assert all(shifted[name] == same[name] for name in ("u", "w", "phi"))
    moved = {**run, "u": run["u"] + np.tile([a, b], spaces.velocity.n_dofs)}
    shifted = pullback_difference_norms(run, moved)
    assert shifted["u"] == pytest.approx(math.sqrt(area * (a * a + b * b)),
                                         rel=1e-12)
    assert all(shifted[name] == same[name] for name in ("w", "phi", "p"))
