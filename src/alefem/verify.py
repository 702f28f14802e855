"""Independent numerical oracles for the moving-mesh machinery.

Three families of checks:

* matrix-difference identities: the difference of a domain-dependent
  matrix between two node configurations equals a line integral (in the
  homotopy parameter) of a shape-derivative volume term over the
  intermediate meshes; evaluated here with Gauss quadrature in the
  parameter, which resolves the integrand to machine precision;
* the transport formula: the rate of change of the integral of a
  nodally-carried field under mesh motion equals the integral of the
  field times the divergence of the mesh velocity;
* manufactured solutions on a fixed rectangle and pullback difference
  norms between nested-mesh runs for spatial convergence rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ale
from .ale import harmonic_extension
from .assembly import (
    MATRIX_KINDS,
    PhaseParams,
    assemble,
    field_gradients,
    field_values,
    scalar_field_values,
)
from .fespace import (
    FESpacePair,
    build_scalar_space,
    build_taylor_hood,
    evaluate_at,
    interpolate,
)
from .mesh import Mesh, displace, generate_rect_mesh, geometry, map_points
from .stepper import flow_solve

# Gauss-Legendre points in the homotopy parameter
HOMOTOPY_POINTS = 16


# ---------------------------------------------------------------------------
# matrix-difference (homotopy) identities


def homotopy_identity_residual(mesh_star: Mesh, e_x: np.ndarray, kind: str,
                               u: np.ndarray, v: np.ndarray,
                               params: PhaseParams | None = None,
                               spaces: FESpacePair | None = None) -> float:
    """|LHS - RHS| of the matrix-difference identity for one matrix kind.

    LHS is u^T (K(x* + e_x) - K(x*)) v by two assemblies; for kind C it
    is v^T (C(x* + e_x) - C(x*)) u with v on the pressure space.  RHS is
    the Gauss-Legendre quadrature (in the homotopy parameter) of the
    corresponding shape-derivative volume integral on the intermediate
    meshes x* + theta * e_x, with HOMOTOPY_POINTS points.  spaces (built
    here if None) must be a pair on mesh_star, or ValueError is raised.
    """
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if kind in ("M_rho", "A_mu") and params is None:
        raise ValueError(f"kind {kind} needs phase parameters")
    if spaces is not None and spaces.mesh is not mesh_star:
        raise ValueError("spaces were built on a mesh other than mesh_star")
    if params is None:
        params = PhaseParams(1.0, 1.0, 1.0, 1.0, 1.0)
    spaces = spaces or build_taylor_hood(mesh_star, mesh_star.degree)

    K0 = assemble(kind, spaces, params)
    # through the module, so that a wrapper on ale.spaces_with_mesh sees it
    rebind = ale.spaces_with_mesh
    K1 = assemble(kind, rebind(spaces, displace(mesh_star, e_x)), params)
    if kind == "C":
        lhs = float(v @ (K1 - K0) @ u)
    else:
        lhs = float(u @ (K1 - K0) @ v)

    t, wt = np.polynomial.legendre.leggauss(HOMOTOPY_POINTS)
    thetas = 0.5 * (t + 1.0)
    weights = 0.5 * wt
    rhs = 0.0
    for theta, w in zip(thetas, weights):
        spaces_t = rebind(spaces, displace(mesh_star, theta * e_x))
        rhs += w * _shape_derivative(spaces_t, kind, u, v, e_x, params)
    return abs(lhs - rhs)


def _sym(G):
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def _shape_derivative(spaces, kind, u, v, e_x, params) -> float:
    mesh = spaces.mesh
    geom = geometry(mesh)
    V = spaces.velocity
    Ge = field_gradients(V, e_x, geom)                  # (E, Q, 2, 2)
    div_e = Ge[..., 0, 0] + Ge[..., 1, 1]

    if kind in ("M", "M_rho"):
        uq = field_values(V, u, geom)
        vq = field_values(V, v, geom)
        dens = (uq * vq).sum(axis=2) * div_e
        if kind == "M_rho":
            dens = dens * params.rho_of(mesh.phase)[:, None]
        return float((geom.wdet * dens).sum())

    Gu = field_gradients(V, u, geom)
    if kind == "A":
        Gv = field_gradients(V, v, geom)
        D_e = div_e[..., None, None] * np.eye(2) - 2.0 * _sym(Ge)
        dens = np.einsum("eqij,eqjk,eqik->eq", Gu, D_e, Gv)
        return float((geom.wdet * dens).sum())

    if kind == "A_mu":
        Gv = field_gradients(V, v, geom)
        Du, Dv = _sym(Gu), _sym(Gv)
        t1 = np.einsum("eqij,eqij->eq", Du, Dv) * div_e
        t2 = np.einsum("eqij,eqij->eq", _sym(Gu @ Ge), Dv)
        t3 = np.einsum("eqij,eqij->eq", Du, _sym(Gv @ Ge))
        mu = params.mu_of(mesh.phase)[:, None]
        return float((geom.wdet * 2.0 * mu * (t1 - t2 - t3)).sum())

    # kind == "C": v is the pressure coefficient vector
    pq = scalar_field_values(spaces.pressure, v, geom)
    div_u = Gu[..., 0, 0] + Gu[..., 1, 1]
    dens = (div_u * div_e - np.einsum("eqij,eqji->eq", Gu, Ge)) * pq
    return float((geom.wdet * dens).sum())


# ---------------------------------------------------------------------------
# transport formula


def transport_formula_residual(mesh: Mesh, w: np.ndarray, f: np.ndarray,
                               tau: float) -> float:
    """Difference quotient of a moving-domain integral vs its derivative.

    f holds scalar coefficients on the degree-k nodal space; moving the
    nodes by tau * w while carrying the coefficients makes the exact
    derivative of the integral equal the integral of f * div(w).
    """
    space = build_scalar_space(mesh, mesh.degree)
    geom0 = geometry(mesh)
    mesh1 = displace(mesh, tau * w)
    geom1 = geometry(mesh1)

    f_cells = scalar_field_values(space, f, geom0)
    i0 = float((geom0.wdet * f_cells).sum())
    space1 = build_scalar_space(mesh1, mesh1.degree)
    i1 = float((geom1.wdet * scalar_field_values(space1, f, geom1)).sum())

    Gw = field_gradients(space, w, geom0)
    div_w = Gw[..., 0, 0] + Gw[..., 1, 1]
    rate = float((geom0.wdet * f_cells * div_w).sum())
    return abs((i1 - i0) / tau - rate)


# ---------------------------------------------------------------------------
# convergence rates


def convergence_rate(d_coarse: float, d_fine: float, m: float) -> float:
    """log(d_coarse / d_fine) / log(m) for solution differences on
    nested meshes refined by the factor m."""
    if d_coarse <= 0 or d_fine <= 0:
        raise ValueError("differences must be strictly positive")
    if m <= 1:
        raise ValueError("refinement factor must exceed 1")
    return math.log(d_coarse / d_fine) / math.log(m)


@dataclass
class RateReport:
    h_values: list[float]
    differences: dict[str, list[float]] = field(default_factory=dict)
    rates: dict[str, list[float]] = field(default_factory=dict)

    def compute_rates(self, m: float):
        self.rates = {
            name: [convergence_rate(d[i], d[i + 1], m)
                   for i in range(len(d) - 1)]
            for name, d in self.differences.items()
        }
        return self


# ---------------------------------------------------------------------------
# pullback difference norms between two runs


def pullback_difference_norms(coarse, fine) -> dict[str, float]:
    """H1 (u, w, phi) and L2 (p) norms of run differences on the initial
    configuration.

    Each argument is a dict with keys spaces0, u, w, phi, p; the
    coefficient vectors are the final-time values on the (unremeshed)
    initial connectivity, so evaluating them at reference points of the
    initial mesh realizes the composition with the flow map.  The fine
    run is evaluated at the coarse initial quadrature points by point
    location in the fine initial mesh, phase-matched to the coarse
    element so that gradients never straddle the interface.  The points
    are located once, by the fine mesh's locator; u, w, phi and p are all
    read at those (element, reference point) pairs.
    """
    mesh_c = coarse["spaces0"].mesh
    geom = geometry(mesh_c)
    E, Q = geom.wdet.shape
    Vc, Pc = coarse["spaces0"].velocity, coarse["spaces0"].pressure

    pts = geom.x.reshape(-1, 2)
    phases = np.repeat(mesh_c.phase, Q)
    Vf, Pf = fine["spaces0"].velocity, fine["spaces0"].pressure
    elems_f, ref_f = Vf.mesh.locator().locate(pts, phase=phases)
    vals = Vf.basis_values(ref_f)                       # (n_loc, P)
    _, J, detJ = map_points(Vf.mesh, elems_f, ref_f)
    Jinv = np.stack([J[:, 1, 1], -J[:, 0, 1], -J[:, 1, 0], J[:, 0, 0]],
                    axis=1).reshape(-1, 2, 2) / detJ[:, None, None]
    gphys = np.einsum("lpj,pji->lpi", Vf.basis_gradients(ref_f), Jinv)
    dofs = Vf.dof_of[elems_f]

    wq = geom.wdet.ravel()
    out = {}
    for name in ("u", "w", "phi"):
        val_c = field_values(Vc, coarse[name], geom).reshape(-1, 2)
        grad_c = field_gradients(Vc, coarse[name], geom).reshape(-1, 2, 2)
        cf = fine[name].reshape(-1, 2)[dofs]            # (P, n_loc, 2)
        val_f = np.einsum("lp,plc->pc", vals, cf)
        grad_f = np.einsum("lpi,plc->pci", gphys, cf)
        dv = ((val_c - val_f) ** 2).sum(axis=1)
        dg = ((grad_c - grad_f) ** 2).sum(axis=(1, 2))
        out[name] = math.sqrt(float((wq * (dv + dg)).sum()))

    p_c = scalar_field_values(Pc, coarse["p"], geom).ravel()
    p_f = evaluate_at(Pf, fine["p"], elems_f, ref_f)
    out["p"] = math.sqrt(float((wq * (p_c - p_f) ** 2).sum()))
    return out


# ---------------------------------------------------------------------------
# manufactured solutions on a fixed rectangle


RECT = (0.0, 0.0, 1.0, 2.0)


def study_problem(levels, m) -> str | None:
    """Why a study of that many levels refined by the factor m cannot
    give a rate, or None if it can."""
    if not isinstance(levels, int) or levels < 3:
        return f"need at least 3 levels for a rate estimate, got {levels}"
    if not isinstance(m, int) or m < 2:
        return (f"the refinement factor m must be an integer of at least "
                f"2, got {m}")
    return None


def spatial_convergence_study(config, levels: int = 3, m: int = 2,
                              progress=lambda lvl, i, n: None
                              ) -> RateReport:
    """Nested-mesh sweep of the full two-phase scheme.

    Runs the configuration at mesh sizes h, h/m, ..., compares
    consecutive runs in the pullback norms on the coarser initial mesh,
    and reports one rate per consecutive difference pair.  Requires the
    runs to finish without remeshing (the pullback comparison needs a
    single reference configuration; short-horizon rate studies satisfy
    this).  Raises ValueError before running anything when levels or m
    cannot give a rate (see `study_problem`) or the configuration has no
    step, whose w the study compares.  progress(level, i, n) is
    called before a level's first step (i = 0) and after each of its n.
    """
    from dataclasses import replace

    from .stepper import initialize, step

    problem = study_problem(levels, m)
    if problem is not None:
        raise ValueError(problem)
    if config.n_steps == 0:
        raise ValueError(f"the study needs at least one step, and "
                         f"T={config.T} holds none of tau={config.tau}")
    runs = []
    h_values = []
    for lvl in range(levels):
        cfg = replace(config, h=config.h / m ** lvl)
        h_values.append(cfg.h)
        progress(lvl, 0, cfg.n_steps)
        state = initialize(cfg)
        spaces0 = state.spaces
        for i in range(cfg.n_steps):
            state = step(state, cfg)
            progress(lvl, i + 1, cfg.n_steps)
        if state.remesh_count:
            raise RuntimeError(
                "remeshing occurred during the rate study; shorten T or "
                "refine tau (the pullback comparison needs an unremeshed run)")
        runs.append({
            "spaces0": spaces0,
            "u": state.u,
            "w": state.w,
            "phi": state.mesh.x.copy(),
            "p": state.p,
        })
    report = RateReport(h_values=h_values)
    names = ("u", "w", "phi", "p")
    report.differences = {name: [] for name in names}
    for lvl in range(levels - 1):
        d = pullback_difference_norms(runs[lvl], runs[lvl + 1])
        for name in names:
            report.differences[name].append(d[name])
    return report.compute_rates(m)


def _trig_case(rho, mu):
    pi = math.pi

    def u(x, y):
        return (pi * np.sin(pi * x) ** 2 * np.sin(pi * y / 2)
                * np.cos(pi * y / 2),
                -2 * pi * np.sin(pi * x) * np.cos(pi * x)
                * np.sin(pi * y / 2) ** 2)

    def grad_u(x, y):
        s, c = np.sin(pi * x), np.cos(pi * x)
        return np.array([
            [0.5 * pi ** 2 * np.sin(2 * pi * x) * np.sin(pi * y),
             0.5 * pi ** 2 * s ** 2 * np.cos(pi * y)],
            [-2 * pi ** 2 * np.cos(2 * pi * x) * np.sin(pi * y / 2) ** 2,
             -0.5 * pi ** 2 * np.sin(2 * pi * x) * np.sin(pi * y)],
        ])

    def p(x, y):
        return np.cos(pi * x) * np.sin(pi * y)

    def f(x, y):
        s, c = np.sin(pi * x), np.cos(pi * x)
        S, C = np.sin(pi * y / 2), np.cos(pi * y / 2)
        f1 = pi * (pi ** 2 * mu * (5 * s ** 2 - 2) * S * C
                   + pi ** 2 * rho * s ** 3 * S ** 2 * c
                   - s * np.sin(pi * y))
        f2 = pi * (pi ** 2 * mu * (5 * np.cos(pi * y) - 4) * s * c
                   + 2 * pi ** 2 * rho * s ** 2 * S ** 3 * C
                   + c * np.cos(pi * y))
        return (f1, f2)

    return u, grad_u, p, f


def _poly_case(k, rho, mu):
    if k == 3:
        def u(x, y):
            return (y ** 2, x ** 2)

        def grad_u(x, y):
            return np.array([[0.0, 2 * y], [2 * x, 0.0]])

        def p(x, y):
            return x - 0.5

        def f(x, y):
            return (2 * rho * x ** 2 * y - 2 * mu + 1.0,
                    2 * rho * x * y ** 2 - 2 * mu)
    else:
        def u(x, y):
            return (y * (2.0 - y), 0.0)

        def grad_u(x, y):
            return np.array([[0.0, 2.0 - 2.0 * y], [0.0, 0.0]])

        def p(x, y):
            return x - 0.5

        def f(x, y):
            return (2.0 * mu + 1.0, 0.0)

    return u, grad_u, p, f


def manufactured_flow_errors(k: int, h: float, tau: float, T: float,
                             case: str = "trig"):
    """Run the single-phase scheme (rho = mu = 1) against a known steady
    solution.

    Returns (H1 velocity error, L2 pressure error) at the final time.
    The mesh has no interface, so the mesh velocity vanishes and the
    domain stays fixed; the boundary rows carry the exact velocity.
    """
    rho = mu = 1.0
    exact_u, exact_grad_u, exact_p, force = (
        _trig_case(rho, mu) if case == "trig" else _poly_case(k, rho, mu))
    mesh = generate_rect_mesh(RECT, h, k)
    spaces = build_taylor_hood(mesh, k)
    params = PhaseParams(rho, rho, mu, mu, 1.0)
    geom = geometry(mesh)

    u = interpolate(spaces.velocity, exact_u, vector=True)
    f_nodal = interpolate(spaces.velocity, force, vector=True)
    M = assemble("M", spaces)
    load = M @ f_nodal

    w_max = float(np.abs(harmonic_extension(spaces, u)).max())
    if not w_max < 1e-14:
        raise RuntimeError(f"mesh velocity {w_max:.3e} without interface")
    n = max(1, int(round(T / tau)))
    p = np.zeros(spaces.pressure.n_dofs)
    for _ in range(n):
        u, p = flow_solve(spaces, params, tau, u, transport=u,
                          load=load, boundary_values=u)[:2]

    uq = field_values(spaces.velocity, u, geom)
    gq = field_gradients(spaces.velocity, u, geom)
    X = geom.x
    ue = np.empty_like(uq)
    ge = np.empty_like(gq)
    pe = np.empty_like(geom.wdet)
    for e in range(uq.shape[0]):
        for q in range(uq.shape[1]):
            x, y = X[e, q]
            ue[e, q] = exact_u(x, y)
            ge[e, q] = exact_grad_u(x, y)
            pe[e, q] = exact_p(x, y)
    du = ((uq - ue) ** 2).sum(axis=2)
    dg = ((gq - ge) ** 2).sum(axis=(2, 3))
    err_u = math.sqrt(float((geom.wdet * (du + dg)).sum()))
    pq = scalar_field_values(spaces.pressure, p, geom)
    err_p = math.sqrt(float((geom.wdet * (pq - pe) ** 2).sum()))
    return err_u, err_p
