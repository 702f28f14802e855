import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from alefem import ale, linalg
from alefem.assembly import PhaseParams, assemble, pressure_mean_vector
from alefem.fespace import build_taylor_hood
from alefem.linalg import LaggedFactor
from alefem.mesh import fit_interface_mesh, geometry, quality
from alefem.stepper import (
    SimConfig,
    State,
    initialize,
    record_state,
    run,
    step,
)
from alefem.ale import harmonic_extension

from conftest import BP1, CENTER, RADIUS, RECT


def tiny_config(**kw):
    defaults = dict(params=BP1, k=2, h=0.16, tau=1.0 / 200.0, T=0.01)
    defaults.update(kw)
    return SimConfig(**defaults)


def test_initialize_benchmark_observables():
    cfg = tiny_config(h=0.04)
    state = initialize(cfg)
    rec = record_state(state, cfg)
    assert rec.rise_velocity == 0.0
    assert rec.circularity == pytest.approx(1.0, abs=1e-4)
    assert rec.center_of_mass[0] == pytest.approx(0.5, abs=1e-10)
    assert rec.center_of_mass[1] == pytest.approx(0.5, abs=1e-10)


def test_zero_gravity_is_fixed_point():
    params = PhaseParams(1.0, 1.0, 1.0, 1.0, 1e-300)
    cfg = tiny_config(params=params, tau=0.01)
    state = initialize(cfg)
    x0 = state.mesh.x.copy()
    for _ in range(3):
        state = step(state, cfg)
    assert np.abs(state.u).max() < 1e-250
    assert np.abs(state.mesh.x - x0).max() < 1e-250


def hydrostatic_setup(h=0.16, k=2):
    """Equal phases on a straight-interface fitted mesh; the hydrostatic
    pair is exactly representable there."""
    n = max(8, round(2 * math.pi * RADIUS / h))
    theta = 2 * np.pi * np.arange(n) / n
    ring = np.column_stack([CENTER[0] + RADIUS * np.cos(theta),
                            CENTER[1] + RADIUS * np.sin(theta)])
    mesh = fit_interface_mesh(RECT, ring, h, k)
    params = PhaseParams(5.0, 5.0, 2.0, 2.0, 0.98)
    cfg = SimConfig(params=params, k=k, h=h, tau=0.01, T=1.0)
    spaces = build_taylor_hood(mesh, k)
    u = np.zeros(2 * spaces.velocity.n_dofs)
    state = State(t=0.0, mesh=mesh, spaces=spaces, u=u,
                  p=np.zeros(spaces.pressure.n_dofs),
                  factor=LaggedFactor(linalg.MAX_ITERATIONS),
                  harmonic_factor=LaggedFactor(ale.MAX_ITERATIONS))
    return state, cfg, params


def test_hydrostatic_equilibrium():
    state, cfg, params = hydrostatic_setup()
    for _ in range(10):
        state = step(state, cfg)
    assert np.abs(state.u).max() < 1e-9
    # pressure matches -rho g y + const
    P = state.spaces.pressure
    expect = -params.rho_plus * params.g * P.positions[:, 1]
    diff = state.p - expect
    assert diff.max() - diff.min() < 1e-9


def test_step_order_and_weak_incompressibility():
    cfg = tiny_config()
    state = initialize(cfg)
    for _ in range(3):
        state = step(state, cfg)
    C = assemble("C", state.mesh, state.spaces)
    assert np.abs(C @ state.u).max() < 1e-9
    m = pressure_mean_vector(state.mesh, state.spaces)
    assert abs(m @ state.p) < 1e-10


def test_interface_moves_lagrangian_bitwise():
    cfg = tiny_config()
    state = initialize(cfg)
    state = step(state, cfg)       # develop a nonzero velocity
    u = state.u
    mesh = state.mesh
    spaces = state.spaces
    w = harmonic_extension(mesh, spaces, u)
    nxt = step(state, cfg)
    iv = spaces.vector_dofs(spaces.interface_dofs)
    lagr = mesh.x[iv] + cfg.tau * u[iv]
    assert np.array_equal(nxt.mesh.x[iv], lagr)


def test_rise_velocity_positive_after_ten_steps():
    cfg = tiny_config(h=0.1, T=10 / 200)
    state = initialize(cfg)
    for _ in range(10):
        state = step(state, cfg)
    rec = record_state(state, cfg)
    assert rec.rise_velocity > 0.0
    assert rec.kinetic_energy > 0.0


def test_run_t_zero_gives_initial_record_only():
    cfg = tiny_config(T=0.0)
    state, records = run(cfg)
    assert len(records) == 1
    assert records[0].t == 0.0


def test_run_two_steps_two_records_past_initial():
    cfg = tiny_config(T=2.0 / 200.0)
    state, records = run(cfg)
    assert len(records) == 3
    ts = [r.t for r in records]
    assert ts == sorted(ts)
    assert state.t == pytest.approx(2.0 / 200.0)


def test_records_strictly_increasing_and_deterministic():
    cfg = tiny_config(T=3.0 / 200.0)
    _, rec1 = run(cfg)
    _, rec2 = run(cfg)
    rows1 = [r.csv_row() for r in rec1]
    rows2 = [r.csv_row() for r in rec2]
    assert rows1 == rows2


def test_factor_reuse_matches_refactoring_every_step():
    cfg = tiny_config(T=20 / 200)
    # two runs, so that neither steps on the other's lagged factors
    reuse, refactor = initialize(cfg), initialize(cfg)
    a, b = [], []
    made = 0
    for _ in range(20):
        reuse = step(reuse, cfg)
        fresh = LaggedFactor(linalg.MAX_ITERATIONS)
        refactor = step(replace(refactor, factor=fresh), cfg)
        made += fresh.factorizations
        a.append(np.hstack(astuple(record_state(reuse, cfg))))
        b.append(np.hstack(astuple(record_state(refactor, cfg))))
    # relative to each observable's largest magnitude over the run
    scale = np.maximum(np.abs(b).max(axis=0), 1e-300)
    assert (np.abs(np.array(a) - b) / scale).max() <= 1e-10
    assert reuse.factor.factorizations < made == 20


def test_one_geometry_table_per_step(monkeypatch):
    """A step without a remesh, followed by its record, builds the
    geometry table of the moved mesh and nothing else."""
    from alefem.mesh import GeometryTables

    cfg = tiny_config()
    state = initialize(cfg)
    record_state(state, cfg)
    built = []
    original = GeometryTables.__init__

    def counting(self, mesh):
        built.append(mesh)
        original(self, mesh)

    monkeypatch.setattr(GeometryTables, "__init__", counting)
    nxt = step(state, cfg)
    record_state(nxt, cfg)
    assert nxt.remesh_count == 0
    assert len(built) == 1 and built[0] is nxt.mesh


def test_interleaved_runs_build_each_table_and_map_once(monkeypatch):
    """Three configurations stepped in turn, as a lockstep study steps its
    levels, build one geometry table per mesh configuration and one set
    of index maps per DOF numbering: stepping one evicts nothing of the
    others.  A step releases the table of the mesh it leaves, so each
    state keeps one table alive."""
    import gc
    import weakref

    from alefem import assembly
    from alefem.mesh import GeometryTables

    built, tables = [], []
    for cls in (GeometryTables, assembly.DofMaps, assembly.Pattern,
                assembly.Gather):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__):
            built.append((_name, args[0]))
            if _name == "GeometryTables":
                tables.append(weakref.ref(self))
            _original(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    configs = [tiny_config(), tiny_config(k=3), tiny_config(h=0.2)]
    states = [initialize(cfg) for cfg in configs]
    assert [name for name, _ in built].count("DofMaps") == 3
    del built[:]
    moved = []
    for _ in range(3):
        for i, cfg in enumerate(configs):
            states[i] = step(states[i], cfg)
            record_state(states[i], cfg)
            moved.append(states[i].mesh)
    assert [state.remesh_count for state in states] == [0, 0, 0]
    gc.collect()
    assert sum(table() is not None for table in tables) == len(states)
    tables = [mesh for name, mesh in built if name == "GeometryTables"]
    assert len(tables) == len(moved)
    assert all(a is b for a, b in zip(tables, moved))
    # per numbering: scalar and divergence patterns, saddle and interior
    # gathers; no step gathers a vector matrix of one scalar matrix or of
    # four blocks
    assert sorted(name for name, _ in built if name != "GeometryTables") \
        == ["Gather"] * 6 + ["Pattern"] * 6
    for state in states:
        assert not {"interleaved", "blocks"} & vars(state.spaces.maps).keys()


def test_record_state_evaluates_velocity_once(monkeypatch):
    """record_state shares u at the quadrature points and the interface
    length between observables, and equals them computed one by one."""
    from alefem import observables as obs

    cfg = tiny_config()
    state = step(initialize(cfg), cfg)
    calls = []
    original = obs.field_values

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(obs, "field_values", counting)
    rec = record_state(state, cfg)
    assert len(calls) == 1
    monkeypatch.undo()

    mesh, V, u = state.mesh, state.spaces.velocity, state.u
    geom = geometry(mesh)
    uq = obs.field_values(V, u, geom)
    kin, pot, tot = obs._energy(mesh, geom, uq, cfg.params)
    bubble = obs._bubble(mesh, geom)
    area, length = float(bubble[2]), obs.interface_length(mesh)
    assert astuple(rec) == astuple(obs.BenchmarkRecord(
        t=state.t,
        circularity=obs._circularity(area, length),
        center_of_mass=(obs._bubble_mean(bubble, geom.x[..., 0]),
                        obs._bubble_mean(bubble, geom.x[..., 1])),
        rise_velocity=obs._bubble_mean(bubble, uq[..., 1]),
        kinetic_energy=kin,
        potential_energy=pot,
        total_energy=tot,
        area_minus=area,
        interface_length=length,
        min_angle=quality(mesh).min_angle,
        remesh_count=state.remesh_count,
    ))
