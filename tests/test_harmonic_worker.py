"""The contract of the harmonic extension that a step hands on to the
next one.

A step reads A_mu and the moved mesh's Laplacian off one gradient Gram
and, unless it remeshed, extends its new u on that Laplacian and the
lagged harmonic factor of the numbering (`ale.extend`), by CG from the
w it moved by; the state it makes carries that extension as its w and
the run's lagged harmonic factor (a `linalg.LaggedFactor`) as its
harmonic_factor, and the next step moves the mesh by that w.  The first
step of a numbering extends by a direct solve, whose factor the lagged
factor then keeps.  These tests pin what that hand-over may and may not
do: hold at most one factor and free each one, extend only on the
state's own mesh, solve directly only in the first step of a numbering,
factor once in that step, form one Gram per configuration, keep a
state's u and w fixed, start over after a remesh, and do all of it, the
geometry table built in chunks included, on the calling thread, raising
its errors in the step that makes them.
"""

import gc
import threading
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from alefem import ale, assembly, stepper, verify
from alefem import mesh as meshmod
from alefem.ale import advance_mesh, harmonic_extension
from alefem.assembly import assemble
from alefem.fespace import build_taylor_hood
from alefem.mesh import generate_bubble_mesh, generate_rect_mesh, quality
from alefem.stepper import SimConfig, initialize, run, step
from alefem.verify import spatial_convergence_study

from conftest import BP1, CENTER, RADIUS, RECT

TAU = 1.0 / 200.0


def config(steps: int) -> SimConfig:
    return SimConfig(params=BP1, k=2, h=0.16, tau=TAU, T=steps * TAU)


def remesh_config() -> SimConfig:
    """Six steps at h=0.12 with a threshold just below the initial mesh's
    minimum angle, so that step 2 remeshes once."""
    angle = quality(generate_bubble_mesh(RECT, CENTER, RADIUS, 0.12, 2)
                    ).min_angle
    return SimConfig(params=BP1, k=2, h=0.12, tau=TAU, T=6 * TAU,
                     remesh_angle=angle - 1e-6)


class Factor:
    """A SuperLU factor that logs the thread that made it and the one
    that released it."""

    def __init__(self, lu, log):
        self._lu = lu
        self._log = log
        log.append(("made", id(self), threading.get_ident()))

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def __del__(self):
        self._log.append(("freed", id(self), threading.get_ident()))


def logged_factors(monkeypatch):
    log = []
    original = ale.spilu
    monkeypatch.setattr(ale, "spilu",
                        lambda *a, **kw: Factor(original(*a, **kw), log))
    return log


def test_factors_are_freed_by_the_thread_that_made_them(monkeypatch):
    """Every factor of a run, and of two steps from one state, is made
    and freed on the calling thread, and none outlives its states."""
    log = logged_factors(monkeypatch)
    run(config(4))
    # a branch: two steps from one state both take its w, the extension
    # that state's step made, so they move the mesh alike
    cfg = config(4)
    state = step(initialize(cfg), cfg)
    first, second = step(state, cfg), step(state, cfg)
    assert np.array_equal(first.mesh.x, second.mesh.x)
    del state, first, second
    gc.collect()
    made = {key: tid for event, key, tid in log if event == "made"}
    freed = {key: tid for event, key, tid in log if event == "freed"}
    assert made and freed == made
    assert set(made.values()) == {threading.main_thread().ident}


def test_one_harmonic_factor_is_alive_at_a_time(monkeypatch):
    """Through a remesh, with a cap of 1, so that every extension by CG
    on a factor of an earlier configuration overruns and the next
    extension refactors: at no time are two harmonic factors alive, and
    each is freed before the next is made, on the thread that made it."""
    log = logged_factors(monkeypatch)
    monkeypatch.setattr(ale, "MAX_ITERATIONS", 1)
    state, _ = run(remesh_config())
    assert state.remesh_count == 1
    del state
    gc.collect()
    alive, threads = set(), {}
    for event, key, tid in log:
        if event == "made":
            assert not alive
            alive.add(key)
            threads[key] = tid
        else:
            alive.remove(key)
            assert threads[key] == tid
    assert not alive
    # per numbering (steps 1 and 3): the direct extension, whose factor
    # the numbering lags; then the extensions of steps 4 and 6 refactor,
    # after the CG extensions of steps 3 and 5 overran.  Step 1 extends
    # on the mesh that the zero initial velocity left in place, the one
    # its factor is of, so it does not overrun.
    assert sum(event == "made" for event, _, _ in log) == 1 + 1 + 2


def test_prepared_operator_is_used_only_on_its_own_mesh():
    """A step moves by the w of its state, the extension of the state's u
    on the state's mesh (by CG on the lagged factor, to 1e-12 of the
    direct extension there), never by one on another mesh."""
    cfg = config(3)
    state = step(initialize(cfg), cfg)
    # both calls take state.w; by the second, the first call's result
    # has extended on its own mesh with the same lagged factor
    for _ in range(2):
        moved = step(state, cfg)
        assert moved.remesh_count == 0
        w = state.w
        expect = advance_mesh(state.mesh.x, w, TAU)
        assert moved.mesh.x.tobytes() == expect.tobytes()
        direct = harmonic_extension(state.mesh, state.spaces, state.u)
        elsewhere = harmonic_extension(moved.mesh, moved.spaces, state.u)
        scale = np.abs(direct).max()
        assert np.abs(w - direct).max() <= 1e-12 * scale
        assert np.abs(w - elsewhere).max() > 1e-6 * scale


def counted_extensions(monkeypatch, *modules):
    """The calls of `ale.harmonic_extension` through each module's name
    for it, as (module, thread), in call order."""
    calls = []
    for module in modules:
        original = module.harmonic_extension

        def counting(*args, original=original, name=module.__name__):
            calls.append((name, threading.current_thread()))
            return original(*args)

        monkeypatch.setattr(module, "harmonic_extension", counting)
    return calls


def test_only_the_first_step_extends_on_the_calling_thread(monkeypatch):
    """Every step but the first takes the w that the step before made
    (`State.w`): the run extends by a direct solve once, on the calling
    thread, and factors once, for that solve; the factor is the lagged
    factor of the numbering, which every later step reuses."""
    calls = counted_extensions(monkeypatch, stepper)
    log = logged_factors(monkeypatch)
    seen = []
    state, _ = run(config(4), sinks=[
        lambda i, state, rec: seen.append((i, len(calls)))])
    assert state.remesh_count == 0
    assert seen == [(0, 0), (1, 1), (2, 1), (3, 1), (4, 1)]
    assert calls == [("alefem.stepper", threading.main_thread())]
    assert sum(event == "made" for event, _, _ in log) == 1


def test_first_step_of_a_numbering_factors_once(monkeypatch):
    """The first step of each numbering, step 1 and the step after the
    remesh at step 2, makes exactly one harmonic factor: its direct
    extension's, which its own CG extension then lags."""
    log = logged_factors(monkeypatch)
    made = []
    state, _ = run(remesh_config(), sinks=[lambda i, state, rec: made.append(
        sum(event == "made" for event, _, _ in log))])
    assert state.remesh_count == 1
    per_step = np.diff(made).tolist()
    assert per_step[0] == 1 and per_step[2] == 1


def test_convergence_study_extends_once_per_level(monkeypatch):
    """The study's final w is the extension its last step made, so each
    level extends by a direct solve only in its first step."""
    calls = counted_extensions(monkeypatch, stepper, verify)
    report = spatial_convergence_study(config(2), levels=3, m=2)
    assert len(report.h_values) == 3
    assert calls == [("alefem.stepper", threading.main_thread())] * 3


def test_state_is_frozen_and_its_velocity_read_only():
    """w of a state is the extension of its u on its mesh: neither can
    change after the step that made it made w."""
    cfg = config(1)
    state = step(initialize(cfg), cfg)
    assert state.w is not None
    with pytest.raises(ValueError, match="read-only"):
        state.u[::7] *= 1.5
    with pytest.raises(FrozenInstanceError):
        state.u = state.u * 1.5
    with pytest.raises(FrozenInstanceError):
        state.w = None


def test_one_cpu_builds_every_operator_on_the_calling_thread(monkeypatch):
    """Every factor and every Gram of a run is made on the calling
    thread, on any number of CPUs: one factor (the first step's direct
    extension's, the lagged factor of its numbering) and five Grams."""
    factors, grams = [], []
    spilu, gram = ale.spilu, assembly._gram_local

    def spy_spilu(*args, **kwargs):
        factors.append(threading.current_thread())
        return spilu(*args, **kwargs)

    def spy_gram(*args):
        grams.append(threading.current_thread())
        return gram(*args)

    monkeypatch.setattr(ale, "spilu", spy_spilu)
    monkeypatch.setattr(assembly, "_gram_local", spy_gram)
    state, _ = run(config(4))
    assert state.remesh_count == 0
    assert factors == [threading.main_thread()]
    assert grams == [threading.main_thread()] * 5


def test_one_gram_per_configuration(monkeypatch):
    """Each step reads A_mu and the mesh Laplacian off one gradient Gram
    (`assembly.viscous_and_laplacian`), and its extension gets that
    Laplacian: four steps form five Grams, one for the first step's
    direct extension, whose factor the later extensions lag, and one per
    flow solve."""
    grams, extended = [], []
    original = assembly._gram_local

    def gram(*args):
        grams.append(args[1])
        return original(*args)

    monkeypatch.setattr(assembly, "_gram_local", gram)
    # the direct extension calls ale's name, a step's extension its own
    for module in (ale, stepper):
        def spy(L, *args, extend=module.extend, name=module.__name__):
            extended.append((name, type(L).__name__))
            return extend(L, *args)

        monkeypatch.setattr(module, "extend", spy)
    state, _ = run(config(4))
    assert state.remesh_count == 0
    assert len(grams) == 5
    assert extended == ([("alefem.ale", "csr_matrix")]
                        + [("alefem.stepper", "csr_matrix")] * 4)


def test_step_through_a_remesh(monkeypatch):
    """A run that remeshes once, at step 2: the state after the remesh
    carries the run's two lagged factors, the objects it carried before,
    but neither holds a factor, and it carries no w; the next step
    extends by a direct solve on the calling thread, as step 1 did."""
    calls = counted_extensions(monkeypatch, stepper)
    seen, lagged = [], []

    def sink(i, state, rec):
        seen.append((rec.remesh_count, state.factor.factor is None,
                     state.harmonic_factor.factor is None, state.w is None,
                     len(calls)))
        lagged.append((state.factor, state.harmonic_factor))

    state, _ = run(remesh_config(), sinks=[sink])
    assert state.remesh_count == 1
    assert all(a is b for pair in lagged[1:] for a, b in zip(pair, lagged[0]))
    assert seen == [(0, True, True, True, 0), (0, False, False, False, 1),
                    (1, True, True, True, 1), (1, False, False, False, 2),
                    (1, False, False, False, 2), (1, False, False, False, 2),
                    (1, False, False, False, 2)]
    assert calls == [("alefem.stepper", threading.main_thread())] * 2


def test_a_run_starts_no_thread():
    """The whole step runs on the calling thread, through a remesh too."""
    before = threading.active_count()
    inside = []
    state, _ = run(remesh_config(), sinks=[
        lambda i, state, rec: inside.append(threading.active_count())])
    assert state.remesh_count == 1
    assert inside == [before] * 7
    assert threading.active_count() == before


# Meshes with fewer elements than one chunk of `mesh.GeometryTables`,
# with exactly two chunks, and with a part chunk.
SPLIT_MESHES = {
    32: lambda k: generate_rect_mesh((0.0, 0.0, 1.0, 1.0), 0.25, k),
    512: lambda k: generate_rect_mesh((0.0, 0.0, 1.0, 1.0), 1.0 / 16.0, k),
    600: lambda k: generate_bubble_mesh(RECT, CENTER, RADIUS, 0.08, k),
}


def same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("elements", sorted(SPLIT_MESHES))
@pytest.mark.parametrize("k", [2, 3])
def test_split_geometry_and_assembly_are_bitwise(k, elements, monkeypatch):
    """The geometry table built in chunks of `mesh._CHUNK` elements, and
    A_mu and C assembled on it, equal bitwise those of a table built in
    one chunk."""
    m = SPLIT_MESHES[elements](k)
    assert m.n_elements == elements
    spaces = build_taylor_hood(m, k)
    m.release_tables()                      # a bubble mesh has one
    split = m.tables()
    got = {kind: assemble(kind, m, spaces, BP1) for kind in ("A_mu", "C")}
    m.release_tables()
    monkeypatch.setattr(meshmod, "_CHUNK", elements)
    whole = m.tables()
    assert whole is not split
    for name in ("x", "detJ", "Jinv", "wdet"):
        same(getattr(split, name), getattr(whole, name))
    assert split.tangled is None and whole.tangled is None
    for kind in ("A_mu", "C"):
        expect = assemble(kind, m, spaces, BP1)
        for name in ("data", "indices", "indptr"):
            same(getattr(got[kind], name), getattr(expect, name))


@pytest.mark.parametrize("owner, name", [
    (assembly, "_gram_local"),
])
def test_assembly_job_error_surfaces_in_its_step(owner, name, monkeypatch):
    """An error in an assembly kernel raises from the step that runs it,
    before any later sink is called and with no thread left behind."""
    threads = threading.active_count()

    def failing(*args, **kwargs):
        raise FloatingPointError("forced assembly failure")

    monkeypatch.setattr(owner, name, failing)
    done = []
    with pytest.raises(FloatingPointError, match="forced assembly failure"):
        run(config(3), sinks=[lambda i, state, rec: done.append(i)])
    assert done == [0]                          # step 1 raised it
    assert threading.active_count() == threads
