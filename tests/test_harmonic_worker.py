"""The contract of the step worker (`ale.HarmonicWorker`).

Before its saddle solve, a step hands a second thread the factoring of
the lagged harmonic factor when one is due, half of the moved mesh's
geometry table, then A_mu together with the moved mesh's Laplacian,
both read off one gradient Gram.  After the saddle solve the thread
extends the new u by CG on that Laplacian, preconditioned by the lagged
factor; the state the step makes carries that extension as its w, which
the next step takes unless the step remeshed.  These tests pin what that thread may and may not do: free its
factors itself, hold at most one, build nothing that is built on first
use, extend only on its own mesh, form one Gram per configuration, give
bitwise the arrays of one thread, through a remesh too, and hand its
errors to the step that waits for them.  On one CPU the step hands over
the same jobs, which run at once on the calling thread, and no thread
is started.
"""

import gc
import os
import subprocess
import sys
import threading
from dataclasses import FrozenInstanceError
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from alefem import ale, assembly, stepper, verify
from alefem.ale import HarmonicWorker, advance_mesh, harmonic_extension
from alefem.assembly import DofMaps, Gather, Pattern, assemble
from alefem.fespace import build_taylor_hood
from alefem.mesh import (
    GeometryTables,
    generate_bubble_mesh,
    generate_rect_mesh,
    geometry,
    quality,
)
from alefem.stepper import SimConfig, initialize, run, step
from alefem.verify import spatial_convergence_study

from conftest import BP1, CENTER, RADIUS, RECT

TAU = 1.0 / 200.0


def config(steps: int) -> SimConfig:
    return SimConfig(params=BP1, k=2, h=0.16, tau=TAU, T=steps * TAU)


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Hand the jobs to the thread on any machine: on one CPU the
    worker runs them on the calling thread."""
    monkeypatch.setattr(ale, "_cpus_available", lambda: 2)


def off_main() -> bool:
    return threading.current_thread() is not threading.main_thread()


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


def test_factors_are_freed_by_the_thread_that_made_them(monkeypatch):
    log = []
    original = ale.spilu
    monkeypatch.setattr(ale, "spilu",
                        lambda *a, **kw: Factor(original(*a, **kw), log))
    run(config(4))
    # a branch: two steps from one state both take its w, the extension
    # that state's step started, so they move the mesh alike
    cfg = config(4)
    state = step(initialize(cfg), cfg)
    first, second = step(state, cfg), step(state, cfg)
    assert np.array_equal(first.mesh.x, second.mesh.x)
    state.harmonic.close()
    del state, first, second
    gc.collect()
    made = {key: tid for event, key, tid in log if event == "made"}
    freed = {key: tid for event, key, tid in log if event == "freed"}
    assert freed == made
    main = threading.main_thread().ident
    assert main in made.values()
    assert any(tid != main for tid in made.values())


def test_one_harmonic_factor_is_alive_at_a_time(monkeypatch):
    """Through a remesh, with a cap of 1, so that every extension on a
    factor of an earlier configuration overruns and the next step
    refactors: at no time are two harmonic factors alive, each is freed
    before the next is made, and on the thread that made it."""
    log = []
    original = ale.spilu
    monkeypatch.setattr(ale, "spilu",
                        lambda *a, **kw: Factor(original(*a, **kw), log))
    monkeypatch.setattr(ale, "MAX_ITERATIONS", 1)
    angle = quality(generate_bubble_mesh(RECT, CENTER, RADIUS, 0.12, 2)
                    ).min_angle
    cfg = SimConfig(params=BP1, k=2, h=0.12, tau=TAU, T=6 * TAU,
                    remesh_angle=angle - 1e-6)
    state, _ = run(cfg)
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
    made = [tid for event, _, tid in log if event == "made"]
    main = threading.main_thread().ident
    # per numbering (steps 1 and 3): the direct extension on the calling
    # thread, then the worker's factor; then one refactor per step after
    # an overrun, steps 4-6.  Step 1 extends on the mesh that the zero
    # initial velocity left in place, the one its factor is of, so it
    # does not overrun.
    assert made.count(main) == 2
    assert len(made) == 2 + 2 + 3


def test_nothing_is_built_on_the_worker_thread(monkeypatch):
    """The thread only reads the geometry tables and index maps that
    its jobs need, the gather of the interior block included: the main
    thread builds each before it hands a job over.  The reference
    tensors of the kernels are a pure cache of the degrees (see
    `test_hygiene.CACHED_OK`)."""
    misuse = []

    def guarded(name, fn):
        def call(*args, **kwargs):
            if off_main():
                misuse.append(name)
            return fn(*args, **kwargs)
        return call

    for cls in (GeometryTables, DofMaps, Pattern, Gather):
        monkeypatch.setattr(cls, "__init__",
                            guarded(cls.__name__, cls.__init__))
    for name, prop in vars(DofMaps).items():
        if isinstance(prop, cached_property):
            member = cached_property(guarded(name, prop.func))
            member.__set_name__(DofMaps, name)
            monkeypatch.setattr(DofMaps, name, member)
    worker_factors = []
    original = ale.spilu

    def spilu(*args, **kwargs):
        if off_main():
            worker_factors.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(ale, "spilu", spilu)
    state, _ = run(config(5))
    assert misuse == []
    # the lagged factor of the one numbering, made in step 1
    assert worker_factors == [{"drop_tol": 0.0, "fill_factor": 2,
                               "drop_rule": "basic",
                               "permc_spec": "MMD_AT_PLUS_A", "relax": 1}]
    assert state.remesh_count == 0


def test_prepared_operator_is_used_only_on_its_own_mesh():
    """A step moves by the w of its state, the extension of the state's u
    on the state's mesh (by CG on the worker's lagged factor, to 1e-12
    of the direct extension there), never by one on another mesh."""
    cfg = config(3)
    state = step(initialize(cfg), cfg)
    try:
        # both calls take state.w; by the second, the worker has extended
        # on the mesh of the first call's result with the same factor
        for _ in range(2):
            moved = step(state, cfg)
            assert moved.remesh_count == 0
            w = state.w.result().w
            expect = advance_mesh(state.mesh.x, w, TAU)
            assert moved.mesh.x.tobytes() == expect.tobytes()
            direct = harmonic_extension(state.mesh, state.spaces, state.u)
            elsewhere = harmonic_extension(moved.mesh, moved.spaces,
                                           state.u)
            scale = np.abs(direct).max()
            assert np.abs(w - direct).max() <= 1e-12 * scale
            assert np.abs(w - elsewhere).max() > 1e-6 * scale
    finally:
        state.harmonic.close()


def counted_extensions(monkeypatch, *modules):
    """The threads of the calls of `ale.harmonic_extension` through each
    module's name for it, in call order."""
    threads = []
    for module in modules:
        original = module.harmonic_extension

        def counting(*args, original=original):
            threads.append(threading.current_thread())
            return original(*args)

        monkeypatch.setattr(module, "harmonic_extension", counting)
    return threads


def test_only_the_first_step_extends_on_the_calling_thread(monkeypatch):
    """Every step but the first takes the w that the step before
    started on the worker (`State.w`)."""
    threads = counted_extensions(monkeypatch, stepper)
    seen = []
    state, _ = run(config(4), sinks=[
        lambda i, state, rec: seen.append((i, len(threads)))])
    assert state.remesh_count == 0
    assert seen == [(0, 0), (1, 1), (2, 1), (3, 1), (4, 1)]
    assert threads == [threading.main_thread()]


def test_convergence_study_extends_once_per_level(monkeypatch):
    """The study's final w is the extension its last step started, so
    each level extends on the calling thread only in its first step."""
    threads = counted_extensions(monkeypatch, stepper, verify)
    report = spatial_convergence_study(config(2), levels=3, m=2)
    assert len(report.h_values) == 3
    assert threads == [threading.main_thread()] * 3


def test_state_is_frozen_and_its_velocity_read_only():
    """w of a state is the extension of its u on its mesh: neither can
    change after the step that made it started w."""
    cfg = config(1)
    state = step(initialize(cfg), cfg)
    try:
        assert state.w is not None
        with pytest.raises(ValueError, match="read-only"):
            state.u[::7] *= 1.5
        with pytest.raises(FrozenInstanceError):
            state.u = state.u * 1.5
        with pytest.raises(FrozenInstanceError):
            state.w = None
    finally:
        state.harmonic.close()


def test_worker_error_surfaces_in_the_step_that_uses_it(monkeypatch):
    original = ale.spilu
    workers = []

    def failing(*args, **kwargs):
        if off_main():
            workers.append(threading.current_thread())
            raise RuntimeError("forced factorization failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(ale, "spilu", failing)
    done = []
    with pytest.raises(RuntimeError,
                       match="forced factorization failure") as raised:
        run(config(4), sinks=[lambda i, state, rec: done.append(i)])
    # step 1 factors on the worker for the extension that step 2 waits for
    assert done == [0, 1]
    assert workers
    # joined while the traceback, and with it the last state and its
    # worker, is alive: only closing the worker ends the thread
    for thread in workers:
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    assert raised.type is RuntimeError


def test_one_cpu_builds_every_operator_on_the_calling_thread(monkeypatch):
    overlapped, overlapped_records = run(config(4))
    monkeypatch.setattr(ale, "_cpus_available", lambda: 1)
    factors = []
    original = ale.spilu

    def spilu(*args, **kwargs):
        factors.append(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(ale, "spilu", spilu)
    names = []
    state, records = run(config(4), sinks=[
        lambda i, state, rec: names.extend(
            t.name for t in threading.enumerate())])
    assert state.remesh_count == 0
    assert "alefem-harmonic" not in names
    # the first step's direct extension and the lagged factor of its
    # numbering, which every later step reuses, as on two CPUs, both on
    # the calling thread; none in the last step
    assert factors == [threading.get_ident()] * 2
    assert records == overlapped_records
    for a, b in ((state.u, overlapped.u), (state.p, overlapped.p),
                 (state.mesh.x, overlapped.mesh.x)):
        assert a.tobytes() == b.tobytes()


def test_one_and_two_cpus_hand_over_the_same_jobs(monkeypatch):
    submitted = []
    original = HarmonicWorker.submit

    def submit(self, fn, *args):
        submitted[-1].append(fn.__name__)
        return original(self, fn, *args)

    monkeypatch.setattr(HarmonicWorker, "submit", submit)
    runs, names = [], []
    for cpus in (1, 2):
        monkeypatch.setattr(ale, "_cpus_available", lambda: cpus)
        submitted.append([])
        names.append([])
        runs.append(run(config(3), sinks=[
            lambda i, state, rec: names[-1].extend(
                t.name for t in threading.enumerate())]))
    assert submitted[0] == submitted[1]
    # each step hands over the refactor, the Gram and the extension, in
    # that order (the mesh is too small to build its table in halves);
    # the calling thread assembles C, M_rho and the convection form
    assert submitted[0] == ["_refactor", "viscous_and_laplacian",
                            "_extend_held"] * 3
    assert "alefem-harmonic" not in names[0]
    assert "alefem-harmonic" in names[1]
    (one, one_records), (two, two_records) = runs
    assert one.remesh_count == 0
    assert one_records == two_records
    for a, b in ((one.u, two.u), (one.p, two.p),
                 (one.mesh.x, two.mesh.x)):
        assert a.tobytes() == b.tobytes()


def test_one_gram_per_configuration(monkeypatch):
    """Each step reads A_mu and the mesh Laplacian off one gradient Gram
    (`assembly.viscous_and_laplacian`), and its extension job gets that
    Laplacian, not a geometry table or a space: four steps form five
    Grams, one for the first step's direct extension, whose Laplacian
    the worker factors as step 1's first job, and one per A_mu job."""
    grams, refactored, extended = [], [], []
    original = assembly._gram_local

    def gram(*args):
        grams.append(threading.current_thread())
        return original(*args)

    monkeypatch.setattr(assembly, "_gram_local", gram)
    refactor, extend = ale._refactor, ale._extend_held

    def spy_refactor(held, L, block):
        refactored.append([type(L).__name__, type(block).__name__])
        return refactor(held, L, block)

    def spy_extend(held, L, spaces, u):
        extended.append(type(L).__name__)
        return extend(held, L, spaces, u)

    monkeypatch.setattr(ale, "_refactor", spy_refactor)
    monkeypatch.setattr(ale, "_extend_held", spy_extend)
    state, _ = run(config(4))
    assert state.remesh_count == 0
    assert len(grams) == 5 and grams[0] is threading.main_thread()
    assert refactored == ([["csr_matrix", "Gather"]]
                          + [["NoneType", "Gather"]] * 3)
    assert extended == ["csr_matrix"] * 4


def test_step_through_a_remesh(monkeypatch):
    """A run that remeshes once, at step 2, on one CPU and on two: the
    same results bitwise, a state after the remesh that carries neither
    a saddle factor nor a w, and a next step that extends on the
    calling thread."""
    angle = quality(generate_bubble_mesh(RECT, CENTER, RADIUS, 0.12, 2)
                    ).min_angle
    cfg = SimConfig(params=BP1, k=2, h=0.12, tau=TAU, T=6 * TAU,
                    remesh_angle=angle - 1e-6)
    threads = counted_extensions(monkeypatch, stepper)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(ale, "_cpus_available", lambda: cpus)
        threads.clear()
        seen = []
        state, records = run(cfg, sinks=[lambda i, state, rec: seen.append(
            (rec.remesh_count, state.factor is None, state.w is None,
             len(threads)))])
        assert state.remesh_count == 1
        # records 0-6: the remesh in step 2 leaves no factor and no w,
        # so step 3 extends on the calling thread, as step 1 did
        assert seen == [(0, True, True, 0), (0, False, False, 1),
                        (1, True, True, 1), (1, False, False, 2),
                        (1, False, False, 2), (1, False, False, 2),
                        (1, False, False, 2)]
        assert threads == [threading.main_thread()] * 2
        runs.append((state, records))
    (one, one_records), (two, two_records) = runs
    assert one_records == two_records
    for a, b in ((one.u, two.u), (one.p, two.p), (one.mesh.x, two.mesh.x)):
        assert a.tobytes() == b.tobytes()


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
    m = SPLIT_MESHES[elements](k)
    assert m.n_elements == elements
    spaces = build_taylor_hood(m, k)
    jobs = []
    worker = HarmonicWorker()
    original = worker.submit

    def submit(fn, *args, **kwargs):
        jobs.append(fn)
        return original(fn, *args, **kwargs)

    # switch threads as often as the interpreter can, to interleave the
    # two halves as finely as possible
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        alone = GeometryTables(m, None)
        m.release_tables()                  # a bubble mesh has one
        split = m.tables(submit)
        for name in ("x", "detJ", "Jinv", "wdet"):
            same(getattr(split, name), getattr(alone, name))
        assert split.tangled is None and alone.tangled is None
        assert len(jobs) == (elements > 256)
        spaces.maps.vector, spaces.maps.divergence
        got = {kind: submit(assemble, kind, m, spaces, BP1).result()
               for kind in ("A_mu", "C")}
        m.release_tables()
        assert geometry(m) is not split         # built by this thread alone
        for kind in ("A_mu", "C"):
            expect = assemble(kind, m, spaces, BP1)
            for name in ("data", "indices", "indptr"):
                same(getattr(got[kind], name), getattr(expect, name))
        assert "alefem-harmonic" in {t.name for t in threading.enumerate()}
    finally:
        sys.setswitchinterval(interval)
        worker.close()


@pytest.mark.parametrize("owner, name", [
    (assembly, "_gram_local"),
])
def test_assembly_job_error_surfaces_in_its_step(owner, name, monkeypatch):
    original = getattr(owner, name)
    workers = []

    def failing(*args, **kwargs):
        if off_main():
            workers.append(threading.current_thread())
            raise FloatingPointError("forced assembly failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)
    done = []
    with pytest.raises(FloatingPointError,
                       match="forced assembly failure") as raised:
        run(config(3), sinks=[lambda i, state, rec: done.append(i)])
    assert done == [0]                          # step 1 raised it
    assert raised.type is FloatingPointError
    assert workers
    for thread in workers:
        assert not thread.is_alive()


UNCLOSED = """
import threading
from alefem import ale
from alefem.stepper import SimConfig, initialize, step
from conftest import BP1
ale._cpus_available = lambda: 2
cfg = SimConfig(params=BP1, k=2, h=0.08, tau=1 / 200, T=3 / 200)
state = initialize(cfg)
for _ in range(3):
    state = step(state, cfg)
assert "alefem-harmonic" in {t.name for t in threading.enumerate()}
print("stepped")
"""


def test_unclosed_worker_lets_the_process_exit_cleanly():
    """A worker still open at exit stops and joins its thread before the
    interpreter is torn down, so the thread frees its factor in time."""
    tests = Path(__file__).resolve().parent
    path = f"{tests.parent / 'src'}:{tests}"
    out = subprocess.run([sys.executable, "-c", UNCLOSED],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path})
    assert (out.returncode, out.stderr, out.stdout) == (0, "", "stepped\n")
