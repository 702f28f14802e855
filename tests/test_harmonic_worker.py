"""The contract of the harmonic worker (`ale.HarmonicWorker`).

Each step prepares the harmonic operator of its moved mesh on a second
thread during the saddle solve; the next step extends with it.  These
tests pin what that thread may and may not do: free its factors itself,
read no module-level cache, match an operator only to its own mesh, and
hand its errors to the step that uses the operator.  On one CPU there
is nothing to overlap, and no thread is started at all.
"""

import gc
import threading

import pytest

from alefem import ale, assembly, mesh
from alefem.ale import advance_mesh, harmonic_extension
from alefem.stepper import SimConfig, initialize, run, step

from conftest import BP1

TAU = 1.0 / 200.0


def config(steps: int) -> SimConfig:
    return SimConfig(params=BP1, k=2, h=0.16, tau=TAU, T=steps * TAU)


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Hand the operators to the thread on any machine: on one CPU the
    worker keeps them on the calling thread."""
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
    original = ale.splu
    monkeypatch.setattr(ale, "splu",
                        lambda *a, **kw: Factor(original(*a, **kw), log))
    run(config(4))
    # a branch: the operator prepared for the first branch's mesh does
    # not fit the second and is dropped
    cfg = config(4)
    state = step(initialize(cfg), cfg)
    step(state, cfg)
    step(state, cfg)
    state.harmonic.close()
    del state
    gc.collect()
    made = {key: tid for event, key, tid in log if event == "made"}
    freed = {key: tid for event, key, tid in log if event == "freed"}
    assert freed == made
    main = threading.main_thread().ident
    assert main in made.values()
    assert any(tid != main for tid in made.values())


def test_worker_reads_no_module_level_cache(monkeypatch):
    misuse = []

    def guarded(name, fn):
        def call(*args, **kwargs):
            if off_main():
                misuse.append(name)
                raise AssertionError(f"{name} called off the main thread")
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(mesh, "_tables", guarded("_tables", mesh._tables))
    for module in (assembly, ale):
        monkeypatch.setattr(module, "index_maps",
                            guarded("index_maps", module.index_maps))
    worker_factors = []
    original = ale.splu

    def splu(*args, **kwargs):
        if off_main():
            worker_factors.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ale, "splu", splu)
    state, _ = run(config(5))
    assert misuse == []
    assert len(worker_factors) == 5
    assert state.remesh_count == 0


def test_prepared_operator_is_used_only_on_its_own_mesh():
    cfg = config(3)
    state = step(initialize(cfg), cfg)
    try:
        # the first call uses the operator prepared for state.mesh, the
        # second finds one prepared for the mesh of the first call's result
        for _ in range(2):
            moved = step(state, cfg)
            assert moved.remesh_count == 0
            w = harmonic_extension(state.mesh, state.spaces, state.u)
            expect = advance_mesh(state.mesh.x, w, TAU)
            assert moved.mesh.x.tobytes() == expect.tobytes()
    finally:
        state.harmonic.close()


def test_worker_error_surfaces_in_the_step_that_uses_it(monkeypatch):
    original = ale.splu
    workers = []

    def failing(*args, **kwargs):
        if off_main():
            workers.append(threading.current_thread())
            raise RuntimeError("forced factorization failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(ale, "splu", failing)
    done = []
    with pytest.raises(RuntimeError,
                       match="forced factorization failure") as raised:
        run(config(4), sinks=[lambda i, state, rec: done.append(i)])
    # step 1 prepares the operator that step 2 uses
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
    original = ale.splu

    def splu(*args, **kwargs):
        factors.append(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(ale, "splu", splu)
    names = []
    state, records = run(config(4), sinks=[
        lambda i, state, rec: names.extend(
            t.name for t in threading.enumerate())])
    assert state.remesh_count == 0
    assert "alefem-harmonic" not in names
    # one factor per step, each on the calling thread
    assert factors == [threading.get_ident()] * 4
    assert records == overlapped_records
    for a, b in ((state.u, overlapped.u), (state.p, overlapped.p),
                 (state.mesh.x, overlapped.mesh.x)):
        assert a.tobytes() == b.tobytes()
