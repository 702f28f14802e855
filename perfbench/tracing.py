"""Span tracing for the benchmark's traced run.

The program is not changed: public functions of `alefem` are wrapped at
the site where their caller looks them up.  That is a module global of
the calling module (`stepper` does `from .ale import harmonic_extension`,
so the wrapper goes on `alefem.stepper.harmonic_extension`) or a class
attribute (`GeometryTables.__init__`, `PointLocator.locate`).  Spans are
kept in memory as (name, start, end, parent, step, remeshed) and written
out when the run ends.  `Tracer.step` is set by the workload: a positive
step (or oracle pass) index, or a negative set-up index.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

from alefem import ale, linalg, mesh, stepper, verify
from alefem.assembly import GeometryTables
from alefem.fespace import PointLocator

NAME, START, END, PARENT, STEP, REMESHED = range(6)


class _Factor:
    """Proxy around a SuperLU factor that counts triangular solves."""

    def __init__(self, lu, tracer: "Tracer", key: str):
        self._lu = lu
        self._tracer = tracer
        self._key = key

    def solve(self, rhs, *args, **kwargs):
        self._tracer.count(self._key + ".trisolves", 1)
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[int, str, float]] = []   # (step, key, value)
        self.step = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.step, False])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        self.counts.append((self.step, key, value))

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span while the wrappers are installed; for calls
        made from the benchmark itself."""
        if not self._installed:
            return fn(*args, **kwargs)
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            return after(idx, args, result) if after else result

        return traced

    def _factor_hook(self, key):
        def after(idx, args, lu):
            self.count(key + ".factorizations", 1)
            self.count(key + ".n", args[0].shape[0])
            self.count(key + ".fill_nnz", lu.nnz)
            return _Factor(lu, self, key)
        return after

    def _remesh_hook(self, idx, args, result):
        self.spans[idx][REMESHED] = bool(result[3])
        return result

    def _locate_hook(self, idx, args, result):
        self.count("fespace.points_located", len(np.atleast_2d(args[1])))
        return result

    def sites(self):
        """(owner, attribute, span name, post-call hook) for every wrapper."""
        assembly_kind = lambda args: f"assembly.{args[0]}"    # noqa: E731
        return [
            (stepper, "initialize", "stepper.initialize", None),
            (stepper, "step", "stepper.step", None),
            (stepper, "record_state", "stepper.record_state", None),
            (stepper, "flow_solve", "stepper.flow_solve", None),
            (stepper, "harmonic_extension", "ale.harmonic_extension", None),
            (stepper, "advance_mesh", "ale.advance_mesh", None),
            (stepper, "move_mesh", "ale.move_mesh", None),
            (stepper, "spaces_with_mesh", "ale.spaces_with_mesh", None),
            (stepper, "check_and_remesh", "ale.check_and_remesh",
             self._remesh_hook),
            (stepper, "assemble", assembly_kind, None),
            (stepper, "assemble_convection", "assembly.convection", None),
            (stepper, "assemble_load", "assembly.load", None),
            (stepper, "pressure_mean_vector", "assembly.pressure_mean", None),
            (stepper, "solve_saddle", "linalg.solve_saddle", None),
            (stepper, "quality", "mesh.quality", None),
            (stepper, "generate_bubble_mesh", "mesh.generate", None),
            (stepper, "build_taylor_hood", "fespace.build_taylor_hood", None),
            (ale, "scalar_laplacian", "assembly.laplacian", None),
            (ale, "splu", "ale.splu", self._factor_hook("ale")),
            (ale, "quality", "mesh.quality", None),
            (ale, "build_taylor_hood", "fespace.build_taylor_hood", None),
            (ale, "transfer_velocity", "ale.transfer", None),
            (ale, "transfer_pressure", "ale.transfer", None),
            (ale, "spaces_with_mesh", "ale.spaces_with_mesh", None),
            (mesh, "quality", "mesh.quality", None),
            (mesh, "fit_interface_mesh", "mesh.fit_interface_mesh", None),
            (linalg, "splu", "linalg.splu", self._factor_hook("linalg")),
            (verify, "assemble", assembly_kind, None),
            (verify, "harmonic_extension", "ale.harmonic_extension", None),
            (verify, "flow_solve", "stepper.flow_solve", None),
            (verify, "generate_rect_mesh", "mesh.generate", None),
            (verify, "build_taylor_hood", "fespace.build_taylor_hood", None),
            (GeometryTables, "__init__", "assembly.geometry", None),
            (PointLocator, "__post_init__", "fespace.locator_build", None),
            (PointLocator, "locate", "fespace.locate", self._locate_hook),
        ]

    def install(self) -> None:
        if self._installed:
            return
        for owner, attr, name, after in self.sites():
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, after))
            self._installed.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out


def summarize(tracer: Tracer, steps, count_steps, n_setups: int,
              remeshes: int, overhead_pct: float) -> dict:
    """Per-layer metrics: ms per traced step (or pass) over `steps`, counts
    per step over `count_steps`, set-up layers per set-up.

    `count_steps` is a prefix of the traced steps that every run of the
    workload completes, so the counts repeat exactly between runs even
    when the number of steps in the window varies."""
    steps = set(steps)
    count_steps = set(count_steps)
    n = max(len(steps), 1)
    n_count = max(len(count_steps), 1)
    self_t = tracer.self_times()
    incl = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    remesh_s = 0.0
    setup_incl = defaultdict(float)
    for s, st in zip(tracer.spans, self_t):
        if s[STEP] in steps:
            incl[s[NAME]] += s[END] - s[START]
            own[s[NAME]] += st
            if s[REMESHED]:
                remesh_s += s[END] - s[START]
        elif s[STEP] < 0:
            setup_incl[s[NAME]] += s[END] - s[START]
        if s[STEP] in count_steps:
            calls[s[NAME]] += 1
    totals = defaultdict(float)
    values = defaultdict(list)
    for step, key, value in tracer.counts:
        if step in count_steps:
            totals[key] += value
            values[key].append(value)

    def ms(name):
        return 1e3 * incl[name] / n

    def mean(key):
        return statistics.fmean(values[key]) if values[key] else 0.0

    n_setup = max(n_setups, 1)
    m = {
        "linalg.saddle_ms": ms("linalg.solve_saddle"),
        "linalg.saddle_factor_ms": ms("linalg.splu"),
        "linalg.saddle_self_ms": 1e3 * own["linalg.solve_saddle"] / n,
        "linalg.factorizations_per_step": totals["linalg.factorizations"] / n_count,
        "linalg.trisolves_per_step": totals["linalg.trisolves"] / n_count,
        "linalg.saddle_n": mean("linalg.n"),
        "linalg.saddle_fill_nnz": mean("linalg.fill_nnz"),
        "ale.harmonic_extension_ms": ms("ale.harmonic_extension"),
        "ale.harmonic_factor_ms": ms("ale.splu"),
        "ale.harmonic_fill_nnz": mean("ale.fill_nnz"),
        "assembly.geometry_ms": ms("assembly.geometry"),
        "assembly.geometry_builds_per_step": calls["assembly.geometry"] / n_count,
        "mesh.quality_ms": ms("mesh.quality"),
        "mesh.quality_calls_per_step": calls["mesh.quality"] / n_count,
        "stepper.record_state_ms": ms("stepper.record_state"),
        "assembly.M_rho_ms": ms("assembly.M_rho"),
        "assembly.A_mu_ms": ms("assembly.A_mu"),
        "assembly.C_ms": ms("assembly.C"),
        "assembly.convection_ms": ms("assembly.convection"),
        "assembly.load_ms": ms("assembly.load"),
        "assembly.pressure_mean_ms": ms("assembly.pressure_mean"),
        "assembly.laplacian_ms": ms("assembly.laplacian"),
        "stepper.flow_solve_self_ms": 1e3 * own["stepper.flow_solve"] / n,
        "ale.move_mesh_ms": (ms("ale.advance_mesh") + ms("ale.move_mesh")
                             + ms("ale.spaces_with_mesh")),
        "ale.check_and_remesh_ms": ms("ale.check_and_remesh"),
        "ale.remesh_ms": 1e3 * remesh_s / n,
        "ale.remeshes": float(remeshes),
        "mesh.fit_interface_mesh_ms": ms("mesh.fit_interface_mesh"),
        "fespace.locator_build_ms": ms("fespace.locator_build"),
        "fespace.locate_ms": ms("fespace.locate"),
        "fespace.points_located": totals["fespace.points_located"] / n_count,
        "ale.transfer_ms": ms("ale.transfer"),
        "stepper.initialize_ms": 1e3 * setup_incl["stepper.initialize"] / n_setup,
        "mesh.generate_ms": 1e3 * setup_incl["mesh.generate"] / n_setup,
        "fespace.build_taylor_hood_ms":
            1e3 * setup_incl["fespace.build_taylor_hood"] / n_setup,
        "verify.homotopy_ms": ms("verify.homotopy"),
        "verify.transport_ms": ms("verify.transport"),
        "verify.manufactured_ms": ms("verify.manufactured"),
        "tracing_overhead_pct": overhead_pct,
    }
    return m


def ranked_self(tracer: Tracer, steps) -> list[tuple[str, float, float]]:
    """(span name, self ms per step, calls per step), largest self first."""
    steps = set(steps)
    n = max(len(steps), 1)
    own = defaultdict(float)
    calls = defaultdict(int)
    for s, st in zip(tracer.spans, tracer.self_times()):
        if s[STEP] in steps:
            own[s[NAME]] += st
            calls[s[NAME]] += 1
    rows = [(k, 1e3 * v / n, calls[k] / n) for k, v in own.items()]
    return sorted(rows, key=lambda r: -r[1])


def spans_json(tracer: Tracer) -> dict:
    """Column form of the span table, times in seconds from the first span."""
    t0 = tracer.spans[0][START] if tracer.spans else 0.0
    return {
        "name": [s[NAME] for s in tracer.spans],
        "start": [round(s[START] - t0, 7) for s in tracer.spans],
        "end": [round(s[END] - t0, 7) for s in tracer.spans],
        "parent": [s[PARENT] for s in tracer.spans],
        "step": [s[STEP] for s in tracer.spans],
        "remeshed": [s[REMESHED] for s in tracer.spans],
    }
