"""The benchmark's workloads, each driven through alefem's public API.

Rise workloads run `alefem.stepper.run(config, sinks=[...])` on the
rising-bubble configuration BP1 (rho 1000/100, mu 10/1, g 0.98, k=2,
tau=1/200).  The sink timestamps every recorded step, so a step's time is
`step()` plus `record_state()`, which is what a user pays with the default
`record_every=1`.  Step 1 is warm-up.  `verify_all` runs the oracles of
`alefem verify all` with the same bounds, on inputs drawn from the seed,
and runs every check instead of stopping at the first failure.

Seed 0 is exactly the documented configuration.  Any other seed shifts
the initial bubble centre by a seeded offset of at most h/4.
"""

from __future__ import annotations

import math
import statistics
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from alefem import stepper
from alefem.ale import RemeshError
from alefem.assembly import PhaseParams
from alefem.cli import build_verify_checks, smooth_displacement
from alefem.fespace import NewtonError, PointLocationError, build_taylor_hood
from alefem.linalg import SolverError
from alefem.mesh import MeshError, generate_bubble_mesh
from alefem.verify import (homotopy_identity_residual, manufactured_flow_errors,
                           transport_formula_residual)

import checks
import tracing

BP1 = PhaseParams(1000.0, 100.0, 10.0, 1.0, 0.98)
TAU = 1.0 / 200.0
RECT = (0.0, 0.0, 1.0, 2.0)
# The package's typed errors; MeshError covers MeshGenerationError and
# TangledElementError.  Any other exception is a defect and ends the run.
STEP_ERRORS = (RemeshError, SolverError, MeshError, PointLocationError,
               NewtonError)


@dataclass(frozen=True)
class Rise:
    name: str
    h: float
    max_steps: int       # the configured horizon, T = max_steps * tau
    min_timed: int       # timed steps (after warm-up) every run completes
    fixed: bool          # attempt all max_steps whatever --seconds says
    untraced: int        # traced run: untraced reference steps after warm-up
    setups: int          # set-ups timed per run; setup_s is their median


RISE = {
    # Whole run to T=1.5: remeshes three times, then the code as of this
    # benchmark fails with RemeshError at step 283.  Small mesh: per-step overheads dominate.
    "rise_h08": Rise("rise_h08", 0.08, 300, 299, True, 30, 11),
    # The default `alefem run` resolution; the window ends before the
    # first remesh (about step 160).
    "rise_h04": Rise("rise_h04", 0.04, 150, 12, False, 4, 7),
    # Large mesh: the flow solve dominates and memory is real.
    "rise_h02": Rise("rise_h02", 0.02, 150, 3, False, 1, 3),
}

VERIFY_SETUPS = 15
VERIFY_UNTRACED = 1      # traced run: untraced reference passes after warm-up
WORKLOADS = (*RISE, "verify_all")


class WindowClosed(Exception):
    pass


def bubble_centre(seed: int, h: float) -> tuple[float, float]:
    if seed == 0:
        return (0.5, 0.5)
    rng = np.random.default_rng([seed, 7919])
    r = 0.25 * h * math.sqrt(rng.random())
    a = 2.0 * math.pi * rng.random()
    return (0.5 + r * math.cos(a), 0.5 + r * math.sin(a))


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it; the maximum when there are fewer than 11."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def timing_metrics(setup_times, op_times, wall) -> dict:
    value, pct, beyond = tail(op_times)
    return {
        "setup_s": statistics.median(setup_times),
        "steps_per_s": len(op_times) / wall,
        "step_ms_min": 1e3 * min(op_times),
        "step_ms_p50": 1e3 * statistics.median(op_times),
        "step_ms_tail": 1e3 * value,
        "tail": {"percentile": pct, "beyond": beyond, "samples": len(op_times)},
    }


def overhead_pct(untraced, traced) -> float:
    if not untraced or not traced:
        return 0.0
    ref = statistics.median(untraced)
    return 100.0 * (statistics.median(traced) - ref) / ref


# ---------------------------------------------------------------------------
# rise workloads


class _Sink:
    """Timestamps every step, enforces the window, switches tracing."""

    def __init__(self, spec: Rise, seconds: float, tracer):
        self.spec = spec
        self.seconds = seconds
        self.tracer = tracer
        self.marks: list[float] = []
        self.records: list = []

    def __call__(self, i, state, record):
        now = perf_counter()
        self.marks.append(now)
        self.records.append(record)
        spec, tracer = self.spec, self.tracer
        if tracer is not None:
            if i == 1 and spec.untraced:
                tracer.remove()
            if i == 1 + spec.untraced:
                tracer.install()
            tracer.step = i + 1
        if (not spec.fixed and i - 1 >= spec.min_timed
                and now - self.marks[1] >= self.seconds):
            raise WindowClosed


def rise_config(spec: Rise, seed: int,
                steps: int | None = None) -> stepper.SimConfig:
    steps = spec.max_steps if steps is None else steps
    return stepper.SimConfig(params=BP1, k=2, h=spec.h, tau=TAU,
                             T=steps * TAU,
                             circle_center=bubble_centre(seed, spec.h))


def run_rise(spec: Rise, seed: int, seconds: float, tracer=None) -> dict:
    config = rise_config(spec, seed)
    if tracer is not None:
        tracer.install()
    setup_times = []
    for j in range(spec.setups - 1):
        if tracer is not None:
            tracer.step = -(j + 1)
        t0 = perf_counter()
        state = stepper.initialize(config)
        stepper.record_state(state, config)
        setup_times.append(perf_counter() - t0)
        del state
    if tracer is not None:
        tracer.step = -spec.setups
    sink = _Sink(spec, seconds, tracer)
    error = None
    t0 = perf_counter()
    try:
        stepper.run(config, sinks=[sink])
    except WindowClosed:
        pass
    except STEP_ERRORS as err:
        error = err
    finally:
        if tracer is not None:
            tracer.remove()
    marks, records = sink.marks, sink.records
    setup_times.append(marks[0] - t0)
    steps_done = len(marks) - 1

    failures = []
    unattempted = 0
    if error is not None:
        planned = spec.max_steps if spec.fixed else 1 + spec.min_timed
        unattempted = max(0, planned - len(marks))
        failures.append({"step": len(marks), "t": len(marks) * config.tau,
                         "error": type(error).__name__, "message": str(error),
                         "unattempted_after": unattempted})
    reference = checks.load_reference(spec.name) if seed == 0 else None
    mismatches = checks.check_records(records, reference)
    attempted = steps_done + (error is not None) + unattempted
    failed = (error is not None) + unattempted + len(mismatches)

    step_times = [marks[i] - marks[i - 1] for i in range(2, len(marks))]
    if not step_times:
        raise RuntimeError(f"{spec.name}: no timed step completed")
    split = 2 + spec.untraced if tracer is not None else 2
    timed = step_times[split - 2:]
    wall = marks[-1] - marks[split - 1]
    e2e = timing_metrics(setup_times, timed, wall)
    a0, last = records[0].area_minus, records[-1]
    e2e["area_drift_rate"] = (abs(last.area_minus - a0) / (a0 * last.t)
                              if last.t > 0 else 0.0)
    e2e["fail_ratio"] = failed / attempted

    result = {
        "workload": spec.name,
        "config": {"h": config.h, "k": config.k, "tau": config.tau,
                   "T": config.T, "circle_center": list(config.circle_center),
                   "rho": [BP1.rho_plus, BP1.rho_minus],
                   "mu": [BP1.mu_plus, BP1.mu_minus], "g": BP1.g},
        "attempted": attempted,
        "failed": failed,
        "correct": not mismatches,
        "failures": failures,
        "mismatches": mismatches,
        "reference_checked": reference is not None,
        "steps_completed": steps_done,
        "remeshes": last.remesh_count,
        "t_last": last.t,
        "step_ms": [1e3 * t for t in step_times],
        "e2e": e2e,
    }
    if tracer is not None:
        traced_steps = list(range(split, len(marks)))
        untraced_times = step_times[:spec.untraced]
        overhead = overhead_pct(untraced_times, timed)
        n_count = len(traced_steps) if spec.fixed else \
            spec.min_timed - spec.untraced
        layers = tracing.summarize(tracer, traced_steps,
                                   traced_steps[:n_count], spec.setups,
                                   last.remesh_count, overhead)
        result["layers"] = layers
        result["trace_report"] = _trace_report(tracer, traced_steps, timed,
                                        untraced_times)
    return result


def _trace_report(tracer, traced_steps, traced_times, untraced_times) -> dict:
    ranked = tracing.ranked_self(tracer, traced_steps)
    n = max(len(traced_steps), 1)
    self_sum = sum(r[1] for r in ranked)
    step_mean = 1e3 * sum(traced_times) / n
    return {
        "traced_steps": len(traced_steps),
        "untraced_steps": len(untraced_times),
        "traced_step_ms_p50": 1e3 * statistics.median(traced_times),
        "untraced_step_ms_p50": (1e3 * statistics.median(untraced_times)
                                 if untraced_times else None),
        "traced_step_ms_mean": step_mean,
        "self_ms_sum": self_sum,
        "unattributed_ms": step_mean - self_sum,
        "self_ranked": [{"span": name, "self_ms": ms, "calls": c}
                        for name, ms, c in ranked],
    }


# ---------------------------------------------------------------------------
# verify_all


def _call(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.span(name, fn, *args, **kwargs)


@dataclass
class VerifyInputs:
    mesh: object
    spaces: object
    homotopy: list       # (kind, e_x, u, v)
    transport: tuple     # (w, f)


def verify_inputs(seed: int, tracer=None) -> VerifyInputs:
    """The oracle inputs of `alefem verify all`; seed 0 draws exactly its
    samples, any other seed draws new ones on a shifted bubble."""
    centre = bubble_centre(seed, 0.2)
    mesh = _call(tracer, "mesh.generate", generate_bubble_mesh,
                 RECT, centre, 0.25, 0.2, 2)
    spaces = _call(tracer, "fespace.build_taylor_hood", build_taylor_hood,
                   mesh, 2)
    rng = np.random.default_rng(2024 if seed == 0 else [2024, seed])
    n_u = 2 * spaces.velocity.n_dofs
    samples = []
    for kind in ("M", "M_rho", "A", "A_mu", "C"):
        for _ in range(4):
            e_x = smooth_displacement(rng, spaces.velocity.positions, 1e-2)
            u = rng.normal(size=n_u)
            v = rng.normal(size=spaces.pressure.n_dofs if kind == "C" else n_u)
            samples.append((kind, e_x, u, v))
    rng = np.random.default_rng(11 if seed == 0 else [11, seed])
    w = smooth_displacement(rng, spaces.velocity.positions, 0.1)
    f = rng.normal(size=spaces.velocity.n_dofs)
    return VerifyInputs(mesh, spaces, samples, (w, f))


def verify_checks(inp: VerifyInputs, tracer=None):
    """(name, fn) for every oracle check; fn returns (ok, detail).  The
    bounds are those of `alefem verify all`."""
    out = [(name, lambda fn=fn: _call(tracer, "verify.matrices", fn))
           for name, fn in build_verify_checks("matrices")]

    for i, (kind, e_x, u, v) in enumerate(inp.homotopy):
        def homotopy(kind=kind, e_x=e_x, u=u, v=v):
            r = _call(tracer, "verify.homotopy", homotopy_identity_residual,
                      inp.mesh, e_x, kind, u, v, params=BP1,
                      spaces=inp.spaces)
            return r < 1e-9, f"residual {r:.2e}"
        out.append((f"homotopy {kind} #{i % 4}", homotopy))

    def transport():
        w, f = inp.transport
        res = [_call(tracer, "verify.transport", transport_formula_residual,
                     inp.mesh, w, f, tau) for tau in (0.02, 0.01, 0.005)]
        orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
        ok = all(0.9 <= o <= 1.1 for o in orders)
        return ok, f"decay orders {[round(o, 3) for o in orders]}"

    def manufactured_poly():
        eu0, ep0 = _call(tracer, "verify.manufactured",
                         manufactured_flow_errors, 2, 0.2, 0.05, 1.0,
                         case="poly")
        return max(eu0, ep0) <= 1e-9, f"errors {eu0:.2e}, {ep0:.2e}"

    def manufactured_rates():
        errs = [_call(tracer, "verify.manufactured", manufactured_flow_errors,
                      2, h, 0.02, 1.0, case="trig") for h in (0.2, 0.1)]
        rate_u = math.log2(errs[0][0] / errs[1][0])
        rate_p = math.log2(errs[0][1] / errs[1][1])
        ok = rate_u >= 1.8 and rate_p >= 1.6
        return ok, f"H1 u rate {rate_u:.2f}, L2 p rate {rate_p:.2f}"

    out += [("transport formula", transport),
            ("manufactured polynomial reproduction", manufactured_poly),
            ("manufactured rates", manufactured_rates)]
    return out


def _run_check(fn) -> tuple[bool, str]:
    try:
        return fn()
    except Exception:   # an oracle crash is a failed check; keep going
        return False, traceback.format_exc(limit=3)


def run_verify(seed: int, seconds: float, tracer=None) -> dict:
    """Pass 1 is warm-up; whole passes repeat until the window closes.  In
    a traced run the first passes after warm-up are untraced.

    A step is one pass of all checks: checks differ in cost by three orders
    of magnitude, so the median check would sit at a boundary between
    check kinds.  An operation, for `attempted` and `failed`, is a check."""
    setup_times = []
    if tracer is not None:
        tracer.install()
    for j in range(VERIFY_SETUPS):
        if tracer is not None:
            tracer.step = -(j + 1)
        t0 = perf_counter()
        inp = verify_inputs(seed, tracer)
        setup_times.append(perf_counter() - t0)
    check_list = verify_checks(inp, tracer)

    attempted = failed = 0
    failures = []
    op_times = {}          # pass -> [seconds per check]
    pass_times = {}
    start = None
    p = 0
    while True:
        p += 1
        traced = tracer is not None and (p == 1 or p > 1 + VERIFY_UNTRACED)
        if traced:
            tracer.install()
        elif tracer is not None:
            tracer.remove()
        if tracer is not None:
            tracer.step = p
        times = []
        t_pass = perf_counter()
        for name, fn in check_list:
            t0 = perf_counter()
            ok, detail = _run_check(fn)
            times.append(perf_counter() - t0)
            attempted += 1
            if not ok:
                failed += 1
                failures.append({"pass": p, "check": name, "detail": detail})
        now = perf_counter()
        op_times[p], pass_times[p] = times, now - t_pass
        if p == 1:
            start = now
        timed_passes = p - 1 - (VERIFY_UNTRACED if tracer is not None else 0)
        if timed_passes >= 1 and now - start >= seconds:
            break
    if tracer is not None:
        tracer.remove()

    first = 2 + (VERIFY_UNTRACED if tracer is not None else 0)
    timed = [pass_times[q] for q in range(first, p + 1)]
    e2e = timing_metrics(setup_times, timed, sum(timed))
    e2e["suite_s"] = statistics.median(timed)
    e2e["fail_ratio"] = failed / attempted
    result = {
        "workload": "verify_all",
        "config": {"bubble_centre": list(bubble_centre(seed, 0.2)),
                   "checks_per_pass": len(check_list), "passes": p},
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "failures": failures,
        "check_ms": {q: [1e3 * t for t in op_times[q]] for q in op_times},
        "e2e": e2e,
    }
    if tracer is not None:
        untraced = [pass_times[q] for q in range(2, first)]
        traced_passes = list(range(first, p + 1))
        result["layers"] = tracing.summarize(
            tracer, traced_passes, traced_passes[:1], VERIFY_SETUPS, 0,
            overhead_pct(untraced, timed))
        result["trace_report"] = _trace_report(tracer, traced_passes, timed,
                                               untraced)
    return result
