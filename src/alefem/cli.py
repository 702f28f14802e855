"""Command-line entry point: benchmark runs, convergence studies, and
the verification suites.

Config files are flat `key = value` text; `[section]` headers are
allowed for readability and ignored, `#` starts a comment.  The keys
are the fields of `PhaseParams` and those of `SimConfig` other than
params; the keys of fields without a default are required, and no key
may be set twice.  Tuple values are numbers separated by commas or
spaces.

A run steps on one thread, so the step itself does the same work
whatever the number of CPUs.  BLAS may not, so a run's results are
bitwise reproducible across CPU counts only with BLAS on one thread
(`OPENBLAS_NUM_THREADS=1`, as `perfbench/run.py` sets it).  Under
OpenBLAS's default of two threads, records 1, 3, 4 and 6 of a 6-step
k=2 h=0.04 run differed in bits between a process on two CPUs and one
pinned to one.  So `manifest.json` records the CPUs the run may use and
the BLAS thread variables it found.

`alefem run` writes each row of `bench.csv` as it is recorded.  A run
that raises keeps those rows, and its `manifest.json` reads `"status":
"failed"` with the error's type and message and the last recorded
level (`last_step`, `final_time`).

The manifest's solver figures and remesh events cover every step of the
run.  The solver figures are the counts of the run's two
`linalg.LaggedFactor`s.  `harmonic_iterations_*` count, per step, the
extension that step made for the next one (in a remesh step, which
makes none, the last one made), and `harmonic_factorizations` includes
a refactor made by the last step's extension.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .assembly import MATRIX_KINDS, PhaseParams
from .stepper import SimConfig, run
from .vtk_io import write_vtk


class ConfigError(Exception):
    pass


def parse_config_text(text: str) -> dict[str, str]:
    out = {}
    line_of = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if not key or not val:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: key {key!r} is already set "
                              f"on line {line_of[key]}")
        out[key] = val
        line_of[key] = lineno
    return out


def _floats(val: str, n: int, key: str):
    parts = [p for p in val.replace(",", " ").split() if p]
    if len(parts) != n:
        raise ConfigError(f"key {key!r} needs {n} numbers, got {val!r}")
    return tuple(float(p) for p in parts)


def config_keys() -> dict[str, tuple[type, object]]:
    """{key: (type, default)} of every config key in declaration order;
    the default is MISSING for a required key."""
    out = {}
    for cls in (PhaseParams, SimConfig):
        hints = get_type_hints(cls)
        for f in fields(cls):
            if f.name != "params":
                out[f.name] = (hints[f.name], f.default)
    return out


def _parse(val: str, key: str, kind: type, default):
    """The value of key: an int, a float, or a tuple of len(default)
    floats."""
    if kind is tuple:
        return _floats(val, len(default), key)
    return kind(val)


def load_config(path) -> SimConfig:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    kv = parse_config_text(text)
    keys = config_keys()
    missing = [k for k, (_, default) in keys.items()
               if default is MISSING and k not in kv]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    unknown = sorted(set(kv) - set(keys))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {k: _parse(val, k, *keys[k]) for k, val in kv.items()}
    params = PhaseParams(**{f.name: values.pop(f.name)
                            for f in fields(PhaseParams)})
    return SimConfig(params=params, **values)


def config_echo(config: SimConfig) -> dict:
    """Every config key with its value in config, tuples as lists."""
    values = asdict(config)
    params = values.pop("params")
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in {**params, **values}.items()}


def cmd_run(config_path, outdir, vtk_every: int = 0, quiet=False) -> int:
    from .observables import BenchmarkRecord

    if vtk_every < 0:
        print(f"--vtk-every must be 0 (off) or positive, got {vtk_every}",
              file=sys.stderr)
        return 2
    try:
        config = load_config(config_path)
    except (ConfigError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    rows = 0
    remesh_events = []
    saddle_iterations = []
    harmonic_iterations = []
    last_count = 0
    last = {}                           # of the level recorded last
    reached = "before the first t-level"

    def sink(i, state, rec):
        nonlocal rows, last_count, reached
        reached = f"after t-level {i} (t={state.t:g})"
        csv.write(rec.csv_row() + "\n")
        csv.flush()
        rows += 1
        saddle, harmonic = state.factor, state.harmonic_factor
        last.update(last_step=i, final_time=state.t,
                    saddle_factorizations=saddle.factorizations,
                    harmonic_factorizations=harmonic.factorizations)
        if i > 0:
            saddle_iterations.append(saddle.iterations)
            harmonic_iterations.append(harmonic.iterations)
        if rec.remesh_count > last_count:
            remesh_events.append({"step": i, "t": state.t,
                                  "count": rec.remesh_count})
            last_count = rec.remesh_count
        if vtk_every and i % vtk_every == 0:
            write_vtk(out / f"state_{i:06d}.vtk", state.mesh, state.u,
                      (state.spaces.pressure, state.p))
        if not quiet and (i % 50 == 0):
            print(f"step {i:6d}  t={state.t:.4f}  circ={rec.circularity:.5f} "
                  f"com_y={rec.center_of_mass[1]:.5f} "
                  f"v_rise={rec.rise_velocity:.5f} remesh={rec.remesh_count}")

    error = None
    # each row is written as the sink receives it, so that a failed run
    # keeps the rows before the failure
    with open(out / "bench.csv", "w") as csv:
        csv.write(BenchmarkRecord.CSV_HEADER + "\n")
        try:
            run(config, sinks=[sink])
        except Exception as err:
            error = err
            print(f"run failed {reached}: {err}", file=sys.stderr)
    manifest = {
        "version": __version__,
        "config": config_echo(config),
        "status": "completed" if error is None else "failed",
        "rows": rows,
        "csv": "bench.csv",
        "remesh_events": remesh_events,
        **last,
    }
    if error is not None:
        manifest["error"] = {"type": type(error).__name__,
                             "message": str(error)}
    for name, its in (("saddle", saddle_iterations),
                      ("harmonic", harmonic_iterations)):
        manifest[f"{name}_iterations_max"] = max(its, default=0)
        manifest[f"{name}_iterations_mean"] = (float(np.mean(its))
                                               if its else 0.0)
    manifest["cpus_available"] = len(os.sched_getaffinity(0))
    manifest["blas_threads"] = {name: os.environ.get(name) for name in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    if error is not None:
        return 1
    if not quiet:
        print(f"wrote {out / 'bench.csv'} ({rows} rows), "
              f"{len(remesh_events)} remesh events")
    return 0


def cmd_converge(config_path, levels: int = 3, m: int = 2, quiet=False) -> int:
    from .verify import spatial_convergence_study, study_problem

    problem = study_problem(levels, m)
    if problem is not None:
        print(f"converge: {problem}", file=sys.stderr)
        return 2
    try:
        config = load_config(config_path)
    except (ConfigError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    level = 0

    def progress(lvl, i, n):
        nonlocal level
        level = lvl
        if not quiet and i and i % 25 == 0:
            print(f"  level {lvl}: step {i}/{n}", file=sys.stderr)

    try:
        report = spatial_convergence_study(config, levels=levels, m=m,
                                           progress=progress)
    except Exception as err:
        print(f"converge failed at level {level} "
              f"(h={config.h / m ** level:g}): {err}", file=sys.stderr)
        return 1
    norm_of = {"u": "H1", "w": "H1", "phi": "H1", "p": "L2"}
    print(f"# spatial convergence, k={config.k}, tau={config.tau}, "
          f"T={config.T}, m={m}")
    print(f"{'h':>10} " + " ".join(f"{n + ':' + norm_of[n]:>14}"
                                   for n in ("u", "w", "phi", "p")))
    for i in range(levels - 1):
        hpair = f"{report.h_values[i]:.3g}/{report.h_values[i + 1]:.3g}"
        print(f"{hpair:>10} " + " ".join(
            f"{report.differences[n][i]:14.6e}" for n in ("u", "w", "phi", "p")))
    # rate row i compares difference rows i and i + 1
    for i in range(levels - 2):
        print(f"{'rate':>10} " + " ".join(
            f"{report.rates[n][i]:14.3f}" for n in ("u", "w", "phi", "p")))
    return 0


def cmd_verify(suite: str = "all") -> int:
    checks = build_verify_checks(suite)
    failed = 0
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as err:  # an oracle crash is a failure with context
            ok, detail = False, f"exception: {err}"
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        if not ok:
            failed += 1
            break
    return 1 if failed else 0


VERIFY_SUITES = ("homotopy", "transport", "manufactured", "matrices", "all")


def build_verify_checks(suite: str):
    from .fespace import build_taylor_hood
    from .mesh import generate_bubble_mesh
    from .quadrature import triangle_rule, triangle_monomial_integral
    from .verify import (homotopy_identity_residual, manufactured_flow_errors,
                         transport_formula_residual)

    if suite not in VERIFY_SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {VERIFY_SUITES}")
    checks = []

    if suite in ("matrices", "all"):
        def check_quadrature():
            worst = 0.0
            for d in range(13):
                r = triangle_rule(d)
                for a in range(d + 1):
                    for b in range(d + 1 - a):
                        got = (r.weights * r.points[:, 0] ** a
                               * r.points[:, 1] ** b).sum()
                        exact = triangle_monomial_integral(a, b)
                        worst = max(worst, abs(got - exact) / exact)
            return worst < 1e-14, f"worst relative error {worst:.2e}"

        def check_reference_matrices():
            from .fespace import build_scalar_space
            from .assembly import scalar_laplacian, scalar_mass
            from .mesh import geometry

            mesh = _unit_right_triangle()
            space = build_scalar_space(mesh, 1)
            M = scalar_mass(mesh, space).toarray()
            A = scalar_laplacian(geometry(mesh), space).toarray()
            M_exact = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
            A_exact = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0],
                                [-0.5, 0.0, 0.5]])
            err = max(np.abs(M - M_exact).max(), np.abs(A - A_exact).max())
            return err < 1e-14, f"max entry error {err:.2e}"

        checks += [("quadrature exactness", check_quadrature),
                   ("reference P1 matrices", check_reference_matrices)]

    if suite in ("homotopy", "all"):
        def check_homotopy():
            mesh = generate_bubble_mesh((0, 0, 1, 2), (0.5, 0.5), 0.25, 0.2, 2)
            spaces = build_taylor_hood(mesh, 2)
            params = PhaseParams(1000.0, 100.0, 10.0, 1.0, 0.98)
            rng = np.random.default_rng(2024)
            n_u = 2 * spaces.velocity.n_dofs
            worst = 0.0
            for kind in MATRIX_KINDS:
                for _ in range(4):
                    e_x = smooth_displacement(rng, spaces.velocity.positions,
                                              1e-2)
                    u = rng.normal(size=n_u)
                    nv = spaces.pressure.n_dofs if kind == "C" else n_u
                    v = rng.normal(size=nv)
                    r = homotopy_identity_residual(mesh, e_x, kind, u, v,
                                                   params=params, spaces=spaces)
                    worst = max(worst, r)
                    if r >= 1e-9:
                        return False, f"kind {kind}: residual {r:.2e}"
            return True, f"worst residual {worst:.2e}"

        checks.append(("matrix homotopy identities", check_homotopy))

    if suite in ("transport", "all"):
        def check_transport():
            mesh = generate_bubble_mesh((0, 0, 1, 2), (0.5, 0.5), 0.25, 0.2, 2)
            spaces = build_taylor_hood(mesh, 2)
            rng = np.random.default_rng(11)
            w = smooth_displacement(rng, spaces.velocity.positions, 0.1)
            f = rng.normal(size=spaces.velocity.n_dofs)
            res = [transport_formula_residual(mesh, w, f, tau)
                   for tau in (0.02, 0.01, 0.005)]
            orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
            ok = all(0.9 <= o <= 1.1 for o in orders)
            return ok, f"decay orders {[round(o, 3) for o in orders]}"

        checks.append(("transport formula", check_transport))

    if suite in ("manufactured", "all"):
        def check_manufactured():
            eu0, ep0 = manufactured_flow_errors(2, 0.2, 0.05, 1.0, case="poly")
            if max(eu0, ep0) > 1e-9:
                return False, f"polynomial reproduction errors {eu0:.2e}, {ep0:.2e}"
            errs = [manufactured_flow_errors(2, h, 0.02, 1.0, case="trig")
                    for h in (0.2, 0.1)]
            rate_u = math.log2(errs[0][0] / errs[1][0])
            rate_p = math.log2(errs[0][1] / errs[1][1])
            ok = rate_u >= 1.8 and rate_p >= 1.6
            return ok, f"H1 u rate {rate_u:.2f}, L2 p rate {rate_p:.2f}"

        checks.append(("manufactured flow", check_manufactured))

    return checks


def smooth_displacement(rng, pts, amp):
    """Random smooth displacement field, normalized to sup-norm amp."""
    out = np.zeros((len(pts), 2))
    for _ in range(3):
        kx, ky = rng.integers(1, 4, size=2)
        phx, phy = rng.uniform(0, 2 * np.pi, size=2)
        a = rng.normal(size=2)
        out[:, 0] += a[0] * np.sin(kx * np.pi * pts[:, 0] + phx) \
            * np.cos(ky * np.pi * pts[:, 1] / 2 + phy)
        out[:, 1] += a[1] * np.cos(kx * np.pi * pts[:, 0] + phx) \
            * np.sin(ky * np.pi * pts[:, 1] / 2 + phy)
    out *= amp / np.abs(out).max()
    return out.ravel()


def _unit_right_triangle():
    from .mesh import Mesh

    return Mesh(
        x=np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0]),
        elements=np.array([[0, 1, 2]]),
        phase=np.array([1], dtype=np.int8),
        interface_edges=np.empty((0, 2), dtype=int),
        boundary_edges=np.array([[0, 0], [0, 1], [0, 2]]),
        degree=1,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="alefem",
        description="Two-phase incompressible flow on an interface-tracking "
                    "moving mesh")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark simulation")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--output", default="out")
    p_run.add_argument("--vtk-every", type=int, default=0, metavar="N")
    p_run.add_argument("-q", "--quiet", action="store_true")

    p_conv = sub.add_parser("converge", help="nested-mesh convergence study")
    p_conv.add_argument("config")
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.add_argument("-m", type=int, default=2, dest="m")
    p_conv.add_argument("-q", "--quiet", action="store_true")

    p_ver = sub.add_parser("verify", help="run the verification oracles")
    p_ver.add_argument("suite", nargs="?", default="all",
                       choices=VERIFY_SUITES)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.output, vtk_every=args.vtk_every,
                       quiet=args.quiet)
    if args.command == "converge":
        return cmd_converge(args.config, levels=args.levels, m=args.m,
                            quiet=args.quiet)
    return cmd_verify(args.suite)


if __name__ == "__main__":
    sys.exit(main())
