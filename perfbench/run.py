"""Rising-bubble benchmark for alefem.

    python3 perfbench/run.py --workload rise_h04 --seed 0 --seconds 15 --trace 0

Runs one workload in this process and prints every metric by name with
its unit, then, as the last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json; with `--trace 1`
the per-layer metrics of a separate traced run.  The full result, with
the environment and (traced) the span table, goes to
`perfbench/out/<workload>_seed<seed>_trace<0|1>.json`.

The package is imported from `src/` next to this directory; the run
fails when that source tree is missing.  BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu": _cpu_model(),
    }


# end-to-end metrics that are printed but not gated in BENCHMARK.json
PRINTED_UNITS = {"steps_per_s": "1/s", "step_ms_p50": "ms",
                 "step_ms_tail": "ms",
                 "fail_ratio": "ratio", "area_drift_rate": "1/time",
                 "suite_s": "s"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "alefem" / "__init__.py").is_file():
        print(f"error: no alefem source tree at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import alefem

    if Path(alefem.__file__).resolve().parent != SRC / "alefem":
        print(f"error: imported alefem from {alefem.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    tracer = tracing.Tracer() if args.trace else None
    if args.workload == "verify_all":
        result = workloads.run_verify(args.seed, args.seconds, tracer)
    else:
        result = workloads.run_rise(workloads.RISE[args.workload], args.seed,
                                    args.seconds, tracer)
    print(json.dumps(finish(result, args.seed, args.seconds, tracer)))
    return 0


def finish(result: dict, seed: int, seconds: float, tracer) -> dict:
    """Complete a workload result, write it to perfbench/out, print the
    report, and return the last-line object."""
    import tracing

    trace = int(tracer is not None)
    result["e2e"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result.update(seed=seed, seconds=seconds, trace=trace, env=environment())
    if tracer is not None:
        result["spans"] = tracing.spans_json(tracer)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{result['workload']}_seed{seed}_trace{trace}.json"
    out_path.write_text(json.dumps(result) + "\n")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print_report(result, units)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    source = result["layers"] if trace else result["e2e"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": source[n], "unit": units[n]} for n in names},
    }


def print_report(result: dict, units: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']}"
          f" seconds={result['seconds']:g}")
    print(f"# env {json.dumps(result['env'])}")
    print(f"# config {json.dumps(result['config'])}")
    e2e = result["e2e"]
    for name, value in e2e.items():
        if name == "tail":
            continue
        unit = units.get(name) or PRINTED_UNITS[name]
        line = f"{name:<24} {value:14.6g} {unit}"
        if name == "step_ms_tail":
            t = e2e["tail"]
            line += (f"   (p{t['percentile']:.1f}, {t['beyond']} of "
                     f"{t['samples']} samples beyond)")
        print(line)
    print(f"{'attempted':<24} {result['attempted']:14d}")
    print(f"{'failed':<24} {result['failed']:14d}")
    for f in result["failures"]:
        print(f"# failure {json.dumps(f)}")
    for m in result.get("mismatches", []):
        print(f"# mismatch {json.dumps(m)}")
    if "reference_checked" in result:
        print(f"# reference check: "
              f"{'seed-0 reference' if result['reference_checked'] else 'sanity only'}"
              f", correct={result['correct']}")
    if "layers" not in result:
        return
    tr = result["trace_report"]
    print(f"# traced: {tr['traced_steps']} steps, untraced reference: "
          f"{tr['untraced_steps']}; traced p50 {tr['traced_step_ms_p50']:.3f} ms, "
          f"untraced p50 {tr['untraced_step_ms_p50'] or float('nan'):.3f} ms")
    print(f"# traced step mean {tr['traced_step_ms_mean']:.3f} ms = self-time sum "
          f"{tr['self_ms_sum']:.3f} ms + unattributed {tr['unattributed_ms']:.3f} ms")
    print("# self time per step, ranked")
    for row in tr["self_ranked"]:
        print(f"#   {row['span']:<28} {row['self_ms']:11.3f} ms  "
              f"{row['calls']:8.2f} calls")
    for name, value in result["layers"].items():
        print(f"{name:<34} {value:14.6g} {units[name]}")


if __name__ == "__main__":
    sys.exit(main())
