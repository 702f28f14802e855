"""Output checks for the rise workloads.

Seed 0 is compared record by record with the committed reference run of
the code as of this benchmark (`reference/<workload>.json`, written by
`make_reference.py`): at solver tolerance while neither run has
remeshed, and within stated physical tolerances after a remesh, since a
change to remeshing legitimately moves the observables.  Records beyond
the reference, and every record of another seed, get the physical sanity
checks only.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

OBSERVABLES = ("circularity", "com_x", "com_y", "rise_velocity",
               "area_minus", "total_energy")

# |value - reference| <= tol * scale, scale = max |reference| over the run
SOLVER_RTOL = 1e-8
PHYSICAL_RTOL = {
    "circularity": 5e-3,
    "com_x": 5e-3,
    "com_y": 5e-3,
    "rise_velocity": 5e-2,
    "area_minus": 5e-3,
    "total_energy": 1e-2,
}
# sanity bound on |area_minus - area_minus(t=0)| / area_minus(t=0); the
# reference run drifts 0.7% by t=1.41 at h=0.08
AREA_DRIFT_MAX = 2e-2


def observables(record) -> dict:
    return {
        "t": record.t,
        "circularity": record.circularity,
        "com_x": record.center_of_mass[0],
        "com_y": record.center_of_mass[1],
        "rise_velocity": record.rise_velocity,
        "area_minus": record.area_minus,
        "total_energy": record.total_energy,
        "remesh_count": record.remesh_count,
    }


def load_reference(workload: str) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def _sane(obs: dict, area0: float) -> str | None:
    for name in OBSERVABLES:
        if not math.isfinite(obs[name]):
            return f"{name} is not finite"
    if not 0.0 < obs["circularity"] <= 1.0 + 1e-9:
        return f"circularity {obs['circularity']:.6g} outside (0, 1]"
    drift = abs(obs["area_minus"] - area0) / area0
    if drift > AREA_DRIFT_MAX:
        return f"bubble area drifted by {drift:.3e} > {AREA_DRIFT_MAX:g}"
    return None


def check_records(records: list, reference: dict | None) -> list[dict]:
    """Mismatching steps as {step, t, reason}; empty when all match."""
    obs = [observables(r) for r in records]
    area0 = obs[0]["area_minus"]
    ref_steps = reference["steps"] if reference else []
    scale = {name: max((abs(r[name]) for r in ref_steps), default=1.0)
             for name in OBSERVABLES}
    out = []
    for i, o in enumerate(obs):
        reason = _sane(o, area0)
        if reason is None and i < len(ref_steps):
            ref = ref_steps[i]
            remeshed = o["remesh_count"] > 0 or ref["remesh_count"] > 0
            for name in OBSERVABLES:
                tol = (PHYSICAL_RTOL[name] if remeshed else SOLVER_RTOL) \
                    * max(scale[name], 1e-30)
                err = abs(o[name] - ref[name])
                if not err <= tol:
                    reason = (f"{name} {o[name]!r} vs reference {ref[name]!r} "
                              f"(|diff| {err:.3e} > {tol:.3e}, "
                              f"{'physical' if remeshed else 'solver'} tolerance)")
                    break
        if reason is not None:
            out.append({"step": i, "t": o["t"], "reason": reason})
    return out
