"""Write the reference observables of the rise workloads at seed 0.

    python3 perfbench/make_reference.py [workload ...]

Runs each rise workload's seed-0 configuration untimed for its reference
horizon and writes `perfbench/reference/<workload>.json`: circularity,
centre of mass, rise velocity, bubble area and total energy at every
step, the remesh count, and the typed error that ended the run, if any.
The committed files were produced by the code as of this benchmark;
regenerate them only when a change is meant to alter the simulation.
"""

from __future__ import annotations

import json
import os
import sys

from run import BLAS_THREAD_VARS, SRC

for var in BLAS_THREAD_VARS:
    os.environ[var] = "1"
sys.path.insert(0, str(SRC))

from alefem import stepper  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

# steps recorded per workload: the whole rise_h08 attempt, and well past
# the timed window of the others on this class of machine
REFERENCE_STEPS = {"rise_h08": 300, "rise_h04": 80, "rise_h02": 12}


def reference(name: str) -> dict:
    spec = workloads.RISE[name]
    config = workloads.rise_config(spec, 0, steps=REFERENCE_STEPS[name])
    records = []
    failure = None
    try:
        stepper.run(config, sinks=[lambda i, s, rec: records.append(rec)])
    except workloads.STEP_ERRORS as err:
        failure = {"step": len(records), "error": type(err).__name__,
                   "message": str(err)}
    return {
        "workload": name,
        "config": {"h": config.h, "k": config.k, "tau": config.tau,
                   "T": config.T, "circle_center": list(config.circle_center)},
        "failure": failure,
        "steps": [checks.observables(r) for r in records],
    }


def main(names) -> int:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or workloads.RISE:
        ref = reference(name)
        path = checks.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=0) + "\n")
        print(f"{path}: {len(ref['steps'])} records, failure {ref['failure']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
