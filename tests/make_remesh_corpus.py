"""Write tests/data/remesh_corpus.npz: the old interface curves that the
BP1 runs to T=3 hand to their remeshes.

    python tests/make_remesh_corpus.py           # write the corpus
    python tests/make_remesh_corpus.py --check   # exit 1 if it drifted

Four runs of BP1 (rho 1000/100, mu 10/1, g 0.98, the default bubble),
tau = 1/200, T = 3: k=2 at h=0.04 (the default `alefem run`), k=2 at
h=0.08, k=3 at h=0.08 and k=3 at h=0.04.  Each steps until T or until a
step raises one of the package's typed errors, as all four do today.
A wrapper of `ale._redistribute` records every curve a remesh reads:
the (n, k+1, 2) node positions of the old interface edges in cycle
order, with the run, the step, h and k.  The file also holds the commit
and the numpy and scipy versions it was made with.

BLAS runs on one thread, since the results depend on the thread count
otherwise.  --check makes the curves again and compares every array of
the committed file except those three strings, bit for bit.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from alefem import ale, stepper  # noqa: E402
from alefem.assembly import PhaseParams  # noqa: E402
from alefem.fespace import PointLocationError  # noqa: E402
from alefem.linalg import SolverError  # noqa: E402
from alefem.mesh import MeshError  # noqa: E402

CORPUS = ROOT / "tests" / "data" / "remesh_corpus.npz"
BP1 = PhaseParams(1000.0, 100.0, 10.0, 1.0, 0.98)
TAU = 1.0 / 200.0
T = 3.0
# (run name, k, h)
RUNS = (("k2_h04", 2, 0.04), ("k2_h08", 2, 0.08),
        ("k3_h08", 3, 0.08), ("k3_h04", 3, 0.04))
RUN_ERRORS = (ale.RemeshError, SolverError, MeshError, PointLocationError)
# arrays that name where the corpus came from, not what it holds
PROVENANCE = ("commit", "numpy", "scipy")


def run_curves(k: int, h: float):
    """The curves one run hands to `_redistribute`, with their steps, and
    how the run ended."""
    config = stepper.SimConfig(params=BP1, k=k, h=h, tau=TAU, T=T)
    curves, steps = [], []
    step = 0
    redistribute = ale._redistribute

    def recording(pos, h):
        curves.append(np.array(pos))
        steps.append(step)
        return redistribute(pos, h)

    ale._redistribute = recording
    try:
        state = stepper.initialize(config)
        for step in range(1, config.n_steps + 1):
            state = stepper.step(state, config)
        end = f"reached T={T}"
    except RUN_ERRORS as err:
        end = f"step {step}: {type(err).__name__}: {err}"
    finally:
        ale._redistribute = redistribute
    return curves, steps, end


def commit() -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return "unknown"
    dirty = git("diff", "--quiet", "HEAD", "--", "src").returncode != 0
    return head.stdout.strip() + ("-dirty" if dirty else "")


def make_corpus() -> dict:
    arrays, meta = {}, {"run": [], "step": [], "h": [], "k": []}
    for name, k, h in RUNS:
        t0 = time.perf_counter()
        curves, steps, end = run_curves(k, h)
        print(f"{name}: {len(curves)} curves at steps {steps}; {end} "
              f"({time.perf_counter() - t0:.0f} s)", flush=True)
        for curve, step in zip(curves, steps):
            arrays[f"curve_{len(meta['run']):02d}"] = curve
            for key, value in zip(meta, (name, step, h, k)):
                meta[key].append(value)
    arrays.update({key: np.array(values) for key, values in meta.items()})
    arrays.update(commit=np.array(commit()), numpy=np.array(np.__version__),
                  scipy=np.array(scipy.__version__))
    return arrays


def drift(new: dict, path: Path) -> list[str]:
    """The arrays of new that differ from those in path, bit for bit."""
    with np.load(path) as old:
        names = sorted((set(old.files) | set(new)) - set(PROVENANCE))
        return [name for name in names
                if name not in old.files or name not in new
                or old[name].dtype != new[name].dtype
                or old[name].shape != new[name].shape
                or old[name].tobytes() != new[name].tobytes()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="regenerate and compare with the committed "
                             "corpus instead of writing it")
    args = parser.parse_args(argv)
    arrays = make_corpus()
    if args.check:
        changed = drift(arrays, CORPUS)
        if changed:
            print(f"corpus drifted in {len(changed)} arrays: "
                  f"{', '.join(changed)}")
            return 1
        print("corpus unchanged")
        return 0
    CORPUS.parent.mkdir(exist_ok=True)
    np.savez_compressed(CORPUS, **arrays)
    print(f"wrote {CORPUS.relative_to(ROOT)} "
          f"({CORPUS.stat().st_size / 1024:.1f} KB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
