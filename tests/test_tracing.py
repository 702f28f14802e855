"""The benchmark's span tracer must find every function it wraps.

`perfbench/tracing.py` wraps functions where their callers look them
up, by attribute name; a rename in the package, or a change to what a
wrapped function calls or returns, would break the traced benchmark
run without failing any other test.
"""

import importlib.util
from pathlib import Path

from alefem import stepper
from alefem.stepper import SimConfig

from conftest import BP1

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_site():
    tracer = load_tracing().Tracer()
    sites = [(owner, attr) for owner, attr, _, _ in tracer.sites()]
    originals = [getattr(owner, attr) for owner, attr in sites]
    tracer.install()
    try:
        wrapped = [getattr(owner, attr) for owner, attr in sites]
    finally:
        tracer.remove()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(getattr(owner, attr) is o
               for (owner, attr), o in zip(sites, originals))


def test_traced_steps_record_every_span():
    """Two traced steps at h=0.16: what `step` calls and returns still
    suits the wrappers, each step is one span, and every span closes."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    config = SimConfig(params=BP1, k=2, h=0.16, tau=1.0 / 200.0,
                       T=2.0 / 200.0)
    tracer.install()
    try:
        _, records = stepper.run(config)
    finally:
        tracer.remove()
    assert len(records) == 3
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names.count("stepper.step") == 2
    assert all(span[tracing.END] >= span[tracing.START] > 0.0
               for span in tracer.spans)
