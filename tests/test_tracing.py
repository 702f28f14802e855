"""The benchmark's span tracer must find every function it wraps.

`perfbench/tracing.py` wraps functions where their callers look them
up, by attribute name; a rename in the package would break the traced
benchmark run without failing any other test.
"""

import importlib.util
from pathlib import Path

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
