"""Smoke test of the benchmark: a tiny rise configuration (h=0.16, a
warm-up step and two timed steps) untraced and traced, and one timed
`verify_all` pass.  It checks that every named metric is emitted with a
unit; it has no timing thresholds.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.Rise("tiny_h16", h=0.16, max_steps=3, min_timed=2,
                      fixed=True, untraced=1, setups=2)
PRINTED = ("steps_per_s", "step_ms_p50", "step_ms_tail", "fail_ratio")


def _assert_emitted(line: dict, kind: str, printed: str, extra=()):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    names = [m["name"] for m in SPEC[kind]]
    assert list(line["metrics"]) == names
    for m in SPEC[kind]:
        entry = line["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float)
    for name in names + list(extra):
        assert any(row.split()[:1] == [name] and len(row.split()) >= 3
                   for row in printed.splitlines()), name
    json.dumps(line, allow_nan=False)


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_rise_emits_every_metric(trace, capsys):
    tracer = tracing.Tracer() if trace else None
    result = workloads.run_rise(TINY, 0, 0.0, tracer)
    line = run.finish(result, 0, 0.0, tracer)
    printed = capsys.readouterr().out
    kind = "per_layer" if trace else "end_to_end"
    _assert_emitted(line, kind, printed,
                    () if trace else PRINTED + ("area_drift_rate",))
    if trace:
        assert line["metrics"]["linalg.factorizations_per_step"]["value"] == 1.0
        assert line["metrics"]["ale.remeshes"]["value"] == 0.0


def test_one_verify_pass_emits_every_metric(capsys):
    result = workloads.run_verify(0, 0.0)
    line = run.finish(result, 0, 0.0, None)
    printed = capsys.readouterr().out
    _assert_emitted(line, "end_to_end", printed, PRINTED + ("suite_s",))
    assert result["config"]["passes"] == 2      # warm-up and one timed pass
