"""The module bindings that the benchmark's probes wrap or its tests read.

The benchmark's probes wrap names where the consumer module binds them,
and its self-test reads these bindings directly, so removing one breaks
the benchmark's own tests even when every caller inside the package was
updated.  A probed name that is gone drops its metrics from the traced
result line without failing the run, so the full metric set is checked
here too.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import openroots
import openroots.cli  # noqa: F401  (the probes wrap cli bindings too)
from openroots import descent, matcher, tracer

ROOT = Path(__file__).resolve().parents[1]
# metrics bench/run.py adds to the probes' own
RUN_METRICS = {"cli.scipy_import_s", "trace.overhead"}

BINDINGS = [
    (descent, "eval_poly"),
    (descent, "descent_step"),
    (tracer, "eval_jet"),
    (matcher, "solve_root"),
    (descent, "eval_with_derivative"),
    (matcher, "eval_with_derivative"),
    (tracer, "eval_with_derivative"),
]


@pytest.mark.parametrize("module, name", BINDINGS,
                         ids=[f"{m.__name__}.{n}" for m, n in BINDINGS])
def test_binding_exists(module, name):
    assert callable(getattr(module, name, None))


def test_traced_run_reports_every_per_layer_metric():
    spec = importlib.util.spec_from_file_location(
        "bench_probes", ROOT / "bench" / "probes.py")
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    rec = probes.Recorder()
    rec.install(openroots)
    rec.uninstall()
    metrics, absent = probes.layer_metrics(rec)
    assert absent == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) | RUN_METRICS == {m["name"] for m in declared}
