"""Self-test of the traced run's probes.

    python3 -m pytest bench/tests
"""

import openroots
import openroots.descent
import openroots.tracer

import probes


def _traced(fn, *args):
    rec = probes.Recorder()
    rec.install(openroots)
    try:
        rec.solve_id = 0
        rec.call("bench.solve", fn, *args)
    finally:
        rec.uninstall()
    return rec


def test_uninstall_restores_every_binding():
    before = (openroots.descent.eval_poly, openroots.descent.descent_step,
              openroots.tracer.eval_jet, openroots.matcher.solve_root)
    _traced(openroots.all_roots, openroots.Poly([-1, 0, 0, 1]), 1e-9)
    after = (openroots.descent.eval_poly, openroots.descent.descent_step,
             openroots.tracer.eval_jet, openroots.matcher.solve_root)
    assert before == after


def test_descent_counts_and_spans():
    rec = _traced(openroots.all_roots, openroots.Poly([-1, 0, 0, 1]), 1e-9)
    metrics, absent = probes.layer_metrics(rec)
    assert absent == []
    # raw solves at degree 3 and 2 (degree 1 is direct), 3 polishes
    assert metrics["descent.solve_root_calls"][0] == 5
    assert metrics["descent.steps"][0] > 0
    assert metrics["polycore.evals"][0] > 0
    assert metrics["tracer.trace_curve_calls"][0] == 0
    solves = [s for s in rec.spans if s[0] == "descent.solve_root"]
    assert all(s[3] == 0 and s[4] == 0 and s[5] for s in solves)


def test_pipeline_counts_per_binding():
    rec = _traced(openroots.run_pipeline, openroots.Poly([1, 0, 1]), 1e-9)
    metrics, _ = probes.layer_metrics(rec)
    # degree 2: 4 P-nodes and 4 Q-nodes pair into 2 + 2 arcs, plus one
    # reverse audit per family
    assert metrics["tracer.trace_curve_calls"][0] == 6
    assert metrics["tracer.audit_traces"][0] == 2
    assert metrics["tracer.evals"][0] > metrics["tracer.samples"][0] > 0
    assert metrics["matcher.polish_s"][0] > 0
    self_total = sum(v for k, (v, _) in metrics.items()
                     if k.endswith(".self_s"))
    assert self_total <= rec.total_s["bench.solve"]


def test_missing_names_make_metrics_absent(monkeypatch):
    for mod in (openroots.descent, openroots.matcher, openroots.tracer):
        monkeypatch.delattr(mod, "eval_with_derivative")
    monkeypatch.delattr(openroots.descent, "descent_step")
    rec = probes.Recorder()
    rec.install(openroots)
    rec.uninstall()
    metrics, absent = probes.layer_metrics(rec)
    assert {"descent.steps", "descent.step_s",
            "descent.steps_per_root"} <= set(absent)
    assert "polycore.evals" in metrics and "tracer.evals" in metrics
