"""Per-layer tracing for the benchmark's traced runs.

Wrappers are installed on module attributes of the package under test
and removed afterwards; the package itself is not edited.  A name is
wrapped where the consumer module binds it: ``from .polycore import
eval_poly`` gives ``descent``, ``tracer``, ``matcher`` and ``annulus``
each their own binding, so each binding gets its own probe.  A probe
whose name no longer exists is skipped, and every metric built only from
skipped probes is reported as absent.

Three probe kinds:

* SPAN records (name, start, end, parent span, solve id, ok, info) in
  memory; written out when the run ends.
* TIMED adds its call count and time to totals without a span record,
  for calls too frequent to keep one record each (descent steps).
* COUNT only counts calls (polynomial evaluations).

SPAN and TIMED calls also keep a frame stack, so each label's self time
(its duration minus the time of the probed calls inside it) is exact.
"""

import functools
import json
import time

SPAN, TIMED, COUNT = "span", "timed", "count"
EVALS = ("eval_poly", "eval_with_derivative", "eval_jet")
CONSUMERS = ("polycore", "descent", "annulus", "tracer", "matcher")

# (binding module, name, kind, layer that defines the function)
PROBES = (
    *[(mod, name, COUNT, "polycore") for mod in CONSUMERS for name in EVALS],
    ("descent", "taylor_shift", TIMED, "polycore"),
    ("descent", "descent_step", TIMED, "descent"),
    ("descent", "solve_root", SPAN, "descent"),
    ("descent", "all_roots", SPAN, "descent"),
    ("tracer", "critical_points", SPAN, "polycore"),
    ("matcher", "perturb_regular", SPAN, "tracer"),
    ("annulus", "locate_boundary_nodes", SPAN, "annulus"),
    ("annulus", "boundary_nodes", COUNT, "annulus"),
    ("matcher", "compute_matchings", SPAN, "tracer"),
    ("tracer", "trace_curve", SPAN, "tracer"),
    ("tracer", "separation_audit", SPAN, "tracer"),
    ("matcher", "find_separated_pair", SPAN, "matcher"),
    ("matcher", "locate_crossing", SPAN, "matcher"),
    ("matcher", "_pair_miranda", COUNT, "matcher"),
    ("matcher", "solve_root", SPAN, "descent"),
    ("cli", "all_roots", SPAN, "descent"),
    ("cli", "run_pipeline", SPAN, "matcher"),
)

LAYERS = ("polycore", "descent", "annulus", "tracer", "matcher", "cli")


def _info(label, result):
    # Work carried by a span's result: samples of a traced arc, arcs of a
    # matching.  None when a later version returns something else.
    try:
        if label == "tracer.trace_curve":
            return len(result.samples)
        if label == "matcher.compute_matchings":
            return len(result[2])
    except (AttributeError, TypeError, IndexError, KeyError):
        return None
    return None


class Recorder:
    """Spans, counts and times of one traced run."""

    def __init__(self):
        self.spans = []   # [label, start, end, parent, solve, ok, info]
        self.span_stack = []
        self.frames = []  # [label, child_time]
        self.counts = {}
        self.total_s = {}
        self.self_s = {}
        self.layer_of = {"bench.solve": "bench", "cli.run": "cli"}
        # frames the benchmark opens itself count as installed probes
        self.installed = {"bench.solve", "cli.run"}
        self.solve_id = -1
        self._saved = []

    # -- wrapping ---------------------------------------------------------

    def install(self, package):
        """Wrap every probe whose module and name exist under ``package``."""
        for mod_name, name, kind, layer in PROBES:
            module = getattr(package, mod_name, None)
            fn = getattr(module, name, None) if module is not None else None
            if fn is None or not callable(fn):
                continue
            label = f"{mod_name}.{name}"
            self.layer_of[label] = layer
            self.installed.add(label)
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(label, kind, fn))

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, label, kind, fn):
        counts = self.counts
        counts[label] = 0
        if kind == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[label] += 1
                return fn(*args, **kwargs)
            return counted

        record = kind == SPAN

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self._call(label, record, fn, args, kwargs)
        return timed

    # -- frames and spans -------------------------------------------------

    def call(self, label, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of the benchmark's own."""
        return self._call(label, True, fn, args, kwargs)

    def _call(self, label, record, fn, args, kwargs):
        index = self._open(label, record)
        ok, result = False, None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            self._close(label, index, start, time.perf_counter(), ok, result)

    def _open(self, label, record):
        self.counts[label] = self.counts.get(label, 0) + 1
        self.frames.append([label, 0.0])
        index = None
        if record:
            parent = self.span_stack[-1] if self.span_stack else -1
            index = len(self.spans)
            self.spans.append([label, 0.0, 0.0, parent, self.solve_id, False,
                               None])
            self.span_stack.append(index)
        return index

    def _close(self, label, index, start, end, ok, result):
        duration = end - start
        _, child = self.frames.pop()
        if self.frames:
            self.frames[-1][1] += duration
        self.total_s[label] = self.total_s.get(label, 0.0) + duration
        self.self_s[label] = self.self_s.get(label, 0.0) + duration - child
        if index is not None:
            self.span_stack.pop()
            span = self.spans[index]
            span[1], span[2], span[5] = start, end, ok
            if ok:
                span[6] = _info(label, result)

    # -- output -----------------------------------------------------------

    def dump(self):
        """Plain data for writing out or merging across processes."""
        return {"spans": self.spans, "counts": self.counts,
                "total_s": self.total_s, "self_s": self.self_s,
                "layer_of": self.layer_of, "installed": sorted(self.installed)}

    def merge(self, data):
        """Add the dump of another recorder (a traced child process)."""
        offset = len(self.spans)
        for span in data["spans"]:
            span = list(span)
            if span[3] >= 0:
                span[3] += offset
            self.spans.append(span)
        for key in ("counts", "total_s", "self_s"):
            mine = getattr(self, key)
            for label, value in data[key].items():
                mine[label] = mine.get(label, 0) + value
        self.layer_of.update(data["layer_of"])
        self.installed.update(data["installed"])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec):
    """Per-layer metrics from a recorder: ({name: (value, unit)}, absent).

    A metric whose every source probe is missing is left out of the dict
    and named in the ``absent`` list.
    """
    have = rec.installed
    counts, total, own = rec.counts, rec.total_s, rec.self_s
    out, absent = {}, []

    def put(name, unit, value, *needs):
        # each of ``needs`` is a group of labels, one of which must exist
        if all(any(lb in have for lb in group) for group in needs):
            out[name] = (value(), unit)
        else:
            absent.append(name)

    def count(*labels):
        return sum(counts.get(lb, 0) for lb in labels)

    def secs(*labels):
        return sum(total.get(lb, 0.0) for lb in labels)

    evals = [f"{m}.{e}" for m in CONSUMERS for e in EVALS]
    tracer_evals = [f"tracer.{e}" for e in EVALS]
    matcher_evals = [f"matcher.{e}" for e in EVALS]
    solve_root = ["descent.solve_root", "matcher.solve_root"]
    step = ["descent.descent_step"]
    trace = ["tracer.trace_curve"]
    spans = rec.spans

    def samples():
        return sum(s[6] or 0 for s in spans if s[0] == "tracer.trace_curve")

    def audit_traces():
        # trace_curve calls inside a successful compute_matchings, minus
        # the arcs it returned: the reverse-trace audit's extra work
        good = {i: s[6] or 0 for i, s in enumerate(spans)
                if s[0] == "matcher.compute_matchings" and s[5]}
        traces = sum(1 for s in spans
                     if s[0] == "tracer.trace_curve" and s[3] in good)
        return traces - sum(good.values())

    def simple(name, unit, label, of):
        put(name, unit, lambda: of(label), [label])

    put("polycore.evals", "count", lambda: count(*evals), evals)
    simple("polycore.taylor_shift_calls", "count", "descent.taylor_shift",
           count)
    simple("polycore.taylor_shift_s", "s", "descent.taylor_shift", secs)
    simple("polycore.critical_points_s", "s", "tracer.critical_points", secs)
    put("descent.solve_root_calls", "count", lambda: count(*solve_root),
        solve_root)
    simple("descent.steps", "count", "descent.descent_step", count)
    put("descent.steps_per_root", "ratio",
        lambda: _ratio(count(*step), count(*solve_root)), step, solve_root)
    simple("descent.step_s", "s", "descent.descent_step", secs)
    put("descent.solve_root_s", "s", lambda: secs(*solve_root), solve_root)
    put("descent.failures", "count",
        lambda: sum(1 for s in spans if s[0] in solve_root and not s[5]),
        solve_root)
    simple("annulus.locate_s", "s", "annulus.locate_boundary_nodes", secs)
    put("annulus.node_passes", "ratio",
        lambda: _ratio(count("annulus.boundary_nodes"),
                       count("annulus.locate_boundary_nodes")),
        ["annulus.boundary_nodes"], ["annulus.locate_boundary_nodes"])
    simple("tracer.perturb_s", "s", "matcher.perturb_regular", secs)
    simple("tracer.matchings_s", "s", "matcher.compute_matchings", secs)
    simple("tracer.trace_curve_calls", "count", "tracer.trace_curve", count)
    put("tracer.audit_traces", "count", audit_traces, trace,
        ["matcher.compute_matchings"])
    put("tracer.samples", "count", samples, trace)
    put("tracer.evals", "count", lambda: count(*tracer_evals), tracer_evals)
    put("tracer.evals_per_sample", "ratio",
        lambda: _ratio(count(*tracer_evals), samples()), tracer_evals, trace)
    simple("tracer.separation_audit_s", "s", "tracer.separation_audit", secs)
    simple("matcher.separated_pair_s", "s", "matcher.find_separated_pair",
           secs)
    simple("matcher.crossing_s", "s", "matcher.locate_crossing", secs)
    put("matcher.crossing_evals", "count", lambda: count(*matcher_evals),
        matcher_evals)
    simple("matcher.miranda_calls", "count", "matcher._pair_miranda", count)
    simple("matcher.polish_s", "s", "matcher.solve_root", secs)
    simple("cli.run_s", "s", "cli.run", secs)
    for layer in LAYERS:
        labels = [lb for lb, ly in rec.layer_of.items() if ly == layer]
        put(f"{layer}.self_s", "s",
            lambda labels=labels: sum(own.get(lb, 0.0) for lb in labels),
            labels)
    return out, absent
