"""The openroots benchmark: one command, three workloads.

    python3 bench/run.py --workload {descent,gauss,cli-cold} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Every workload is a closed loop from one process with one solve
in flight, over a corpus drawn from ``--seed`` (see corpus.py):

* descent:  ``all_roots(p, 1e-9)`` in process;
* gauss:    ``run_pipeline(p, 1e-9)`` in process;
* cli-cold: one ``python -m openroots.cli --poly=... --method M --tol 1e-09``
  process per solve.

Every answer goes through the independent oracle (oracle.py).  The timed
loop makes whole passes over the corpus, as many as fit in ``--seconds``
and at least one, so for a fixed seed the counts of attempted and failed
solves are exact.  Times are in seconds of the reference machine
(speed.py); the raw wall times are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one
untraced and one traced pass and prints the per-layer metrics (probes.py)
and ``trace.overhead``, the traced over the untraced roots/s; no
end-to-end number comes from it.  Spans are written to
``.bench_out/spans-WORKLOAD-seedN.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts every
failed solve: an explicit RootFindError (CLI exit code 2), a wrong root
count, a root the oracle rejects, or a crash.  ``correct`` is false when a
solve broke the library's contract (a wrong root count, a root failing the
residual test) or crashed; a root list that passes root by root but does
not rebuild p counts as failed without making the run incorrect.
"""

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
from oracle import Outcome, Tally, outcome_from_cli
from speed import compute_calibrator, spawn_calibrator

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

TOL = 1e-9
SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 60


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # cache bytecode as an installed package has it, whatever the caller set
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _setup_once(workload, seed, seconds):
    """Spawn one set-up process; seconds from spawn to ``ready``."""
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(BENCH / "setup_child.py"), workload,
             str(seed), str(seconds)],
            stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT,
            text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return ready - start, 0.5 * (start + ready)


def _setup_samples(workload, seed, seconds):
    """Set-up times of fresh processes, after one untimed process has
    written the bytecode cache: (raw, reference) lists."""
    _setup_once(workload, seed, seconds)
    cal = spawn_calibrator(ROOT)
    cal.sample()
    samples = []
    for _ in range(SETUP_SAMPLES):
        samples.append(_setup_once(workload, seed, seconds))
        cal.sample()
    return ([dt for dt, _ in samples],
            [cal.scale(dt, mid) for dt, mid in samples])


def _scipy_import_s():
    """Median over fresh processes of the -X importtime self time of all
    scipy modules that ``import openroots`` loads."""
    samples = []
    pattern = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)")
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import openroots"],
            capture_output=True, text=True, env=_child_env(), cwd=ROOT,
            timeout=CHILD_TIMEOUT_S, check=True)
        micros = 0
        for m in pattern.finditer(proc.stderr):
            name = m.group(2)
            if name == "scipy" or name.startswith("scipy."):
                micros += int(m.group(1))
        samples.append(micros * 1e-6)
    return statistics.median(samples)


def _poly_text(coeffs):
    # descending powers as exact re,im pairs (repr round-trips a double)
    return " ".join(f"{c.real!r},{c.imag!r}" for c in reversed(coeffs))


class InProcess:
    """descent and gauss: the library called through its public API."""

    def __init__(self, cases):
        import openroots
        from openroots.errors import RootFindError

        self.openroots = openroots
        self.error_type = RootFindError
        self.cases = cases
        self.polys = [openroots.Poly(case.coeffs) for case in cases]

    @staticmethod
    def calibrator():
        return compute_calibrator()

    def _solve(self, case, poly):
        if case.method == "descent":
            return tuple(self.openroots.all_roots(poly, TOL))
        return (self.openroots.run_pipeline(poly, TOL).root,)

    def run_pass(self, cal, rec=None):
        """Solve every case once: [(index, outcome, seconds, mid time)]."""
        out = []
        for i, (case, poly) in enumerate(zip(self.cases, self.polys)):
            start = time.perf_counter()
            try:
                if rec is None:
                    roots = self._solve(case, poly)
                else:
                    rec.solve_id = i
                    roots = rec.call("bench.solve", self._solve, case, poly)
                outcome = Outcome(roots=roots)
            except self.error_type as exc:
                outcome = Outcome(error=f"{type(exc).__name__}: {exc}",
                                  stage=getattr(exc, "stage", None))
            except Exception as exc:  # counted as a crash, never raised
                outcome = Outcome(crash=f"{type(exc).__name__}: {exc}")
            end = time.perf_counter()
            out.append((i, outcome, end - start, 0.5 * (start + end)))
            cal.after(end - start)
        return out


class ColdCli:
    """cli-cold: one fresh CLI process per solve."""

    def __init__(self, cases):
        self.cases = cases

    @staticmethod
    def calibrator():
        return spawn_calibrator(ROOT)

    def _argv(self, case, trace_out=None):
        cli = ([str(BENCH / "cli_child.py"), str(trace_out)] if trace_out
               else ["-m", "openroots.cli"])
        return [sys.executable, *cli, f"--poly={_poly_text(case.coeffs)}",
                "--method", case.method, "--tol", repr(TOL)]

    def run_pass(self, cal, rec=None):
        out = []
        trace_out = OUT / f"cli-trace-{os.getpid()}.json" if rec else None
        for i, case in enumerate(self.cases):
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    self._argv(case, trace_out), capture_output=True,
                    text=True, env=_child_env(), cwd=ROOT,
                    timeout=CHILD_TIMEOUT_S)
                outcome = outcome_from_cli(
                    proc.returncode, proc.stdout, proc.stderr)
            except subprocess.TimeoutExpired:
                outcome = outcome_from_cli(
                    -9, "", f"timed out after {CHILD_TIMEOUT_S} s")
            end = time.perf_counter()
            if rec is not None and trace_out.exists():
                with open(trace_out, encoding="utf-8") as fh:
                    data = json.load(fh)
                trace_out.unlink()
                for span in data["spans"]:
                    span[4] = i
                rec.merge(data)
            out.append((i, outcome, end - start, 0.5 * (start + end)))
            cal.after(end - start)
        return out


def _timed_passes(runner, seconds, cal):
    """Whole passes while the next one is expected to end within
    ``seconds``, at least one: (results, passes)."""
    results, passes = [], 0
    cal.sample()
    start = time.perf_counter()
    while True:
        results.extend(runner.run_pass(cal))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            cal.sample()
            return results, passes


def _scaled(results, cal):
    """Per-solve times in reference seconds."""
    return [cal.scale(dt, mid) for _, _, dt, mid in results]


def _tally(cases, results):
    tally = Tally(TOL)
    for index, outcome, _, _ in results:
        tally.add(index, cases[index], outcome)
    return tally


def _peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _describe_failures(tally):
    lines = []
    for (kind, method, family, degree, monic, stage), n in sorted(
            tally.failures.items()):
        where = f" stage {stage}" if stage else ""
        lines.append(f"  {n:5d} x {kind:8s} {method:7s} {family:10s} "
                     f"degree {degree:2d} {'monic' if monic else 'non-monic'}"
                     f"{where}")
    return lines


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 \
        else values[0]


def end_to_end(args, cases, runner):
    setup_raw, setup_ref = _setup_samples(args.workload, args.seed,
                                          args.seconds)
    cal = runner.calibrator()
    results, passes = _timed_passes(runner, args.seconds, cal)
    peak = _peak_rss_mb(args.workload)
    tally = _tally(cases, results)
    raw = [dt for _, _, dt, _ in results]
    ref = _scaled(results, cal)
    n = len(ref)
    metrics = {
        "roots_per_s": (tally.verified_roots / sum(ref), "roots/s"),
        "solve_p50_ms": (statistics.median(ref) * 1e3, "ms"),
        "solve_p90_ms": (_p90(ref) * 1e3, "ms"),
        "solved_share": (tally.kinds["ok"] / tally.attempted, "fraction"),
        "setup_s": (statistics.median(setup_ref), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    print(f"passes {passes}  attempted {tally.attempted}  failed "
          f"{tally.failed}  fail_share {tally.failed / tally.attempted:.4f}  "
          f"verified roots {tally.verified_roots}  outcomes {tally.kinds}")
    print(f"raw wall: solving {sum(raw):.3f} s  roots_per_s "
          f"{tally.verified_roots / sum(raw):.6g}  p50 "
          f"{statistics.median(raw) * 1e3:.6g} ms  p90 {_p90(raw) * 1e3:.6g} "
          f"ms  setup {statistics.median(setup_raw):.6g} s  (median probe "
          f"{cal.median() * 1e3:.3f} ms over {len(cal.durations)})")
    notes = {
        "roots_per_s": f"{tally.verified_roots} verified roots / "
                       f"{sum(ref):.3f} s",
        "solve_p50_ms": f"n={n} solves",
        "solve_p90_ms": f"n={n} solves, {n - int(0.9 * n)} beyond it"
                        + ("" if n >= 100 else "; fewer than 100 solves, "
                           "so for information only"),
        "solved_share": f"{tally.kinds['ok']}/{tally.attempted}",
        "setup_s": f"median of {SETUP_SAMPLES} fresh processes",
    }
    return tally, metrics, notes, tally.correct


def per_layer(args, cases, runner):
    import openroots

    import probes

    OUT.mkdir(exist_ok=True)
    cal = runner.calibrator()
    cal.sample()
    base = runner.run_pass(cal)
    rec = probes.Recorder()
    rec.install(openroots)
    try:
        traced = runner.run_pass(cal, rec)
    finally:
        rec.uninstall()
    cal.sample()
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    rec.write(spans_path)

    base_tally = _tally(cases, base)
    tally = _tally(cases, traced)
    metrics, absent = probes.layer_metrics(rec)
    metrics["cli.scipy_import_s"] = (_scipy_import_s(), "s")
    base_rps = base_tally.verified_roots / sum(_scaled(base, cal))
    traced_rps = tally.verified_roots / sum(_scaled(traced, cal))
    metrics["trace.overhead"] = (
        traced_rps / base_rps if base_rps else 0.0, "ratio")
    print(f"solves {tally.attempted}  failed {tally.failed}  untraced "
          f"{base_rps:.6g} roots/s  traced {traced_rps:.6g} roots/s  spans "
          f"{len(rec.spans)} -> {spans_path}")
    print("per-layer times are raw wall seconds of the traced pass")
    if absent:
        print("absent (probed names missing): " + ", ".join(absent))
    if not base_tally.correct:
        print("the untraced pass returned wrong answers or crashed")
    return tally, metrics, {}, tally.correct and base_tally.correct


def main():
    ap = argparse.ArgumentParser(description="openroots benchmark")
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("need --seed >= 0 and --seconds >= 1")

    if not (SRC / "openroots" / "__init__.py").is_file():
        print(f"bench: no openroots sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import openroots

    if Path(openroots.__file__).resolve().parent != SRC / "openroots":
        print(f"bench: imported openroots from {openroots.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    cases = corpus.build(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds}  cases {len(cases)}  sha256 "
          f"{corpus.fingerprint(cases)}")
    runner = ColdCli(cases) if args.workload == "cli-cold" \
        else InProcess(cases)
    measure = per_layer if args.trace else end_to_end
    tally, metrics, notes, correct = measure(args, cases, runner)
    for line in _describe_failures(tally):
        print(line)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:28s} {value:14.6g} {unit}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
