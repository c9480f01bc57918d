"""Per-case outcomes of a benchmark corpus, and the flips between two runs.

    python3 tools/outcomes.py --workload gauss --seeds 0-47 --out new.json
    python3 tools/outcomes.py --diff old.json new.json

The first form solves every case of the workload's corpus (bench/corpus.py,
``--seconds`` as in bench/run.py) once, in this process, with the solver
the case names (``all_roots`` or ``run_pipeline`` at tol 1e-9, as the
benchmark calls them; cli-cold cases are solved in process too), and
classifies each answer with the benchmark's oracle (bench/oracle.py).  It
writes one record per case: seed, index, family, degree, method, the
oracle's kind and reason, the failing stage, the error text of a failed
solve, the roots, the solve time and, for a gauss solve, the pipeline's
stage times and the annulus radius R (None when the solve failed before
the annulus stage).

The second form prints the failed count of each seed on both sides, every
case whose kind changed, the count of cases whose R changed, the count of
cases ok on both sides whose roots differ and how many of those kept
their R, every case failed on both sides whose error text differs, and the
median solve time per method and degree on both sides.  The package is
imported from the ``src/`` next to this script; copy the script into
another checkout to record that checkout.
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import corpus  # noqa: E402
import oracle  # noqa: E402


def seed_range(text):
    first, _, last = text.partition("-")
    first, last = int(first), int(last or first)
    if first < 0 or last < first:
        raise argparse.ArgumentTypeError("seeds are A-B with 0 <= A <= B")
    return range(first, last + 1)


def solve_case(openroots, case):
    # (outcome, pipeline stage times or None)
    from openroots.errors import RootFindError

    poly = openroots.Poly(case.coeffs)
    try:
        if case.method == "descent":
            return oracle.Outcome(roots=tuple(
                openroots.all_roots(poly, oracle.TOL))), None
        report = openroots.run_pipeline(poly, oracle.TOL)
        return oracle.Outcome(roots=(report.root,)), dict(report.timings)
    except RootFindError as exc:
        return oracle.Outcome(error=f"{type(exc).__name__}: {exc}",
                              stage=getattr(exc, "stage", None)), None
    except Exception as exc:  # recorded as a crash, as the benchmark does
        return oracle.Outcome(crash=f"{type(exc).__name__}: {exc}"), None


def record(workload, seeds, seconds):
    import openroots
    import openroots.annulus as annulus

    # run_pipeline calls annulus.locate_boundary_nodes through the module,
    # so a wrapper there sees the R of every solve that reaches the stage
    locate, radii = annulus.locate_boundary_nodes, []

    def locate_and_note(p):
        ns = locate(p)
        radii.append(ns.R)
        return ns

    annulus.locate_boundary_nodes = locate_and_note
    try:
        return _record(openroots, workload, seeds, seconds, radii)
    finally:
        annulus.locate_boundary_nodes = locate


def _record(openroots, workload, seeds, seconds, radii):
    rows = []
    for seed in seeds:
        for index, case in enumerate(corpus.build(workload, seed, seconds)):
            radii.clear()
            start = time.perf_counter()
            outcome, stages = solve_case(openroots, case)
            solve_s = time.perf_counter() - start
            verdict = oracle.verify(case, outcome)
            rows.append({
                "seed": seed, "index": index, "family": case.family,
                "degree": case.degree, "method": case.method,
                "kind": verdict.kind, "reason": verdict.reason,
                "stage": outcome.stage,
                "error": outcome.error or outcome.crash,
                "roots": [[z.real, z.imag] for z in outcome.roots or ()],
                "solve_s": solve_s, "stages": stages,
                "R": radii[-1] if radii else None,
            })
    return rows


def _failed(row):
    return row["kind"] != oracle.OK


def _error(row):
    # records made before rows held the error text carry it in the reason
    return row.get("error", row["reason"])


def _status(row):
    if not _failed(row):
        return "ok"
    return f"{row['kind']} in {row['stage']}" if row["stage"] else row["kind"]


def diff(old, new):
    """Lines comparing two record lists of the same corpus."""
    key = (lambda r: (r["seed"], r["index"], r["method"]))
    before = {key(r): r for r in old}
    after = {key(r): r for r in new}
    if before.keys() != after.keys():
        raise SystemExit("the two records cover different cases")
    lines = ["seed  failed before  after"]
    for seed in sorted({k[0] for k in before}):
        a, b = (sum(_failed(r) for k, r in side.items() if k[0] == seed)
                for side in (before, after))
        lines.append(f"{seed:4d}  {a:13d}  {b:5d}")
    a, b = (sum(map(_failed, side.values())) for side in (before, after))
    lines.append(f"all   {a:13d}  {b:5d}")
    flips = [k for k in sorted(before)
             if _failed(before[k]) != _failed(after[k])]
    lines.append(f"{len(flips)} cases flipped")
    for k in flips:
        a, b = before[k], after[k]
        why = b["reason"] if _failed(b) else a["reason"]
        lines.append(f"  seed {k[0]} case {k[1]} ({a['method']}, "
                     f"{a['family']}, degree {a['degree']}): {_status(a)} -> "
                     f"{_status(b)}: {why[:160]}")
    # records made before rows held R carry none
    new_r = {k for k in before if before[k].get("R") != after[k].get("R")}
    lines.append(f"{len(new_r)} cases changed R")
    moved = [k for k in before if not _failed(before[k])
             and not _failed(after[k])
             and before[k]["roots"] != after[k]["roots"]]
    lines.append(f"{len(moved)} cases ok on both sides return different "
                 f"roots, {len(set(moved) - new_r)} of them at the same R")
    reworded = [k for k in sorted(before) if _failed(before[k])
                and _failed(after[k]) and _error(before[k]) != _error(after[k])]
    lines.append(f"{len(reworded)} cases failed on both sides with a "
                 "different error text")
    for k in reworded:
        a, b = before[k], after[k]
        lines.append(f"  seed {k[0]} case {k[1]} ({a['method']}, "
                     f"{a['family']}, degree {a['degree']}): "
                     f"{str(_error(a))[:160]} -> {str(_error(b))[:160]}")
    times = {}
    for k in before:
        group = times.setdefault((k[2], before[k]["degree"]), ([], []))
        group[0].append(before[k]["solve_s"])
        group[1].append(after[k]["solve_s"])
    lines.append("median solve_s by method and degree")
    lines.append("method   degree  cases    before     after  ratio")
    for (method, degree), (a, b) in sorted(times.items()):
        ma, mb = statistics.median(a), statistics.median(b)
        lines.append(f"{method:7s}  {degree:6d}  {len(a):5d}  {ma:8.5f}  "
                     f"{mb:8.5f}  {mb / ma:5.3f}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=corpus.WORKLOADS)
    mode.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--seeds", type=seed_range, default=range(0, 1),
                    help="seed range A-B, both ends included (default 0)")
    ap.add_argument("--seconds", type=int, default=20,
                    help="corpus size, as bench/run.py --seconds")
    ap.add_argument("--out", help="write the records here (with --workload)")
    args = ap.parse_args()
    if args.diff:
        old, new = (json.loads(Path(p).read_text()) for p in args.diff)
        print("\n".join(diff(old, new)))
        return 0
    if not args.out:
        ap.error("--workload needs --out")
    rows = record(args.workload, args.seeds, args.seconds)
    Path(args.out).write_text(json.dumps(rows) + "\n")
    failed = sum(map(_failed, rows))
    print(f"{args.workload}: {len(rows)} cases, {failed} failed -> {args.out}")
    return 0


def exit_quietly_on_closed_stdout(main):
    """sys.exit(main()), except that a reader closing stdout early, as
    ``| head`` does, ends the run with status 1 and no traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    exit_quietly_on_closed_stdout(main)
