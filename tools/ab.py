"""Time two checkouts on one benchmark corpus, case by case, side by side.

    python3 tools/ab.py CHECKOUT_A CHECKOUT_B --workload descent --seeds 0-3

Each checkout's package (``CHECKOUT/src``) runs in its own long-lived child
process; two copies cannot share one interpreter, because modules import
each other at call time (``critical_points`` imports ``descent``).  The
children solve every case of the corpus (bench/corpus.py next to this
script, ``--seconds`` as in bench/run.py) as tools/outcomes.py does, one
case at a time, alternating which side goes first, so drift of the machine
falls on both sides alike.  The solve time is measured in the child.

Prints the median solve time per method and degree on both sides with
their ratio B/A, the ratio of the summed times, and how many cases gave
different answers (roots compared bit for bit, errors by their text).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import outcomes  # puts bench/ on sys.path
import corpus  # noqa: E402  (after outcomes)


def serve(src, workload, seconds):
    """Child loop: read "seed index" lines, answer one JSON line each."""
    sys.path.insert(0, src)
    import openroots

    if not Path(openroots.__file__).resolve().is_relative_to(
            Path(src).resolve()):
        raise SystemExit(f"imported {openroots.__file__}, not from {src}")
    corpora = {}
    for line in sys.stdin:
        seed, index = map(int, line.split())
        if seed not in corpora:
            corpora[seed] = corpus.build(workload, seed, seconds)
        case = corpora[seed][index]
        start = time.perf_counter()
        outcome, _ = outcomes.solve_case(openroots, case)
        secs = time.perf_counter() - start
        answer = outcome.error or outcome.crash or repr(outcome.roots)
        print(json.dumps({"s": secs, "answer": answer}), flush=True)


class Side:
    """One checkout's child process."""

    def __init__(self, checkout, workload, seconds):
        src = str(Path(checkout).resolve() / "src")
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--child", src, workload,
             str(seconds)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def solve(self, seed, index):
        self.proc.stdin.write(f"{seed} {index}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"child exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def compare(sides, workload, seeds, seconds):
    """Lines of the per-degree table for two started sides."""
    cases = [(seed, index, case) for seed in seeds
             for index, case in enumerate(corpus.build(workload, seed,
                                                       seconds))]
    for side in sides:  # warm up: lazy imports, first-call costs
        side.solve(cases[0][0], cases[0][1])
    times, differ = {}, 0
    for i, (seed, index, case) in enumerate(cases):
        order = sides if i % 2 == 0 else sides[::-1]
        got = {id(side): side.solve(seed, index) for side in order}
        a, b = (got[id(side)] for side in sides)
        differ += a["answer"] != b["answer"]
        group = times.setdefault((case.method, case.degree), ([], []))
        group[0].append(a["s"])
        group[1].append(b["s"])
    lines = ["method   degree  cases       A_s       B_s    B/A"]
    for (method, degree), (a, b) in sorted(times.items()):
        ma, mb = statistics.median(a), statistics.median(b)
        lines.append(f"{method:7s}  {degree:6d}  {len(a):5d}  {ma:8.5f}  "
                     f"{mb:8.5f}  {mb / ma:5.3f}")
    ta = sum(sum(a) for a, _ in times.values())
    tb = sum(sum(b) for _, b in times.values())
    lines.append(f"all      summed  {len(cases):5d}  {ta:8.3f}  {tb:8.3f}  "
                 f"{tb / ta:5.3f}")
    lines.append(f"{differ} cases gave different answers")
    return lines


def main():
    if sys.argv[1:2] == ["--child"]:
        src, workload, seconds = sys.argv[2:5]
        serve(src, workload, int(seconds))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", metavar="CHECKOUT_A")
    ap.add_argument("b", metavar="CHECKOUT_B")
    ap.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    ap.add_argument("--seeds", type=outcomes.seed_range, default=range(0, 1),
                    help="seed range A-B, both ends included (default 0)")
    ap.add_argument("--seconds", type=int, default=20,
                    help="corpus size, as bench/run.py --seconds")
    args = ap.parse_args()
    for checkout in (args.a, args.b):
        if not (Path(checkout) / "src" / "openroots").is_dir():
            ap.error(f"{checkout} has no src/openroots")
    sides = []
    try:
        for checkout in (args.a, args.b):
            sides.append(Side(checkout, args.workload, args.seconds))
        lines = compare(sides, args.workload, args.seeds, args.seconds)
    finally:
        for side in sides:
            side.close()
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    outcomes.exit_quietly_on_closed_stdout(main)
