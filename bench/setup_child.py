"""One set-up sample: a fresh interpreter imports openroots and, for the
in-process workloads, builds the corpus, then prints ``ready``.

    python3 bench/setup_child.py WORKLOAD SEED SECONDS

The parent times spawn to ``ready``: what a workload process spends
before its first timed solve.  For cli-cold that is ``import openroots``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import openroots  # noqa: E402


def main():
    workload, seed, seconds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    if workload != "cli-cold":
        sys.path.insert(0, str(BENCH))
        import corpus

        cases = corpus.build(workload, seed, seconds)
        # the workload process also builds one Poly per case before solving
        [openroots.Poly(case.coeffs) for case in cases]
    print("ready", flush=True)


if __name__ == "__main__":
    main()
