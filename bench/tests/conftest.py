import sys
from pathlib import Path

# the benchmark's modules live one directory up and are not a package; the
# package under test is imported from the checkout's src/
BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
