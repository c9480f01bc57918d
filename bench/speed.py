"""Machine-speed calibration for the benchmark's timings.

A shared host changes speed by tens of percent over seconds: a fixed
pure-Python loop, timed once per second for 60 s on a 2-core Xeon at
2.1 GHz, read between 0.90x and 1.40x its median, and runs of the same
input twenty seconds long differed by 15% in wall time.  To compare
commits rather than moments, the benchmark interleaves a fixed probe
with the timed work and rescales each measured time by

    ref / (mean probe time within the window around it),

so times are reported in seconds of the reference machine, on which the
probe takes ``ref``.  The raw wall times are printed beside them.  Two
probes, each belonging to the benchmark so that no change to the package
can move it:

* compute: scalar complex Horner evaluation in pure Python, the work
  the solvers spend their time on; for solves timed in process.
* spawn: a fresh interpreter running ``pass``; for timings of whole
  processes (cold CLI calls and set-up), which the compute probe does not
  track.  On the reference machine its ratio to a cold CLI call varied by
  2.5% where the CLI call alone varied by 7%.
"""

import bisect
import subprocess
import sys
import time

# Probe times on the reference machine (2-core Xeon, 2.1 GHz).
REF_COMPUTE_S = 0.010
REF_SPAWN_S = 0.060

_COEFFS = [complex(0.1 * k, -0.05 * k) for k in range(13)]


def _horner_burst():
    # 150 x 40 evaluations of a degree-12 polynomial: about 10 ms
    total = 0j
    for _ in range(150):
        for j in range(40):
            z = complex(0.9, 0.01 * j)
            acc = _COEFFS[-1]
            for a in _COEFFS[-2::-1]:
                acc = acc * z + a
            total += acc
    return total


class Calibrator:
    """Probe times taken during a run, and the scale factors they imply."""

    def __init__(self, probe, ref_s, block_s, window_s):
        self.probe = probe
        self.ref_s = ref_s
        self.block_s = block_s
        self.window_s = window_s
        self.mids = []
        self.durations = []
        self._since = 0.0

    def sample(self):
        start = time.perf_counter()
        self.probe()
        end = time.perf_counter()
        self.mids.append(0.5 * (start + end))
        self.durations.append(end - start)

    def after(self, seconds):
        """Account ``seconds`` of timed work; probe once per block."""
        self._since += seconds
        if self._since >= self.block_s:
            self.sample()
            self._since = 0.0

    def factor(self, t):
        """ref over the mean probe time within the window around time t
        (the nearest probe if none is that close)."""
        lo = bisect.bisect_left(self.mids, t - self.window_s)
        hi = bisect.bisect_right(self.mids, t + self.window_s)
        if lo == hi:
            i = min(range(len(self.mids)), key=lambda k: abs(self.mids[k] - t))
            lo, hi = i, i + 1
        window = self.durations[lo:hi]
        return self.ref_s * len(window) / sum(window)

    def scale(self, seconds, mid):
        return seconds * self.factor(mid)

    def median(self):
        ordered = sorted(self.durations)
        return ordered[len(ordered) // 2]


def compute_calibrator():
    return Calibrator(_horner_burst, REF_COMPUTE_S, block_s=0.25,
                      window_s=1.0)


def spawn_calibrator(cwd):
    def spawn():
        # capture_output makes the wait end at the child's EOF; a bare
        # timeout polls with sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, check=True,
                       capture_output=True, timeout=60)
    return Calibrator(spawn, REF_SPAWN_S, block_s=0.0, window_s=2.0)


def main():
    for name, cal in (("compute", compute_calibrator()),
                      ("spawn", spawn_calibrator("."))):
        for _ in range(100):
            cal.sample()
        print(f"{name}: median {cal.median() * 1e3:.3f} ms over "
              f"{len(cal.durations)} probes (ref {cal.ref_s * 1e3:.1f} ms)")


if __name__ == "__main__":
    main()
