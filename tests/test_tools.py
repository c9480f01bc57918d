"""The tools/ scripts: outcomes.py's diff and ab.py's side-by-side timing."""

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
ROOT = TOOLS.parent


def _row(seed, error, index=0):
    return {"seed": seed, "index": index, "family": "random", "degree": 3,
            "method": "descent", "kind": "FAILED", "reason": error,
            "stage": None, "error": error, "roots": [], "solve_s": 0.001,
            "stages": None, "R": None}


def _ok(seed, index=0):
    return dict(_row(seed, "", index), kind="ok", reason="", error=None,
                roots=[[1.0, 0.0]])


def test_diff_names_the_seeds_that_fail_more():
    sys.path.insert(0, str(TOOLS))
    import outcomes

    # seed 0: one failure on both sides, but a different case; seed 1:
    # one more failure; seed 2: one fewer
    old = [_row(0, "e", 0), _ok(0, 1), _ok(1, 0), _ok(1, 1),
           _row(2, "e", 0), _row(2, "e", 1)]
    new = [_ok(0, 0), _row(0, "e", 1), _row(1, "e", 0), _ok(1, 1),
           _row(2, "e", 0), _ok(2, 1)]
    lines = outcomes.diff(old, new)
    assert lines[-1] == "worse seeds: 1: 1 (0 -> 1)"
    assert outcomes.diff(old, old)[-1] == "worse seeds: 0"


def test_diff_into_closed_pipe_is_quiet(tmp_path):
    # many reworded errors: far more output than a pipe buffer holds
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps([_row(s, "a" * 150) for s in range(2000)]))
    new.write_text(json.dumps([_row(s, "b" * 150) for s in range(2000)]))
    proc = subprocess.Popen(
        [sys.executable, str(TOOLS / "outcomes.py"), "--diff", str(old),
         str(new)], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.readline()
    proc.stdout.close()  # as `| head -1` does
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_ab_same_checkout_twice():
    out = subprocess.run(
        [sys.executable, str(TOOLS / "ab.py"), str(ROOT), str(ROOT),
         "--workload", "cli-cold", "--seconds", "1"],
        capture_output=True, text=True, timeout=300, check=True).stdout
    lines = out.splitlines()
    assert lines[0].split() == ["method", "degree", "cases", "A_s", "B_s",
                                "B/A"]
    methods = {line.split()[0] for line in lines[1:-2]}
    assert methods == {"descent", "gauss"}
    assert lines[-2].startswith("all      summed      8")
    assert lines[-1] == "0 cases gave different answers"
