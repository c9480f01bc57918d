"""Run the openroots CLI in this process with the benchmark's probes on.

    python3 bench/cli_child.py TRACE_OUT CLI_ARG...

Behaves like ``python -m openroots.cli CLI_ARG...`` (same report on
stdout, same exit code) and writes the recorder's spans and counts to
TRACE_OUT as JSON.  Used by the traced run of cli-cold.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import openroots  # noqa: E402
import openroots.cli  # noqa: E402

import probes  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    rec = probes.Recorder()
    rec.install(openroots)
    try:
        code = rec.call("cli.run", openroots.cli.run, argv)
    finally:
        rec.uninstall()
        rec.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
