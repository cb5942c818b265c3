"""A scripted tour of the command-line interface.

The `cpdist` console script (equivalently `python3 -m cpdist.cli`) exposes
three subcommands:

  gen     write seeded random channels as JSON files,
  dist    distance report (both metrics + the sandwich check) for two files,
  verify  run seeded certificate batches and report worst slacks.

Exit codes: 0 = success, 1 = a certified check failed, 2 = usage error.
All output is deterministic — re-running a command gives byte-identical
reports — so the CLI can sit inside golden-file test harnesses.

Run:  python3 demos/07_cli_session.py
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CLI = [sys.executable, "-m", "cpdist.cli"]

# The CLI runs from a temporary directory, so a relative PYTHONPATH (such as
# PYTHONPATH=src) would not reach the package: put the absolute src first.
SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def run(args, cwd, expect=0):
    print(f"$ cpdist {' '.join(args)}")
    proc = subprocess.run(CLI + args, cwd=cwd, env=ENV, capture_output=True,
                          text=True)
    for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
        if text.strip():
            indent = "  " if stream == "stdout" else "  [stderr] "
            for line in text.rstrip().splitlines():
                print(indent + line)
    print(f"  (exit code {proc.returncode})\n")
    if proc.returncode != expect:
        sys.exit(f"cpdist {args[0]} exited with {proc.returncode}, "
                 f"expected {expect}")
    return proc


def main():
    with tempfile.TemporaryDirectory() as tmp:
        # Two seeded qubit channels written to JSON files.
        run(["gen", "--d", "2", "--m", "2", "--seed", "11", "--out", "a.json"], tmp)
        run(["gen", "--d", "2", "--m", "2", "--seed", "12", "--out", "b.json"], tmp)

        # The distance report: both metrics, the sandwich bounds, and the
        # certified gaps, as deterministic JSON on stdout.
        proc = run(["dist", "a.json", "b.json", "--seed", "1"], tmp)
        report = json.loads(proc.stdout)
        print(f"  parsed: beta = {report['beta']:.9f}, cb_diff = {report['cb_diff']:.9f}")
        print(f"  sandwich: {report['lower']:.9f} <= beta <= {report['upper']:.9f}\n")

        # Byte-identical on a repeat run.
        again = run(["dist", "a.json", "b.json", "--seed", "1"], tmp)
        print(f"  deterministic: {again.stdout == proc.stdout}\n")

        # A verification batch: 2 seeded instances of every certificate family.
        run(["verify", "--d", "2", "--count", "2", "--seed", "7"], tmp)

        # Usage errors exit with code 2 and say what went wrong.
        run(["dist", "a.json", "missing.json"], tmp, expect=2)

        # Out-of-range tolerance overrides are applied (with a warning); the
        # impossible 1e-15 witness gate then fails honestly with exit code 1.
        run(
            ["verify", "--d", "2", "--count", "1", "--seed", "7",
             "--family", "continuity", "--tol.witness=1e-15"],
            tmp, expect=1,
        )


if __name__ == "__main__":
    main()
