"""Benchmark of cpdist's certified distances.

    python3 cpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): dist-qubit, cbnorm-d4, verify-qubit.  With
``--trace 0`` the run reports the end-to-end metrics; the ops run in one
process, and set-up is measured in it and in fresh processes started before
and after it.  With ``--trace 1`` a single process runs the same ops with
spans around the library's public functions and reports the per-layer
metrics instead.  Human-readable lines
come first; the last stdout line is one JSON object.  Exits non-zero,
without a result, when the library cannot be imported from ``src/`` or the
run breaks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from spans import per_layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Fresh processes whose set-up time is measured, the measuring one included;
# their median is reported.  Half of the others run before the measuring
# process and half after it, so that the samples span the run rather than
# one moment of the machine's speed.
SETUP_SAMPLES = 5
# Wall-clock limit of the whole run, children included.
RUN_LIMIT_S = 170.0
# The tail percentile must leave at least this many ops beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_s_p50": "s", "op_s_tail": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def tail(latencies, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` ops above it.

    Returns (value, note).  The value is the order statistic that leaves
    exactly `beyond` ops above it.  When that would not be above the
    median (fewer than 2 * `beyond` ops), the median is returned instead
    and the note says so.
    """
    xs = sorted(latencies)
    n = len(xs)
    at_or_below = n - beyond
    if at_or_below <= n / 2:
        return statistics.median(xs), (
            f"p50 fallback: {n} ops leave fewer than {beyond} beyond any "
            "higher percentile")
    pct = math.floor(100.0 * at_or_below / n)
    return xs[at_or_below - 1], f"p{pct} of {n} ops, {beyond} beyond it"


def run_worker(args, deadline, *extra) -> dict:
    """Start one worker process, wait for it, and return its JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")   # one BLAS thread
    proc = subprocess.Popen(cmd + ["--t0", repr(time.monotonic())], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker {' '.join(extra)} exited with code "
                           f"{proc.returncode} and {len(out)} bytes of output")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(run, setup_samples) -> tuple[dict, list]:
    lat = run["latencies"]
    tail_s, tail_note = tail(lat)
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_s_p50": statistics.median(lat),
        "op_s_tail": tail_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = [
        f"op_s_tail: {tail_note}",
        "setup_s: median of " + ", ".join(f"{s:.3f}" for s in setup_samples)
        + " s over fresh processes",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["dist-qubit", "cbnorm-d4", "verify-qubit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isdir(os.path.join(ROOT, "src", "cpdist")):
        print(f"error: no cpdist sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        # the build: byte-compile the sources, so every set-up sample
        # loads the same compiled modules
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        os.path.join("src", "cpdist"), "cpbench"], cwd=ROOT, check=True,
                       timeout=60)
        if args.trace:
            run = run_worker(args, deadline, "--trace")
            metrics = run["per_layer"]
            units = per_layer_metrics()
            notes = ["per op; sdp.solve.constraints and sdp.solve.schur_flops "
                     "are computed from each SdpProblem's sizes, not timed"]
        else:
            def measure_setup(count):
                return [run_worker(args, deadline, "--setup-only")["setup_s"]
                        for _ in range(count)]

            before = measure_setup((SETUP_SAMPLES - 1) // 2)
            run = run_worker(args, deadline)
            after = measure_setup(SETUP_SAMPLES - 1 - len(before))
            metrics, notes = end_to_end(run, before + [run["setup_s"]] + after)
            units = END_TO_END_UNITS
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    attempted = len(run["latencies"])
    correct = run["failed"] == 0 and run["repeat_identical"]
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops, "
          f"{run['failed']} failed, repeat identical: {run['repeat_identical']}"
          " (closed loop, one client, one op at a time)")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    print("provenance " + json.dumps(run["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
