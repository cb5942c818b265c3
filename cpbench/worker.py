"""One benchmark process: set up a workload, then run and check its ops.

    python3 cpbench/worker.py --workload W --seed N --seconds S --t0 T
                              [--trace] [--setup-only]

Set-up is everything a fresh process does before its first timed op: the
interpreter, the imports, input generation and one warm-up op on a fixed
instance outside the timed list.  Its length is measured from `--t0`, a
``time.monotonic()`` reading the parent took just before starting this
process (the clock is shared by all processes of the machine).

The ops then run in a closed loop, one client, one op at a time, in list
order; the list, not a clock, ends the run.  Every op's output is checked,
and after the timed loop the first op is run again, untraced, and must
print the same bytes.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_cpdist():
    sys.path.insert(0, SRC)
    import cpdist.cli
    import cpdist.maps
    import cpdist.metrics

    if not os.path.abspath(cpdist.__file__).startswith(SRC + os.sep):
        raise ImportError(f"cpdist was imported from {cpdist.__file__}, "
                          f"not from {SRC}")
    return cpdist


def _blas_threads():
    """Threads OpenBLAS reports at run time, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "*openblas*.so*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                return int(getattr(lib, sym)())
    return None


def provenance() -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "cpdist", "*.py"))):
        digest.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    try:
        # the ceiling keeps git from finding a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        git = rev.stdout.strip() if rev.returncode == 0 else "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        git = "git not available"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git": git,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_ops(wl, instances, tracer=None):
    """Time and check each op in order; returns (latencies, failures, first)."""
    latencies, failures, first = [], [], None
    if tracer is not None:
        tracer.install()
    try:
        for i, (label, payload) in enumerate(instances):
            t0 = time.perf_counter()
            try:
                output = wl.op(payload)
            except Exception:  # a failing op stays in the run and is counted
                latencies.append(time.perf_counter() - t0)
                failures.append((label, traceback.format_exc(limit=3)))
                continue
            latencies.append(time.perf_counter() - t0)
            try:
                problem = wl.check(payload, output)
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem:
                failures.append((label, problem))
            if i == 0:
                first = wl.render(output)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return latencies, failures, first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cpdist = _import_cpdist()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    os.makedirs(os.path.join(ROOT, ".cpbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".cpbench_work"))
    try:
        wl = WORKLOADS[args.workload](cpdist, workdir)
        instances = wl.instances(args.seed, wl.run_length(args.seconds))
        warm = wl.warmup()
        problem = wl.check(warm, wl.op(warm))
        if problem:
            raise RuntimeError(f"warm-up op failed its check: {problem}")
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = wrapper_cost = None
        if args.trace:
            from spans import Tracer, wrapper_cost as measure_wrapper_cost
            wrapper_cost = measure_wrapper_cost()
            tracer = Tracer()
        latencies, failures, first = run_ops(wl, instances, tracer)
        for label, problem in failures:
            print(f"FAILED {args.workload} {label}: {problem}", file=sys.stderr)
        # outside the timed window: the same op must print the same bytes
        repeat_identical = (first is not None
                            and wl.render(wl.op(instances[0][1])) == first)
        result = {
            "labels": [label for label, _ in instances],
            "latencies": latencies,
            "failed": len(failures),
            "repeat_identical": repeat_identical,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "provenance": provenance(),
        }
        if tracer is not None:
            result["per_layer"] = tracer.report(len(latencies), sum(latencies),
                                                wrapper_cost)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
