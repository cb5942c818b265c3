"""Order a workload's pool by the work of each instance's op.

    python3 cpbench/make_pool.py WORKLOAD POOL_SIZE

Runs the workload's op on pool indices 0 .. POOL_SIZE-1, one after the
other in one process, under a profile hook that counts the Python and C
function calls the op makes, and checks each output.  The count stands for
the op's work: unlike a time, it is the same on every run, so the order
does not depend on how busy the machine was.  The indices sorted by that
count go into ``pools.json``; each count is printed to stderr.  The order
is the sampling plan of every later run (see ``workloads.Workload``), so
it is made once and committed; re-running it with other sizes changes the
benchmark.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cpdist.cli  # noqa: E402
import cpdist.metrics  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def count_calls(fn, *args):
    """fn(*args) and the number of function calls it made."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def main(name: str, size: int) -> None:
    scratch = os.path.join(os.path.dirname(HERE), ".cpbench_work")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        wl = WORKLOADS[name](cpdist, workdir, pool={"order": list(range(size))})
        wl.op(wl.payload(0))
        calls = {}
        for index in range(size):
            payload = wl.payload(index)
            output, calls[index] = count_calls(wl.op, payload)
            problem = wl.check(payload, output)
            if problem:
                sys.exit(f"{name} instance {index} fails its check: {problem}")
            print(f"{index} {calls[index]}", file=sys.stderr, flush=True)
    order = sorted(calls, key=lambda i: (calls[i], i))
    path = os.path.join(HERE, "pools.json")
    pools = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            pools = json.load(fh)
    pools[name] = {"order": order}
    with open(path, "w", encoding="utf-8") as fh:   # one line per pool
        fh.write("{\n" + ",\n".join(
            f' {json.dumps(key)}: {json.dumps(pools[key])}'
            for key in sorted(pools)) + "\n}\n")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
