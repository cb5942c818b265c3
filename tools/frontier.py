"""Scaling frontier of cb_norm: the largest d = n it finishes in 10 s and 1 GB.

Runs ``cb_norm(T1 - T2)`` on two seeded Haar channels of Kraus rank 2 at
d = n = 2, 3, ..., each size in its own fresh process with OpenBLAS on one
thread, one process at a time. It stops at the first size whose solve takes
more than 10 s or whose process holds more than 1 GB resident; that process
is killed as soon as it crosses either line. The library is imported from
the ``src/`` directory next to this script's parent; resident memory is read
from /proc, so the script runs on Linux.

    python3 tools/frontier.py

Prints one JSON line per size (d, cb_norm seconds, iterations, peak RSS,
and the bracket [value, upper]) and then the frontier.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

SECONDS = 10.0
RSS_MB = 1024.0
SRC = Path(__file__).resolve().parent.parent / "src"


def measure(d: int) -> None:
    """The child process: one cb_norm at d = n, reported as one JSON line."""
    import resource

    from cpdist.maps import difference, random_channel
    from cpdist.metrics import cb_norm

    t1 = random_channel(d, d, 2, seed=2 * d)
    t2 = random_channel(d, d, 2, seed=2 * d + 1)
    t0 = time.perf_counter()
    res = cb_norm(difference(t1, t2))
    seconds = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"d": d, "cb_norm_s": round(seconds, 3),
                      "iterations": res.iterations,
                      "peak_rss_mb": round(rss_mb, 1),
                      "value": res.value, "upper": res.upper}))


def resident_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run(d: int) -> dict:
    """Measure one size in a fresh process, killed at the time or memory line."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, __file__, "--child", str(d)],
                            stdout=subprocess.PIPE, text=True, env=env)
    start = time.monotonic()
    peak = 0.0
    killed = None
    while proc.poll() is None:
        peak = max(peak, resident_mb(proc.pid))
        if peak > RSS_MB:
            killed = f"over {RSS_MB:.0f} MB resident"
        elif time.monotonic() - start > SECONDS + 5.0:   # imports and set-up
            killed = f"over {SECONDS:.0f} s"
        if killed:
            proc.kill()
            break
        time.sleep(0.05)
    out, _ = proc.communicate()
    if killed or proc.returncode != 0:
        return {"d": d, "failed": killed or f"exit code {proc.returncode}"}
    return json.loads(out)


def main() -> int:
    frontier = None
    for d in range(2, 64):
        result = run(d)
        print(json.dumps(result), flush=True)
        if ("failed" in result or result["cb_norm_s"] > SECONDS
                or result["peak_rss_mb"] > RSS_MB):
            break
        frontier = d
    print(f"frontier: d = n = {frontier} within {SECONDS:.0f} s and "
          f"{RSS_MB:.0f} MB")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        measure(int(sys.argv[2]))
    else:
        sys.exit(main())
