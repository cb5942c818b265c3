"""Scaling frontier of cb_norm and bures: the largest d = n each finishes in
10 s and 1 GB.

Runs ``cb_norm(T1 - T2)`` and ``bures(T1, T2)`` on two seeded Haar channels
of Kraus rank 2, and both once more on two channels of full Kraus rank
d * n, at the sizes d = n of SIZES. At rank 2 the difference has
r = 4 < d * n Kraus vectors and cb_norm runs the program on its Kraus
factor; at full rank r = 2 * d * n and it runs the program on the Choi
matrix itself, and the Bures program has m1 + m2 = 2 * d * n rows in its
epigraph block. Each size runs three times, each run in its own fresh
process with OpenBLAS on one thread, one process at a time; a size reports
the median time of its runs and the largest peak RSS, so that one slow run
on a busy machine does not move the frontier. For each row it stops at the
first size whose median call takes more than 10 s or whose process holds
more than 1 GB resident; a process is killed as soon as it crosses either
line, and that size stops the row. The
library is imported from the ``src/`` directory next to this script's
parent; resident memory is read from /proc, so the script runs on Linux.

    python3 tools/frontier.py

Prints one JSON line per row and size (distance, d, the median seconds and
each run's, iterations, peak RSS, the Kraus rank of the inputs and the
bracket the distance reports, its lo and hi under the keys value and upper
for cb_norm and value and witness for bures) and then each frontier.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SECONDS = 10.0
RSS_MB = 1024.0
RUNS = 3
# (distance, Kraus rank of both inputs); "full" is d * n
ROWS = (("cb_norm", "2"), ("bures", "2"), ("cb_norm", "full"),
        ("bures", "full"))
SIZES = (2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256,
         384, 512)
SRC = Path(__file__).resolve().parent.parent / "src"


def measure(distance: str, rank: str, d: int) -> None:
    """The child process: one call at d = n, reported as one JSON line."""
    import resource

    from cpdist.dilations import minimal_dilation
    from cpdist.maps import difference, random_channel
    from cpdist.metrics import bures, cb_norm

    m = d * d if rank == "full" else int(rank)
    t1 = random_channel(d, d, m, seed=2 * d)
    t2 = random_channel(d, d, m, seed=2 * d + 1)
    t0 = time.perf_counter()
    if distance == "cb_norm":
        res = cb_norm(difference(t1, t2))
        ends = {"value": res.cb.lo, "upper": res.cb.hi}
    else:
        res = bures(t1, t2)
        ends = {"value": res.beta.lo, "witness": res.beta.hi}
    seconds = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"distance": distance, "d": d, "seconds": round(seconds, 3),
                      "iterations": res.iterations,
                      "peak_rss_mb": round(rss_mb, 1),
                      "kraus_rank": minimal_dilation(t1).m, **ends}))


def resident_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run(distance: str, rank: str, d: int) -> dict:
    """Measure one size in a fresh process, killed at the time or memory line."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, __file__, "--child", distance, rank, str(d)],
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
        return {"distance": distance, "d": d,
                "failed": killed or f"exit code {proc.returncode}"}
    return json.loads(out)


def median_run(distance: str, rank: str, d: int) -> dict:
    """Run one size RUNS times: the first run's line with the median time,
    each run's time and the largest peak RSS, or the first failed run's line."""
    runs = []
    for _ in range(RUNS):
        result = run(distance, rank, d)
        if "failed" in result:
            return result
        runs.append(result)
    seconds = [r["seconds"] for r in runs]
    return dict(runs[0], seconds=statistics.median(seconds), runs_s=seconds,
                peak_rss_mb=max(r["peak_rss_mb"] for r in runs))


def frontier(distance: str, rank: str) -> str:
    """Walk SIZES up to the first size past either line."""
    reached = None
    for d in SIZES:
        result = median_run(distance, rank, d)
        print(json.dumps(result), flush=True)
        if ("failed" in result or result["seconds"] > SECONDS
                or result["peak_rss_mb"] > RSS_MB):
            break
        reached = d
    else:
        return f"{distance} frontier: d = n >= {reached} (every size finished)"
    return f"{distance} frontier: d = n = {reached}"


def main() -> int:
    lines = [(frontier(distance, rank), rank) for distance, rank in ROWS]
    for line, rank in lines:
        print(f"{line} within {SECONDS:.0f} s and {RSS_MB:.0f} MB, "
              f"Kraus rank {'d * n' if rank == 'full' else rank}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        measure(sys.argv[2], sys.argv[3], int(sys.argv[4]))
    else:
        sys.exit(main())
