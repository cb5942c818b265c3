"""Seeded inputs, the timed op and its output check for each workload.

A workload turns a run seed into a list of distinct instances, runs one
instance per op through the library's public entry points, and checks
each op's output.  The channels of dist-qubit and cbnorm-d4 are drawn by
this module's own generator, not by the library, so a change to the library
cannot change what those two measure.  verify-qubit passes only a seed:
``cpdist verify`` draws its channels and states itself, with
``cpdist.maps.random_channel`` and ``random_density``.  When that generator
changes, verify-qubit's work changes with it, and its pool order in
``pools.json`` must be made again with ``make_pool.py``.

A workload is used in these steps:

* ``instances(seed, count)`` -> list of (label, payload), built in set-up;
* ``warmup()`` -> the payload of the untimed warm-up op;
* ``op(payload)`` -> output, the timed call;
* ``check(payload, output)`` -> None when the output is correct, else the
  reason it is not; ``render(output)`` gives the text that must repeat
  byte for byte when the op is run again.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# Key of the generator namespace, so that no two workloads share a stream.
_KEY = {"dist-qubit": 11, "cbnorm-d4": 12, "verify-qubit": 13}

# A run holds at least this many ops, so that op_s_tail, the highest
# percentile with ten ops beyond it, is at least the 65th.
MIN_OPS = 29


def haar_kraus(rng, d: int, n: int, m: int) -> list:
    """Kraus operators (d x n each) of a Haar-random unital channel.

    A Haar isometry C^n -> C^d (x) C^m from the phase-fixed QR of a complex
    Gaussian matrix, sliced into m blocks, so that sum_i K_i' K_i = 1.
    """
    g = rng.standard_normal((d * m, n)) + 1j * rng.standard_normal((d * m, n))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    v = (q * (diag / np.abs(diag))[np.newaxis, :]).reshape(d, m, n)
    return [np.ascontiguousarray(v[:, i, :]) for i in range(m)]


def channel_doc(kraus) -> dict:
    """The channel file format read by ``cpdist dist``."""
    d, n = kraus[0].shape
    return {
        "d_in": d,
        "d_out": n,
        "kraus": [[[[float(z.real), float(z.imag)] for z in row] for row in k]
                  for k in kraus],
    }


def _run_cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def load_pools() -> dict:
    with open(os.path.join(HERE, "pools.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """A pool of instances, sorted by the work of their op, and a run's draw.

    Per-instance cost is uneven.  On dist-qubit it is bimodal: pairs whose
    optimal cross term N(rho*) drops rank run the Frank-Wolfe ascent into
    its evaluation cap and cost about ten times more than the others.  A
    run that drew its instances freely would hold a different share of slow
    ones every time.  So ``pools.json`` lists each pool sorted by the number
    of function calls its op makes (counted once with ``make_pool.py``), and
    a run of `count` ops draws one instance from each of `count` equal bins
    of that order (stratified sampling).  Every run then has the pool's
    cost profile, while the instances themselves differ from seed to seed.
    The bins are laid out symmetrically and `count` is odd, so the run's
    median op is one op, drawn from the bin centred on the pool's median.
    On dist-qubit that bin lies inside the flat top of the fast mode; with
    an even count the median averages two ops, one of them from a bin that
    reaches the ramp up to the slow mode.
    The order is only a sampling plan: if a later change alters which
    instances are slow, runs stay unbiased and only their spread grows.
    """

    name = ""
    prefix = ""
    # Mean op time on a 2-core x86-64 box with one BLAS thread; sets how
    # many ops a run of a given length holds (``run_length``).
    op_cost_s: float

    def __init__(self, cpdist, workdir, pool=None):
        self.workdir = workdir
        self.pool = load_pools()[self.name] if pool is None else pool

    def run_length(self, seconds):
        """Ops in a run of `seconds`: seconds / op_cost_s, at least MIN_OPS,
        rounded up to an odd number."""
        count = max(MIN_OPS, round(seconds / self.op_cost_s))
        return count + 1 - count % 2

    def instances(self, seed, count):
        order = self.pool["order"][1:]       # order[0] is the warm-up
        if not 1 <= count <= len(order):
            raise ValueError(f"count must be in [1, {len(order)}], got {count}")
        # three words, so that no seed shares a stream with an instance
        rng = np.random.default_rng([_KEY[self.name], seed % 2 ** 64, 0])
        edges = np.round(np.linspace(0, len(order), count + 1)).astype(int)
        picks = [int(rng.choice(order[a:b])) for a, b in zip(edges, edges[1:])]
        rng.shuffle(picks)
        return [(f"{self.prefix}{i}", self.payload(i)) for i in picks]

    def warmup(self):
        return self.payload(self.pool["order"][0])


class DistQubit(Workload):
    """``cpdist dist a.json b.json`` in process, on Kraus-rank-2 qubit pairs."""

    name = "dist-qubit"
    prefix = "pair"
    op_cost_s = 1.0

    def __init__(self, cpdist, workdir, pool=None):
        super().__init__(cpdist, workdir, pool)
        self.cli = cpdist.cli

    def payload(self, index):
        rng = np.random.default_rng([_KEY[self.name], index])
        paths = []
        for side in "ab":
            path = os.path.join(self.workdir, f"pair{index}{side}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(channel_doc(haar_kraus(rng, 2, 2, 2)), fh)
            paths.append(path)
        return tuple(paths)

    def op(self, paths):
        return _run_cli(self.cli, ["dist", paths[0], paths[1], "--seed", "1"])

    def check(self, paths, output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        rep = json.loads(text)
        beta = rep["beta"]
        if not rep["lower"] - 1e-5 <= beta <= rep["upper"] + 1e-5:
            return (f"beta {beta!r} outside [lower, upper] = "
                    f"[{rep['lower']!r}, {rep['upper']!r}]")
        if abs(beta - rep["beta_ext"]) > 1e-4:
            return f"|beta - beta_ext| = {abs(beta - rep['beta_ext']):.3e}"
        return None

    def render(self, output):
        return output[1]


class CbNormD4(Workload):
    """``cb_norm(difference(t1, t2))`` on Kraus-rank-2 channels at d = n = 4.

    The large-SDP path: one solve with 257 constraints over real 32 x 32
    blocks, then the alternating cb ascent.
    """

    name = "cbnorm-d4"
    prefix = "pair"
    op_cost_s = 1.5

    def __init__(self, cpdist, workdir, pool=None):
        super().__init__(cpdist, workdir, pool)
        self.maps = cpdist.maps
        self.metrics = cpdist.metrics

    def payload(self, index):
        rng = np.random.default_rng([_KEY[self.name], index])
        kraus = haar_kraus(rng, 4, 4, 2), haar_kraus(rng, 4, 4, 2)
        bound = sum(float(np.linalg.norm(sum(k.conj().T @ k for k in ks), 2))
                    for ks in kraus)
        return tuple(self.maps.CpMap(4, 4, list(ks)) for ks in kraus), bound

    def op(self, payload):
        (t1, t2), _ = payload
        return self.metrics.cb_norm(self.maps.difference(t1, t2))

    def check(self, payload, res):
        _, bound = payload
        if res.ascent_value > res.value + 1e-4:
            return (f"ascent {res.ascent_value!r} above the SDP value "
                    f"{res.value!r}")
        if res.value > bound + 1e-8:
            return f"value {res.value!r} above ||T1(1)|| + ||T2(1)|| = {bound!r}"
        if res.sdp_gap > 1e-7:
            return f"sdp_gap {res.sdp_gap:.3e} > 1e-7"
        return None

    def render(self, res):
        return json.dumps([res.value, res.sdp_gap, res.ascent_value,
                           res.iterations])


class VerifyQubit(Workload):
    """``cpdist verify --d 2 --count 1 --seed s`` over five families.

    ``continuity`` is left out: it is the only family that runs the
    Frank-Wolfe ascent, so this workload exercises the solver without it.
    The pool index is the verify seed.
    """

    name = "verify-qubit"
    prefix = "seed"
    op_cost_s = 0.55
    families = ("consistency", "mixture", "monotonicity", "reflection",
                "triangle")

    def __init__(self, cpdist, workdir, pool=None):
        super().__init__(cpdist, workdir, pool)
        self.cli = cpdist.cli

    def payload(self, index):
        argv = ["verify", "--d", "2", "--count", "1", "--seed", str(index)]
        for family in self.families:
            argv += ["--family", family]
        return argv

    def op(self, argv):
        return _run_cli(self.cli, argv)

    def check(self, argv, output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        failed = json.loads(text)["failed"]
        if failed != 0:
            return f"{failed} certificate(s) failed"
        return None

    def render(self, output):
        return output[1]

WORKLOADS = {w.name: w for w in (DistQubit, CbNormD4, VerifyQubit)}
