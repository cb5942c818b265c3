"""Batch certification runners shared by the CLI and the test suite.

Six certificate families, each checking one piece of the geometry:

* ``continuity``   - sandwich bounds, witness attainment and the width
                     of the exact cb bracket on one random pair of cp maps;
* ``triangle``     - triangle inequality plus the common representation
                     of three maps, the two contraction-steered Bures pairs
                     glued along min2 ⊕ 0, and its overlap identities;
* ``monotonicity`` - contraction of the distance under pre- and
                     post-composition with a third cp map;
* ``consistency``  - agreement of the dilation-infimum distance with the
                     value of the 2x2 cp extension read off its witness
                     pair (one solve);
* ``mixture``      - continuity of the functional distance along convex
                     mixtures;
* ``reflection``   - the two-sided functional bound chain through the
                     Radon-Nikodym reflection on dominated pairs.

Every runner takes the seed's ``_Pair`` and the tolerances and returns its
checks (one ``metrics.Check`` per gate, most of them taken from the
library certificate it builds) and enough detail to reproduce the instance.
A runner reads a Bures distance only through its ``metrics.Bracket``: the
point value it checks and reports is the bracket's lower end ``beta.lo``.
``run_instance`` alone turns those into the record: ``margins`` maps each
check's name to its margin, ``worst_slack`` is the least margin (negative
means the certificate failed), and ``passed`` is true when every check
passes.  Instance k of a batch uses seed + k, so batches are deterministic
and order-independent.

``continuity``, ``triangle``, ``monotonicity`` and ``consistency`` check
the pair (t1, t2) that the seed draws first; ``mixture`` and ``reflection``
never draw it.  ``run_instance`` makes a ``_Pair`` for a family run alone,
and ``run_batch`` makes one per seed and passes it to each family, so they
share one draw, its minimal dilations and one Bures solve: triangle's
beta12 and consistency's beta are that solve, and it reaches
``continuity_certificate`` and ``monotonicity_certificate`` through their
``solved`` keyword.  The solver is deterministic, so every record is the
one ``run_instance`` gives for its family and seed alone, bit for bit.

The rules on what can run live here (``_check_runnable``, ``_merged`` and
``run_batch``'s count), and ``cpdist verify`` only reports their ValueError.
"""

from __future__ import annotations

import copy
import functools
import math

import numpy as np

from .dilations import minimal_dilation, triangle_dilations, verify_dilation
from .linalg import operator_norm
from .maps import CpMap, random_channel, random_density
from .metrics import (
    TOLERANCE_DEFAULTS,
    BuresResult,
    Check,
    bures,
    bures_extension,
    bures_fixed_pair,
    continuity_certificate,
    mixture_certificate,
    monotonicity_certificate,
    reflection_certificate,
)

__all__ = [
    "FAMILIES",
    "TOLERANCE_DEFAULTS",
    "run_instance",
    "run_batch",
]


def _merged(tolerances) -> dict:
    """TOLERANCE_DEFAULTS updated by `tolerances`, as floats.  ValueError
    refuses, key by key, a value float() cannot read (None too), an unknown
    key, and a NaN or infinite value, which would switch its gates off."""
    tols = dict(TOLERANCE_DEFAULTS)
    for key, value in (tolerances or {}).items():
        try:
            tols[key] = float(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"tolerance {key!r} has non-numeric value {value!r}") from exc
        if key not in TOLERANCE_DEFAULTS:
            raise ValueError(f"unknown tolerance key {key!r}; known: "
                             f"{', '.join(sorted(TOLERANCE_DEFAULTS))}")
        if not math.isfinite(tols[key]):
            raise ValueError(f"tolerance {key!r} must be finite, got {value!r}")
    return tols


def _check_runnable(families, d: int, n: int, m: int | None,
                    seed: int) -> None:
    """Refuse (ValueError) an unknown family, a shape some of `families`
    cannot draw, and a negative seed, which numpy cannot seed with.  d, n
    and a given m must be positive, d*m >= n, and m at most d*n, the Kraus
    rank of a map M_d -> M_n (and n*n and d*d for monotonicity, which also
    draws maps M_n -> M_n and M_d -> M_d)."""
    for family in families:
        if family not in FAMILIES:
            raise ValueError(
                f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    if d < 1 or n < 1 or (m is not None and m < 1):
        raise ValueError("dimensions must be positive")
    rank = d * n
    if "monotonicity" in families:
        rank = min(rank, n * n, d * d)
    if m is not None and d * m < n:
        raise ValueError(f"no channel with d*m = {d * m} < n = {n}")
    if m is not None and m > rank:
        raise ValueError(f"m = {m} exceeds the maximal Kraus rank {rank} "
                         "of the drawn maps")
    if seed < 0:
        raise ValueError("seed must be non-negative")


def _draw_multiplicity(rng, d: int, n: int, m: int | None) -> int:
    if m is not None:
        return m
    lo = max(1, math.ceil(n / d))
    return int(rng.integers(lo, min(max(lo, 3), d * n) + 1))


def _draw_channel(rng, d: int, n: int, m: int | None) -> CpMap:
    mult = _draw_multiplicity(rng, d, n, m)
    return random_channel(d, n, mult, seed=int(rng.integers(2 ** 63)))


class _Pair:
    """One seed's pair (t1, t2), drawn first from ``default_rng(seed)``.

    The draw, the two minimal dilations and the Bures solve between them
    are made on first use and then read by every family given the pair.
    A solve that raised raises again for each reader, so a family records
    the error it would record alone.
    """

    def __init__(self, d, n, m, seed):
        self.instance = (d, n, m, seed)

    @functools.cached_property
    def _drawn(self) -> tuple:
        d, n, m, seed = self.instance
        rng = np.random.default_rng(seed)
        t1 = _draw_channel(rng, d, n, m)
        t2 = _draw_channel(rng, d, n, m)
        return t1, t2, rng

    @property
    def maps(self) -> tuple:
        return self._drawn[:2]

    def rng(self):
        """The seed's generator just after the pair's draws, for more."""
        return copy.deepcopy(self._drawn[2])

    @functools.cached_property
    def dilations(self) -> tuple:
        return tuple(minimal_dilation(t) for t in self.maps)

    @functools.cached_property
    def _solved(self):
        try:
            return bures(*self.dilations)
        except Exception as exc:
            return exc

    def bures(self) -> BuresResult:
        if isinstance(self._solved, Exception):
            raise self._solved
        return self._solved


def _run_continuity(pair, tols) -> tuple:
    report = continuity_certificate(
        *pair.maps, seed=pair.instance[3],
        tol=tols["sandwich"], witness_tol=tols["witness"],
        residual_tol=tols["residual"], solved=pair.bures(),
    )
    return report.checks, {"report": report.to_dict()}


def _run_triangle(pair, tols) -> tuple:
    d, n, m, _ = pair.instance
    t1, t2 = pair.maps
    t3 = _draw_channel(pair.rng(), d, n, m)
    min1, min2 = pair.dilations
    min3 = minimal_dilation(t3)
    r12 = pair.bures()
    r23 = bures(min2, min3)
    r13 = bures(min1, min3)
    b12, b23, b13 = r12.beta, r23.beta, r13.beta
    tri1, tri2, tri3 = triangle_dilations(min1, min2, min3, r12.contraction,
                                          r23.contraction)

    overlap12 = operator_norm(
        tri2.v.conj().T @ tri1.v - r12.pair[1].v.conj().T @ r12.pair[0].v)
    overlap23 = operator_norm(
        tri2.v.conj().T @ tri3.v - r23.pair[0].v.conj().T @ r23.pair[1].v)
    residual = max(verify_dilation(tri1, t1), verify_dilation(tri2, t2),
                   verify_dilation(tri3, t3))
    d12 = bures_fixed_pair(tri1, tri2)
    d23 = bures_fixed_pair(tri2, tri3)
    d13 = bures_fixed_pair(tri1, tri3)

    checks = (
        Check("triangle", b12.lo + b23.lo - b13.lo, lo=-tols["triangle"]),
        Check("overlap12", overlap12, hi=tols["overlap"]),
        Check("overlap23", overlap23, hi=tols["overlap"]),
        Check("residual", residual, hi=tols["residual"]),
        # the construction preserves both pairwise distances ...
        Check("attained12", abs(d12 - b12.lo), hi=tols["witness"]),
        Check("attained23", abs(d23 - b23.lo), hi=tols["witness"]),
        # ... and chains the inequality through the middle dilation
        Check("chain_lower", d13 - b13.lo, lo=-tols["witness"]),
        Check("chain_upper", d12 + d23 - d13, lo=-tols["witness"]),
    )
    return checks, {"beta12": b12.lo, "beta23": b23.lo, "beta13": b13.lo}


def _run_monotonicity(pair, tols) -> tuple:
    d, n, m, _ = pair.instance
    rng = pair.rng()
    post = _draw_channel(rng, n, n, m)
    pre = _draw_channel(rng, d, d, m)
    cert = monotonicity_certificate(post, pre, *pair.maps,
                                    tol=tols["monotonicity"],
                                    solved=pair.bures())
    return cert.checks, {
        c.name: {"before": cert.before, "after": cert.after[c.name],
                 "norm": cert.norm_s[c.name], "slack": c.value}
        for c in cert.checks
    }


def _run_consistency(pair, tols) -> tuple:
    direct = pair.bures()
    ext = bures_extension(*direct.pair)
    checks = (Check("consistency", abs(direct.beta.lo - ext.value),
                    hi=tols["consistency"]),)
    return checks, {"beta": direct.beta.lo, "beta_ext": ext.value}


def _run_mixture(pair, tols) -> tuple:
    d, _, _, seed = pair.instance
    rng = np.random.default_rng(seed)
    rho0 = random_density(d, rng)
    rho1 = random_density(d, rng)
    cert = mixture_certificate(rho0, rho1, tol=tols["mixture"])
    return cert.checks, {
        "base": cert.base, "bound": cert.bound,
        "s_grid": list(cert.s_grid), "slacks": [c.value for c in cert.checks],
    }


def _run_reflection(pair, tols) -> tuple:
    d, _, _, seed = pair.instance
    rng = np.random.default_rng(seed)
    rho0 = random_density(d, rng)                # full rank: dominates all
    rho1 = random_density(d, rng, rank=int(rng.integers(1, d + 1)))
    cert = reflection_certificate(rho0, rho1, tol=tols["reflection"],
                                  rn_defect_tol=tols["rn_defect"])
    return cert.checks, {
        "beta": cert.beta, "reflection_value": cert.reflection_value,
        "norm_diff": cert.norm_diff, "rn_defect": cert.rn_defect,
    }


FAMILIES = {
    "continuity": _run_continuity,
    "triangle": _run_triangle,
    "monotonicity": _run_monotonicity,
    "consistency": _run_consistency,
    "mixture": _run_mixture,
    "reflection": _run_reflection,
}


def run_instance(family: str, d: int, n: int, m: int | None,
                 seed: int, tolerances=None, *, _pair=None) -> dict:
    """Run one certificate instance on `_pair` (only run_batch passes one)
    or on a _Pair of its own; returns {passed, worst_slack, details}, with
    each check's margin under details["margins"].  ValueError refuses, before
    any draw, a shape the family cannot draw, a negative seed, a bad
    tolerance, and a `_pair` that is not the pair of (d, n, m, seed)."""
    _check_runnable((family,), d, n, m, seed)
    tols = _merged(tolerances)
    pair = _Pair(d, n, m, seed) if _pair is None else _pair
    if pair.instance != (d, n, m, seed):
        raise ValueError(f"the pair of instance {pair.instance} cannot run "
                         f"instance {d, n, m, seed}")
    try:
        checks, details = FAMILIES[family](pair, tols)
    except Exception as exc:
        # Any failure (solver non-convergence, a numerical error) is a failed
        # instance naming its cause, with a finite sentinel slack so reports
        # stay serializable; the batch goes on.
        record = {
            "passed": False,
            "worst_slack": -1.0,
            "details": {"error": f"{type(exc).__name__}: {exc}"},
        }
    else:
        margins = {c.name: c.margin for c in checks}
        record = {
            "passed": all(c.passed for c in checks),
            "worst_slack": min(margins.values()),
            "details": {**details, "margins": margins},
        }
    record["family"] = family
    record["seed"] = seed
    return record


def run_batch(families, d: int, n: int, m: int | None, seed: int,
              count: int, tolerances=None) -> dict:
    """Run `count` seeded instances of each family and aggregate.

    Before any instance runs, ValueError refuses an unknown family, a
    shape some family cannot draw or a negative seed (_check_runnable), a
    count below 1, and a tolerance that _merged refuses.

    Instance k uses seed + k, and a family named twice runs once.  The
    batch runs one seed at a time and passes the seed's _Pair to each
    family's run_instance: one draw of (t1, t2) and one Bures solve between
    them, dropped when the seed is done.  Each record is the one
    run_instance gives for that family and seed alone.  The summary maps
    each family to {passed, failed, worst_slack} plus per-instance records
    sorted by instance index, with overall counts.
    """
    records = {family: [] for family in families}
    _check_runnable(records, d, n, m, seed)
    if count < 1:
        raise ValueError("count must be at least 1")
    summary = {
        "config": {"d": d, "n": n, "m": m, "seed": seed, "count": count,
                   "tolerances": _merged(tolerances)},
        "families": {},
        "passed": 0,
        "failed": 0,
    }
    for k in range(count):
        pair = _Pair(d, n, m, seed + k)
        for family, recs in records.items():
            recs.append(run_instance(family, d, n, m, seed + k, tolerances,
                                     _pair=pair))
    for family, recs in records.items():
        passed = sum(1 for r in recs if r["passed"])
        summary["families"][family] = {
            "passed": passed,
            "failed": count - passed,
            "worst_slack": min(r["worst_slack"] for r in recs),
            "instances": recs,
        }
        summary["passed"] += passed
        summary["failed"] += count - passed
    return summary
