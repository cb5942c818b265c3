"""Batch certification runners shared by the CLI and the test suite.

Six certificate families, each checking one piece of the geometry:

* ``continuity``   - sandwich bounds, witness attainment and the width
                     of the exact cb bracket on one random pair of cp maps;
* ``triangle``     - triangle inequality plus the constructive common
                     representation for three maps and its overlap identities;
* ``monotonicity`` - contraction of the distance under pre- and
                     post-composition with a third cp map;
* ``consistency``  - agreement of the dilation-infimum distance with the
                     block-extension formulation;
* ``mixture``      - continuity of the functional distance along convex
                     mixtures;
* ``reflection``   - the two-sided functional bound chain through the
                     Radon-Nikodym reflection on dominated pairs.

Every runner consumes one instance seed and returns a record with a
``passed`` flag, a ``worst_slack`` (the minimum margin left before some
tolerance is violated; negative means the certificate failed), and enough
detail to reproduce the instance.  Instance k of a batch uses seed + k, so
batches are deterministic and order-independent.
"""

from __future__ import annotations

import math

import numpy as np

from .dilations import triangle_dilations, verify_dilation
from .linalg import operator_norm
from .maps import CpMap, random_channel, random_density
from .metrics import (
    bracket_roundoff,
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

TOLERANCE_DEFAULTS = {
    "sandwich": 1e-5,      # lower/upper sandwich slack
    "witness": 1e-5,       # |witness norm - beta|, cb bracket width
    "residual": 1e-8,      # dilation residuals
    "agreement": 1e-4,     # |bures - bures_extension| in dist reports
    "triangle": 1e-5,      # triangle inequality slack
    "overlap": 1e-8,       # constructive overlap identities
    "monotonicity": 1e-5,  # composition contraction slack
    "consistency": 1e-4,   # |bures - bures_extension|
    "mixture": 1e-8,       # mixture continuity slack
    "reflection": 1e-8,    # reflection chain slacks
    "rn_defect": 1e-9,     # Radon-Nikodym reconstruction defect
}


def _merged(tolerances) -> dict:
    tols = dict(TOLERANCE_DEFAULTS)
    if tolerances:
        unknown = set(tolerances) - set(tols)
        if unknown:
            raise ValueError(
                f"unknown tolerance keys: {sorted(unknown)}; "
                f"known: {sorted(tols)}")
        tols.update({k: float(v) for k, v in tolerances.items()})
    return tols


def _draw_multiplicity(rng, d: int, n: int, m: int | None) -> int:
    if m is not None:
        return m
    lo = max(1, math.ceil(n / d))
    return int(rng.integers(lo, min(max(lo, 3), d * n) + 1))


def _draw_channel(rng, d: int, n: int, m: int | None) -> CpMap:
    mult = _draw_multiplicity(rng, d, n, m)
    return random_channel(d, n, mult, seed=int(rng.integers(2 ** 63)))


def _run_continuity(d, n, m, seed, tols) -> dict:
    rng = np.random.default_rng(seed)
    t1 = _draw_channel(rng, d, n, m)
    t2 = _draw_channel(rng, d, n, m)
    report = continuity_certificate(
        t1, t2, seed=seed,
        tol=tols["sandwich"], witness_tol=tols["witness"],
        residual_tol=tols["residual"],
    )
    s = report.slacks
    margins = {
        "lower": s["lower"] + tols["sandwich"],
        "upper": s["upper"] + tols["sandwich"],
        "witness": tols["witness"] - s["witness_gap"],
        "residual": tols["residual"] - s["dilation_residual"],
        "cb_bracket": min(tols["witness"] - s["cb_bracket"],
                          s["cb_bracket"] + bracket_roundoff(report.cb_diff)),
    }
    return {
        "passed": bool(report.passed),
        "worst_slack": min(margins.values()),
        "details": {"report": report.to_dict(), "margins": margins},
    }


def _run_triangle(d, n, m, seed, tols) -> dict:
    rng = np.random.default_rng(seed)
    t1 = _draw_channel(rng, d, n, m)
    t2 = _draw_channel(rng, d, n, m)
    t3 = _draw_channel(rng, d, n, m)
    r12 = bures(t1, t2)
    r23 = bures(t2, t3)
    r13 = bures(t1, t3)
    tri1, tri2, tri3 = triangle_dilations(t1, t2, t3, r12.pair, r23.pair)

    overlap12 = operator_norm(
        tri2.v.conj().T @ tri1.v - r12.pair[1].v.conj().T @ r12.pair[0].v)
    overlap23 = operator_norm(
        tri2.v.conj().T @ tri3.v - r23.pair[0].v.conj().T @ r23.pair[1].v)
    residual = max(verify_dilation(tri1, t1), verify_dilation(tri2, t2),
                   verify_dilation(tri3, t3))
    d12 = bures_fixed_pair(tri1, tri2)
    d23 = bures_fixed_pair(tri2, tri3)
    d13 = bures_fixed_pair(tri1, tri3)

    margins = {
        "triangle": r12.value + r23.value + tols["triangle"] - r13.value,
        "overlap12": tols["overlap"] - overlap12,
        "overlap23": tols["overlap"] - overlap23,
        "residual": tols["residual"] - residual,
        # the construction preserves both pairwise distances ...
        "attained12": tols["witness"] - abs(d12 - r12.value),
        "attained23": tols["witness"] - abs(d23 - r23.value),
        # ... and chains the inequality through the middle dilation
        "chain_lower": d13 - r13.value + tols["witness"],
        "chain_upper": d12 + d23 - d13 + tols["witness"],
    }
    return {
        "passed": all(v >= 0.0 for v in margins.values()),
        "worst_slack": min(margins.values()),
        "details": {
            "beta12": r12.value, "beta23": r23.value, "beta13": r13.value,
            "margins": margins,
        },
    }


def _run_monotonicity(d, n, m, seed, tols) -> dict:
    rng = np.random.default_rng(seed)
    t1 = _draw_channel(rng, d, n, m)
    t2 = _draw_channel(rng, d, n, m)
    post = monotonicity_certificate(
        _draw_channel(rng, n, n, m), t1, t2,
        side="post", tol=tols["monotonicity"])
    pre = monotonicity_certificate(
        _draw_channel(rng, d, d, m), t1, t2,
        side="pre", tol=tols["monotonicity"])
    margins = {
        "post": post.slack + tols["monotonicity"],
        "pre": pre.slack + tols["monotonicity"],
    }
    return {
        "passed": bool(post.passed and pre.passed),
        "worst_slack": min(margins.values()),
        "details": {
            "post": {"before": post.before, "after": post.after,
                     "norm": post.norm_s, "slack": post.slack},
            "pre": {"before": pre.before, "after": pre.after,
                    "norm": pre.norm_s, "slack": pre.slack},
            "margins": margins,
        },
    }


def _run_consistency(d, n, m, seed, tols) -> dict:
    rng = np.random.default_rng(seed)
    t1 = _draw_channel(rng, d, n, m)
    t2 = _draw_channel(rng, d, n, m)
    direct = bures(t1, t2)
    ext = bures_extension(t1, t2)
    diff = abs(direct.value - ext.value)
    margins = {"consistency": tols["consistency"] - diff}
    return {
        "passed": diff <= tols["consistency"],
        "worst_slack": margins["consistency"],
        "details": {"beta": direct.value, "beta_ext": ext.value,
                    "margins": margins},
    }


def _run_mixture(d, n, m, seed, tols) -> dict:
    rng = np.random.default_rng(seed)
    rho0 = random_density(d, rng)
    rho1 = random_density(d, rng)
    cert = mixture_certificate(rho0, rho1, tol=tols["mixture"])
    return {
        "passed": bool(cert.passed),
        "worst_slack": cert.worst_slack + tols["mixture"],
        "details": {
            "base": cert.base, "bound": cert.bound,
            "s_grid": list(cert.s_grid), "slacks": list(cert.slacks),
        },
    }


def _run_reflection(d, n, m, seed, tols) -> dict:
    rng = np.random.default_rng(seed)
    rho0 = random_density(d, rng)                # full rank: dominates all
    rho1 = random_density(d, rng, rank=int(rng.integers(1, d + 1)))
    cert = reflection_certificate(rho0, rho1, tol=tols["reflection"])
    margins = {
        "lower": cert.slack_lower + tols["reflection"],
        "upper": cert.slack_upper + tols["reflection"],
        "sqrt": cert.slack_sqrt + tols["reflection"],
        "rn_defect": tols["rn_defect"] - cert.rn_defect,
    }
    return {
        "passed": all(v >= 0.0 for v in margins.values()),
        "worst_slack": min(margins.values()),
        "details": {
            "beta": cert.beta, "reflection_value": cert.reflection_value,
            "norm_diff": cert.norm_diff, "rn_defect": cert.rn_defect,
            "margins": margins,
        },
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
                 seed: int, tolerances=None) -> dict:
    """Run one certificate instance; returns {passed, worst_slack, details}."""
    if family not in FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    tols = _merged(tolerances)
    try:
        record = FAMILIES[family](d, n, m, seed, tols)
    except Exception as exc:
        # Any failure (solver non-convergence, a numerical error) is a failed
        # instance naming its cause, with a finite sentinel slack so reports
        # stay serializable; the batch goes on.
        record = {
            "passed": False,
            "worst_slack": -1.0,
            "details": {"error": f"{type(exc).__name__}: {exc}"},
        }
    record["family"] = family
    record["seed"] = seed
    return record


def run_batch(families, d: int, n: int, m: int | None, seed: int,
              count: int, tolerances=None) -> dict:
    """Run `count` seeded instances of each family and aggregate.

    Instance k uses seed + k.  The summary maps each family to
    {passed, failed, worst_slack} plus per-instance records sorted by
    instance index, and carries overall pass/fail counts.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    summary = {
        "config": {"d": d, "n": n, "m": m, "seed": seed, "count": count,
                   "tolerances": _merged(tolerances)},
        "families": {},
        "passed": 0,
        "failed": 0,
    }
    for family in families:
        records = [
            run_instance(family, d, n, m, seed + k, tolerances)
            for k in range(count)
        ]
        passed = sum(1 for r in records if r["passed"])
        summary["families"][family] = {
            "passed": passed,
            "failed": count - passed,
            "worst_slack": min(r["worst_slack"] for r in records),
            "instances": records,
        }
        summary["passed"] += passed
        summary["failed"] += count - passed
    return summary
