import inspect

import numpy as np
import pytest

import cpdist.dilations as dilations
import cpdist.metrics as metrics
import cpdist.verify as verify
from cpdist.sdp import SdpNoConvergence
from cpdist.serialize import dumps
from cpdist.verify import FAMILIES, TOLERANCE_DEFAULTS, run_batch, run_instance


def test_families_cover_all_certificates():
    assert set(FAMILIES) == {
        "continuity", "triangle", "monotonicity",
        "consistency", "mixture", "reflection",
    }


def test_run_instance_each_family_passes():
    for family in sorted(FAMILIES):
        rec = run_instance(family, d=2, n=2, m=None, seed=2026)
        assert rec["passed"], (family, rec)
        assert rec["family"] == family
        assert rec["seed"] == 2026
        assert rec["worst_slack"] >= 0.0
        assert "details" in rec


def test_run_instance_is_deterministic():
    a = run_instance("continuity", d=2, n=2, m=2, seed=5)
    b = run_instance("continuity", d=2, n=2, m=2, seed=5)
    assert a == b


def test_run_instance_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        run_instance("entropy", d=2, n=2, m=None, seed=0)
    with pytest.raises(ValueError):
        run_instance("continuity", d=2, n=2, m=None, seed=0,
                     tolerances={"wat": 1e-5})
    with pytest.raises(ValueError, match="seed must be non-negative"):
        run_instance("mixture", d=2, n=2, m=None, seed=-1)


def test_impossible_tolerance_fails_with_margins():
    rec = run_instance("continuity", d=2, n=2, m=2, seed=3,
                       tolerances={"witness": 1e-12})
    # a 1e-12 witness gate is below the solver's accuracy: must fail honestly
    assert not rec["passed"]
    assert rec["worst_slack"] < 0.0
    assert rec["details"]["margins"]["witness_gap"] < 0.0
    assert "cb_bracket" in rec["details"]["margins"]


def test_certificates_default_to_the_verify_table():
    # a library call, cpdist dist and cpdist verify gate alike
    assert TOLERANCE_DEFAULTS is metrics.TOLERANCE_DEFAULTS
    for certificate, param, key in (
            (metrics.continuity_certificate, "tol", "sandwich"),
            (metrics.continuity_certificate, "witness_tol", "witness"),
            (metrics.continuity_certificate, "residual_tol", "residual"),
            (metrics.monotonicity_certificate, "tol", "monotonicity"),
            (metrics.mixture_certificate, "tol", "mixture"),
            (metrics.reflection_certificate, "tol", "reflection"),
            (metrics.reflection_certificate, "rn_defect_tol", "rn_defect")):
        default = inspect.signature(certificate).parameters[param].default
        assert default == TOLERANCE_DEFAULTS[key], (certificate, param)


# Each tolerance key: a family that reads it, and the checks it bounds there.
KEY_GATES = {
    "sandwich": ("continuity", {"lower", "upper"}),
    "witness": ("continuity", {"witness_gap", "cb_bracket"}),
    "residual": ("continuity", {"dilation_residual"}),
    "triangle": ("triangle", {"triangle"}),
    "overlap": ("triangle", {"overlap12", "overlap23"}),
    "monotonicity": ("monotonicity", {"post", "pre"}),
    "consistency": ("consistency", {"consistency"}),
    "mixture": ("mixture", {f"s={k / 10:g}" for k in range(1, 10)}),
    "reflection": ("reflection", {"lower", "upper", "sqrt"}),
    "rn_defect": ("reflection", {"rn_defect"}),
}


@pytest.mark.parametrize("key", list(TOLERANCE_DEFAULTS))
def test_every_tolerance_key_reaches_its_gates(key):
    # a tolerance far below zero fails exactly the checks its key bounds
    family, gated = KEY_GATES[key]
    rec = run_instance(family, 2, 2, None, 2026, {key: -1e3})
    assert not rec["passed"]
    negative = {name for name, margin in rec["details"]["margins"].items()
                if margin < 0.0}
    assert negative == gated


def test_monotonicity_details_keep_one_record_per_side():
    rec = run_instance("monotonicity", d=2, n=2, m=None, seed=7)
    assert set(rec["details"]["margins"]) == {"post", "pre"}
    for side in ("post", "pre"):
        detail = rec["details"][side]
        assert set(detail) == {"before", "after", "norm", "slack"}
    assert rec["details"]["post"]["before"] == rec["details"]["pre"]["before"]


LIBRARY_CERTIFICATES = {
    "continuity": "continuity_certificate",
    "monotonicity": "monotonicity_certificate",
    "mixture": "mixture_certificate",
    "reflection": "reflection_certificate",
}


@pytest.mark.parametrize("tolerances", [None, {"rn_defect": 1e-20}])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_verdict_agrees_with_the_library_certificate(monkeypatch, family,
                                                     tolerances):
    # capture the certificates the runner builds from its own draws
    built = []
    name = LIBRARY_CERTIFICATES.get(family)
    if name is not None:
        real = getattr(verify, name)

        def capture(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(verify, name, capture)
    rec = run_instance(family, d=2, n=2, m=None, seed=3,
                       tolerances=tolerances)
    margins = rec["details"]["margins"]
    assert rec["worst_slack"] == min(margins.values())
    assert rec["passed"] == (rec["worst_slack"] >= 0.0)
    if name is not None:
        assert built
        assert rec["passed"] == all(cert.passed for cert in built)
        assert margins == {c.name: c.margin
                           for cert in built for c in cert.checks}
    if family == "reflection" and tolerances:
        # a defect of about 7e-16 misses a 1e-20 gate in both verdicts
        assert not rec["passed"] and margins["rn_defect"] < 0.0


def test_inverted_cb_bracket_has_a_negative_margin(monkeypatch):
    import dataclasses

    import cpdist.metrics as metrics

    real = metrics.cb_norm

    def inverted(f):
        res = real(f)
        return dataclasses.replace(
            res, cb=metrics.Bracket(res.cb.lo, res.cb.lo - 1e-9))

    monkeypatch.setattr(metrics, "cb_norm", inverted)
    rec = run_instance("continuity", d=2, n=2, m=2, seed=3)
    assert not rec["passed"]
    assert rec["details"]["margins"]["cb_bracket"] < 0.0
    assert rec["worst_slack"] == rec["details"]["margins"]["cb_bracket"]


def test_run_batch_aggregates():
    families = ["mixture", "reflection"]
    summary = run_batch(families, d=2, n=2, m=None, seed=40, count=3)
    assert summary["passed"] == 6
    assert summary["failed"] == 0
    assert summary["config"]["seed"] == 40
    assert summary["config"]["tolerances"] == TOLERANCE_DEFAULTS
    for fam in families:
        rec = summary["families"][fam]
        assert rec["passed"] == 3 and rec["failed"] == 0
        seeds = [inst["seed"] for inst in rec["instances"]]
        assert seeds == [40, 41, 42]
        assert rec["worst_slack"] >= 0.0
    with pytest.raises(ValueError):
        run_batch(families, d=2, n=2, m=None, seed=0, count=0)


def test_batch_summaries_are_serializable():
    summary = run_batch(["consistency"], d=2, n=2, m=2, seed=9, count=2)
    text = dumps(summary)
    assert '"consistency"' in text


def test_rectangular_instances_pass():
    # non-square case: maps from 3x3 into 2x2 matrices
    for family in ("continuity", "triangle", "consistency"):
        rec = run_instance(family, d=3, n=2, m=2, seed=77)
        assert rec["passed"], (family, rec)
    # shapes with d*n < 3 cap the drawn Kraus rank at d*n
    for d, n in ((1, 1), (1, 2), (2, 1)):
        for family in sorted(FAMILIES):
            rec = run_instance(family, d=d, n=n, m=None, seed=77)
            assert rec["passed"], (d, n, family, rec)


@pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError])
def test_instance_exception_is_a_failed_record(monkeypatch, error):
    def broken(pair, tols):
        raise error("broken instance")

    monkeypatch.setitem(verify.FAMILIES, "mixture", broken)
    summary = run_batch(["mixture", "reflection"], d=2, n=2, m=None,
                        seed=4, count=1)
    assert summary["failed"] == 1 and summary["passed"] == 1
    rec, = summary["families"]["mixture"]["instances"]
    assert not rec["passed"] and rec["worst_slack"] == -1.0
    assert rec["details"]["error"] == f"{error.__name__}: broken instance"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   "abc", None])
def test_non_finite_tolerance_is_refused_before_any_instance(monkeypatch, value):
    ran = []

    def counted(pair, tols):
        ran.append(pair.instance)
        return [], {}

    monkeypatch.setitem(verify.FAMILIES, "mixture", counted)
    refused = "tolerance 'mixture' (must be finite|has non-numeric value)"
    with pytest.raises(ValueError, match=refused):
        run_batch(["mixture"], 2, 2, None, 0, 2, {"mixture": value})
    with pytest.raises(ValueError, match=refused):
        run_instance("mixture", 2, 2, None, 0, {"mixture": value})
    assert ran == []


def count_family_calls(monkeypatch):
    ran = []
    for family in sorted(FAMILIES):
        def counted(pair, tols, family=family):
            ran.append((family, pair.instance))
            return [], {}
        monkeypatch.setitem(verify.FAMILIES, family, counted)
    return ran


# (d, n, m) shapes that some family of the batch cannot draw.  mixture runs
# first in the batch, so a shape checked per instance would let it run.
@pytest.mark.parametrize("d, n, m, message", [
    (0, 2, None, "dimensions must be positive"),
    (2, 0, None, "dimensions must be positive"),
    (2, 2, 0, "dimensions must be positive"),
    (2, 5, 2, r"d\*m = 4 < n = 5"),
    # monotonicity also draws a map M_n -> M_n, of Kraus rank at most n*n = 1
    (3, 1, 2, "m = 2 exceeds the maximal Kraus rank 1"),
])
def test_unrunnable_shapes_are_refused_before_any_instance(monkeypatch, d, n,
                                                           m, message):
    ran = count_family_calls(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run_batch(["mixture", "monotonicity"], d, n, m, 0, 2)
    with pytest.raises(ValueError, match=message):
        run_instance("monotonicity", d, n, m, 0)
    assert ran == []


def test_kraus_rank_binds_each_family_by_the_maps_it_draws(monkeypatch):
    # continuity draws only maps M_3 -> M_1, of Kraus rank up to d*n = 3
    rec = run_instance("continuity", 3, 1, 2, 0)
    assert rec["passed"], rec
    ran = count_family_calls(monkeypatch)
    with pytest.raises(ValueError, match="exceeds the maximal Kraus rank 2"):
        run_instance("continuity", 2, 1, 3, 0)
    with pytest.raises(ValueError, match="dimensions must be positive"):
        run_batch(["mixture"], 0, 2, None, 0, 1)
    assert ran == []


# verify-qubit's families: every family but continuity, which that
# benchmark workload leaves out.
SOLVER_FAMILIES = ("consistency", "mixture", "monotonicity", "reflection",
                   "triangle")


def count_solves(monkeypatch):
    problems = []
    real = metrics.solve

    def counted(problem):
        problems.append(problem)
        return real(problem)

    monkeypatch.setattr(metrics, "solve", counted)
    return problems


def test_a_batch_solves_each_pair_once(monkeypatch):
    # Per instance: the shared beta(t1, t2), triangle's beta23 and beta13,
    # monotonicity's post and pre sides and continuity's cb_norm; four
    # families read beta(t1, t2), and it is solved once.
    problems = count_solves(monkeypatch)
    run_batch(sorted(FAMILIES), 2, 2, None, 7, 3)
    assert len(problems) == 18
    problems.clear()
    run_batch(SOLVER_FAMILIES, 2, 2, None, 7, 3)
    assert len(problems) == 5 * 3


@pytest.mark.parametrize("d, n, m", [(2, 2, None), (3, 2, 2), (2, 3, 2)])
def test_batch_records_match_each_instance_alone(d, n, m):
    summary = run_batch(sorted(FAMILIES), d, n, m, 7, 3)
    for family in sorted(FAMILIES):
        for rec, seed in zip(summary["families"][family]["instances"],
                             (7, 8, 9)):
            assert rec == run_instance(family, d, n, m, seed), family


def test_families_that_do_not_read_the_pair_never_draw_it(monkeypatch):
    drawn = []
    for name in ("random_channel", "minimal_dilation"):
        def counted(*args, real=getattr(verify, name), name=name, **kwargs):
            drawn.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(verify, name, counted)
    problems = count_solves(monkeypatch)
    summary = run_batch(["mixture", "reflection"], 2, 2, None, 0, 3)
    assert summary["passed"] == 6
    assert drawn == [] and problems == []


def test_a_triangle_instance_checks_its_triple_once(monkeypatch):
    # The triple is built in closed form from the two Bures contractions:
    # one verify_dilation per output and no least-squares intertwiner.
    calls = []
    real_verify = dilations.verify_dilation
    real_lstsq = np.linalg.lstsq

    def counted_verify(*args):
        calls.append("verify_dilation")
        return real_verify(*args)

    def counted_lstsq(*args, **kwargs):
        calls.append("lstsq")
        return real_lstsq(*args, **kwargs)

    for module in (dilations, verify, metrics):
        monkeypatch.setattr(module, "verify_dilation", counted_verify)
    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    assert run_instance("triangle", 2, 2, None, 7)["passed"]
    assert calls == ["verify_dilation"] * 3


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_pair_of_another_instance_is_refused(monkeypatch, family):
    other = verify._Pair(2, 2, None, 8)
    ran = count_family_calls(monkeypatch)
    with pytest.raises(ValueError, match="cannot run instance"):
        run_instance(family, 2, 2, None, 7, _pair=other)
    assert ran == []


def test_failed_shared_solve_fails_each_pair_family(monkeypatch):
    # beta(t1, t2) of seed 12 does not converge: each pair family records
    # the error it records alone, and the rest of the batch runs.
    target = verify._Pair(2, 2, None, 12).dilations
    real = metrics.bures

    def failing(t1, t2):
        pair = (metrics._as_dilation(t1), metrics._as_dilation(t2))
        if all(np.array_equal(a.kraus, b.kraus) for a, b in zip(pair, target)):
            raise SdpNoConvergence("no convergence after 0 iterations")
        return real(t1, t2)

    monkeypatch.setattr(metrics, "bures", failing)
    monkeypatch.setattr(verify, "bures", failing)
    summary = run_batch(sorted(FAMILIES), 2, 2, None, 11, 2)
    error = "SdpNoConvergence: no convergence after 0 iterations"
    for family in ("consistency", "continuity", "monotonicity", "triangle"):
        ok, failed = summary["families"][family]["instances"]
        assert ok["passed"] and ok["seed"] == 11
        assert failed["details"] == {"error": error}
        assert failed == run_instance(family, 2, 2, None, 12)
    for family in ("mixture", "reflection"):
        assert summary["families"][family]["passed"] == 2
    assert summary["failed"] == 4
