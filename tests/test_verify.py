import numpy as np
import pytest

import cpdist.verify as verify
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


def test_impossible_tolerance_fails_with_margins():
    rec = run_instance("continuity", d=2, n=2, m=2, seed=3,
                       tolerances={"witness": 1e-12})
    # a 1e-12 witness gate is below the solver's accuracy: must fail honestly
    assert not rec["passed"]
    assert rec["worst_slack"] < 0.0
    assert rec["details"]["margins"]["witness"] < 0.0
    assert "cb_bracket" in rec["details"]["margins"]


def test_inverted_cb_bracket_has_a_negative_margin(monkeypatch):
    import dataclasses

    import cpdist.metrics as metrics

    real = metrics.cb_norm

    def inverted(f):
        res = real(f)
        return dataclasses.replace(res, upper=res.value - 1e-9)

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
    def broken(d, n, m, seed, tols):
        raise error("broken instance")

    monkeypatch.setitem(verify.FAMILIES, "mixture", broken)
    summary = run_batch(["mixture", "reflection"], d=2, n=2, m=None,
                        seed=4, count=1)
    assert summary["failed"] == 1 and summary["passed"] == 1
    rec, = summary["families"]["mixture"]["instances"]
    assert not rec["passed"] and rec["worst_slack"] == -1.0
    assert rec["details"]["error"] == f"{error.__name__}: broken instance"
