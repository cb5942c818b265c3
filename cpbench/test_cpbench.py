"""Tests of the benchmark's own code: python3 -m pytest cpbench -q"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cpdist.cli  # noqa: E402
import cpdist.maps  # noqa: E402
import cpdist.metrics  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# -- the tail rule ------------------------------------------------------------

def test_tail_leaves_ten_ops_beyond():
    lat = [float(v) for v in range(1, 31)]
    value, note = run.tail(lat)
    assert value == 20.0
    assert sum(1 for v in lat if v > value) == 10
    assert note.startswith("p66 of 30 ops")


def test_tail_takes_the_highest_such_percentile():
    lat = [float(v) for v in range(1, 101)]
    value, note = run.tail(lat)
    assert value == 90.0 and note.startswith("p90 of 100 ops")


@pytest.mark.parametrize("n", [1, 5, 19, 20])
def test_tail_falls_back_to_p50_with_a_note(n):
    lat = [float(v) for v in range(n)]
    value, note = run.tail(lat)
    assert value == statistics.median(lat)
    assert "p50 fallback" in note and f"{n} ops" in note


# -- spans ----------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", clock)
    tracer = spans.Tracer()

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf_t()
        leaf_t()
        clock.now += 3.0

    def outer():
        clock.now += 0.5
        middle_t()

    leaf_t = tracer.wrap("leaf", leaf)
    middle_t = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    assert tracer.calls == {"leaf": 2, "middle": 1, "outer": 1}
    assert tracer.incl == {"leaf": 4.0, "middle": 8.0, "outer": 8.5}
    assert tracer.self_s == {"leaf": 4.0, "middle": 4.0, "outer": 0.5}
    assert sum(tracer.self_s.values()) == tracer.incl["outer"]


def test_recursive_span_counts_inclusive_time_once(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", clock)
    tracer = spans.Tracer()

    def rec(depth):
        clock.now += 1.0
        if depth:
            rec_t(depth - 1)

    rec_t = tracer.wrap("rec", rec)
    rec_t(2)
    assert tracer.calls["rec"] == 3
    assert tracer.incl["rec"] == 3.0
    assert tracer.self_s["rec"] == 3.0


def _bindings():
    """Every attribute of every cpdist module, plus SdpProblem.__init__."""
    seen = {(m.__name__, name): value
            for m in spans._cpdist_modules() for name, value in vars(m).items()}
    seen[("SdpProblem", "__init__")] = \
        cpdist.sdp.SdpProblem.__dict__["__init__"]
    return seen


def test_uninstall_restores_every_patched_attribute():
    before = _bindings()
    original_solve = cpdist.metrics.solve
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cpdist.metrics.solve is not original_solve
        assert cpdist.metrics.minimal_dilation is cpdist.dilations.minimal_dilation
        assert cpdist.sdp.SdpProblem.__dict__["__init__"] is not \
            before[("SdpProblem", "__init__")]
        changed = [k for k, v in _bindings().items() if before.get(k) is not v]
        assert len(changed) > len(spans.FUNCTIONS)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_output_equals_untraced(name, tmp_path):
    wl = WORKLOADS[name](cpdist, str(tmp_path))
    payload = wl.warmup()
    plain = wl.render(wl.op(payload))
    tracer = spans.Tracer()
    tracer.install()
    try:
        output = wl.op(payload)
    finally:
        tracer.uninstall()
    assert wl.check(payload, output) is None
    assert wl.render(output) == plain

    report = tracer.report(1, 1.0, 0.0)
    assert list(report) == list(spans.per_layer_metrics())
    assert report["sdp.solve.calls"] >= 1
    assert report["sdp.solve.iterations"] >= report["sdp.solve.calls"]
    assert report["sdp.solve.schur_flops"] > 0


def test_family_split_matches_the_workload():
    assert spans.FAMILIES == WORKLOADS["verify-qubit"].families


def test_self_times_cover_the_op(tmp_path):
    wl = WORKLOADS["verify-qubit"](cpdist, str(tmp_path))
    tracer = spans.Tracer()
    lat, failures, first = worker.run_ops(wl, [("w", wl.warmup())], tracer)
    assert failures == [] and first is not None
    report = tracer.report(1, lat[0], 0.0)
    assert report["cli.main.calls"] == 1
    assert report["verify.run_instance.calls"] == len(wl.families)
    assert 0.95 <= report["trace.self_sum_frac"] <= 1.0


# -- the draw of a run ----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_runs_are_seeded_stratified_and_distinct(name, tmp_path):
    wl = WORKLOADS[name](cpdist, str(tmp_path))
    order = wl.pool["order"][1:]
    count = 13
    labels = [label for label, _ in wl.instances(7, count)]
    assert labels == [label for label, _ in wl.instances(7, count)]
    assert labels != [label for label, _ in wl.instances(8, count)]
    assert len(set(labels)) == count
    picked = {int(label[len(wl.prefix):]) for label in labels}
    edges = np.round(np.linspace(0, len(order), count + 1)).astype(int)
    bins = [set(order[a:b]) for a, b in zip(edges, edges[1:])]
    assert all(len(picked & b) == 1 for b in bins)
    # symmetric bins: the middle one of an odd count is centred on the pool
    mid = sorted(order.index(i) for i in bins[count // 2])
    assert mid[0] + mid[-1] == len(order) - 1
    warm = wl.pool["order"][0]
    assert warm not in picked


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_length_is_odd_with_a_tail_above_the_median(name, tmp_path):
    wl = WORKLOADS[name](cpdist, str(tmp_path))
    assert wl.run_length(1) == workloads.MIN_OPS
    assert wl.run_length(99 * wl.op_cost_s) == 99
    assert wl.run_length(100 * wl.op_cost_s) == 101
    _, note = run.tail([float(v) for v in range(wl.run_length(1))])
    assert note.startswith("p65 of 29 ops")


# -- BENCHMARK.json ---------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        spans.per_layer_metrics()
    assert [m["name"] for m in bench["per_layer"]] == \
        list(spans.per_layer_metrics())


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "cpbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "cpbench/run.py", "--workload", "dist-qubit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
