import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "frontier.py"
_SPEC = importlib.util.spec_from_file_location("frontier", _PATH)
frontier = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(frontier)


@pytest.mark.parametrize("distance, rank", frontier.ROWS)
def test_each_row_runs_in_a_child_at_d_2(distance, rank):
    result = frontier.run(distance, rank, 2)
    end = "upper" if distance == "cb_norm" else "witness"
    assert set(result) == {"distance", "d", "seconds", "iterations",
                           "peak_rss_mb", "kraus_rank", "value", end}
    assert (result["distance"], result["d"]) == (distance, 2)
    assert result["kraus_rank"] == (4 if rank == "full" else 2)
    assert 0.0 <= result["seconds"] < frontier.SECONDS
    assert result["iterations"] > 0
    assert 0.0 < result["peak_rss_mb"] < frontier.RSS_MB
    assert result["value"] <= result[end]


def test_a_size_reports_the_median_time_and_the_largest_rss(monkeypatch):
    runs = iter([{"d": 4, "seconds": 9.0, "peak_rss_mb": 100.0},
                 {"d": 4, "seconds": 30.0, "peak_rss_mb": 120.0},
                 {"d": 4, "seconds": 3.0, "peak_rss_mb": 110.0}])
    monkeypatch.setattr(frontier, "run", lambda distance, rank, d: next(runs))
    assert frontier.median_run("cb_norm", "2", 4) == {
        "d": 4, "seconds": 9.0, "runs_s": [9.0, 30.0, 3.0],
        "peak_rss_mb": 120.0}

    # a failed run stops the size at once
    runs = iter([{"d": 4, "seconds": 1.0, "peak_rss_mb": 100.0},
                 {"d": 4, "failed": "over 1024 MB resident"}])
    assert frontier.median_run("cb_norm", "2", 4) == {
        "d": 4, "failed": "over 1024 MB resident"}
    assert next(runs, None) is None
