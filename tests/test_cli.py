import subprocess
import sys

import numpy as np
import pytest

from cpdist.cli import EXIT_PASS, EXIT_USAGE, EXIT_VIOLATION, main
from cpdist.maps import channel_to_dict, random_channel
from cpdist.serialize import loads, read_json, write_json


def write_channel(path, d, n, m, seed):
    write_json(path, channel_to_dict(random_channel(d, n, m, seed=seed)))
    return str(path)


def test_gen_single_file(tmp_path, capsys):
    out = tmp_path / "chan.json"
    code = main(["gen", "--d", "2", "--m", "2", "--seed", "5",
                 "--out", str(out)])
    assert code == EXIT_PASS
    assert capsys.readouterr().out.strip() == str(out)
    doc = read_json(out)
    assert doc["d_in"] == 2 and doc["d_out"] == 2
    assert len(doc["kraus"]) == 2


def test_gen_batch_directory_and_determinism(tmp_path, capsys):
    out = tmp_path / "batch"
    code = main(["gen", "--d", "2", "--n", "3", "--m", "2", "--seed", "10",
                 "--count", "3", "--out", str(out)])
    assert code == EXIT_PASS
    paths = capsys.readouterr().out.split()
    assert [p.rsplit("/", 1)[-1] for p in paths] == [
        "channel-10.json", "channel-11.json", "channel-12.json"]
    first = [(out / f"channel-{s}.json").read_bytes() for s in (10, 11, 12)]
    # regenerating with the same seeds is byte-identical
    assert main(["gen", "--d", "2", "--n", "3", "--m", "2", "--seed", "10",
                 "--count", "3", "--out", str(out)]) == EXIT_PASS
    capsys.readouterr()
    second = [(out / f"channel-{s}.json").read_bytes() for s in (10, 11, 12)]
    assert first == second


def test_gen_rejects_impossible_dimensions(tmp_path, capsys):
    code = main(["gen", "--d", "2", "--n", "5", "--m", "2",
                 "--out", str(tmp_path / "x.json")])
    assert code == EXIT_USAGE
    assert "d*m" in capsys.readouterr().err


def test_dist_report_and_exit_codes(tmp_path, capsys):
    a = write_channel(tmp_path / "a.json", 2, 2, 2, seed=20)
    b = write_channel(tmp_path / "b.json", 2, 2, 2, seed=21)
    code = main(["dist", a, b, "--seed", "3"])
    assert code == EXIT_PASS
    report = loads(capsys.readouterr().out)
    for key in ("beta", "beta_ext", "cb_diff", "lower", "upper",
                "witness_gap", "slacks", "seed", "dims"):
        assert key in report
    assert report["seed"] == 3
    assert report["lower"] <= report["beta"] + 1e-5
    assert report["beta"] <= report["upper"] + 1e-5
    assert abs(report["beta_ext"] - report["beta"]) < 1e-4


def test_dist_self_distance(tmp_path, capsys):
    a = write_channel(tmp_path / "a.json", 2, 2, 2, seed=22)
    code = main(["dist", a, a])
    assert code == EXIT_PASS
    report = loads(capsys.readouterr().out)
    assert report["beta"] < 1e-6
    assert report["cb_diff"] == 0.0


def test_dist_writes_file_deterministically(tmp_path, capsys):
    a = write_channel(tmp_path / "a.json", 2, 2, 2, seed=23)
    b = write_channel(tmp_path / "b.json", 2, 2, 2, seed=24)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["dist", a, b, "--out", str(out1)]) == EXIT_PASS
    assert main(["dist", a, b, "--out", str(out2)]) == EXIT_PASS
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_dist_usage_errors(tmp_path, capsys):
    a = write_channel(tmp_path / "a.json", 2, 2, 2, seed=25)
    c = write_channel(tmp_path / "c.json", 3, 3, 2, seed=26)
    assert main(["dist", a, str(tmp_path / "missing.json")]) == EXIT_USAGE
    assert main(["dist", a, c]) == EXIT_USAGE
    assert "dimension mismatch" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    assert main(["dist", a, str(bad)]) == EXIT_USAGE


def test_dist_impossible_tolerance_reports_violation(tmp_path, capsys):
    a = write_channel(tmp_path / "a.json", 2, 2, 2, seed=27)
    b = write_channel(tmp_path / "b.json", 2, 2, 2, seed=28)
    code = main(["--tol.witness=1e-15", "dist", a, b])
    err = capsys.readouterr().err
    assert code == EXIT_VIOLATION
    assert "outside the supported range" in err    # warned, still applied
    assert "witness_gap" in err                    # offending slacks named
    assert "cb_bracket" in err                     # (shares the witness gate)
    assert "offending slacks: {}" not in err


def test_tolerance_flag_validation(capsys):
    assert main(["--tol.witness", "verify"]) == EXIT_USAGE
    assert main(["--tol.witness=abc", "verify"]) == EXIT_USAGE
    assert main(["--tol.nope=1e-6", "verify"]) == EXIT_USAGE
    assert main(["--tol.witness=1e-6", "gen", "--m", "1"]) == EXIT_USAGE
    capsys.readouterr()


def test_verify_all_families(tmp_path, capsys):
    out = tmp_path / "summary.json"
    code = main(["verify", "--d", "2", "--seed", "30", "--count", "2",
                 "--out", str(out)])
    assert code == EXIT_PASS
    summary = read_json(out)
    assert summary["failed"] == 0
    assert summary["passed"] == 2 * 6
    assert set(summary["families"]) == {
        "continuity", "triangle", "monotonicity",
        "consistency", "mixture", "reflection",
    }
    for rec in summary["families"].values():
        assert rec["failed"] == 0
        assert "failures" not in rec


def test_verify_family_filter_and_violation(capsys):
    code = main(["verify", "--family", "mixture", "--seed", "1",
                 "--count", "2"])
    assert code == EXIT_PASS
    summary = loads(capsys.readouterr().out)
    assert list(summary["families"]) == ["mixture"]

    code = main(["--tol.witness=1e-15", "verify", "--family", "continuity",
                 "--seed", "1", "--count", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_VIOLATION
    summary = loads(captured.out)
    failures = summary["families"]["continuity"]["failures"]
    assert len(failures) == 1
    assert failures[0]["seed"] == 1
    assert failures[0]["margins"]["witness"] < 0.0


def test_verify_usage_errors(capsys):
    assert main(["verify", "--count", "0"]) == EXIT_USAGE
    assert main(["verify", "--d", "2", "--n", "5", "--m", "2"]) == EXIT_USAGE
    assert main(["verify", "--d", "2", "--n", "1", "--m", "3"]) == EXIT_USAGE
    # monotonicity also draws maps M_n -> M_n and M_d -> M_d of rank m
    assert main(["verify", "--d", "3", "--n", "1", "--m", "2"]) == EXIT_USAGE
    assert main(["verify", "--d", "1", "--n", "2", "--m", "2"]) == EXIT_USAGE
    assert main(["verify", "--d", "3", "--n", "1", "--m", "2",
                 "--family", "continuity"]) == EXIT_PASS
    with pytest.raises(SystemExit) as exc:    # argparse rejects the choice
        main(["verify", "--family", "nope"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


def test_verify_cli_batch_matches_library(tmp_path, capsys):
    from cpdist.verify import run_batch

    code = main(["verify", "--family", "reflection", "--seed", "55",
                 "--count", "2"])
    assert code == EXIT_PASS
    summary = loads(capsys.readouterr().out)
    lib = run_batch(["reflection"], d=2, n=2, m=None, seed=55, count=2)
    assert summary["families"]["reflection"]["worst_slack"] == pytest.approx(
        lib["families"]["reflection"]["worst_slack"], abs=0.0)


def test_console_entry_point(tmp_path):
    out = tmp_path / "c.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cpdist.cli", "gen", "--d", "2", "--m", "1",
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_PASS
    assert out.exists()


def test_argparse_usage_exit_code():
    # argparse exits with its own code for unknown subcommands; the contract
    # only promises a nonzero status, mapped through SystemExit
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0


@pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError])
def test_verify_instance_error_is_a_violation(monkeypatch, capsys, error):
    import cpdist.verify as verify

    def broken(d, n, m, seed, tols):
        raise error("broken instance")

    monkeypatch.setitem(verify.FAMILIES, "mixture", broken)
    code = main(["verify", "--family", "mixture", "--family", "reflection",
                 "--seed", "4", "--count", "1"])
    assert code == EXIT_VIOLATION
    summary = loads(capsys.readouterr().out)
    assert summary["failed"] == 1 and summary["passed"] == 1
    failure, = summary["families"]["mixture"]["failures"]
    assert failure["error"] == f"{error.__name__}: broken instance"
