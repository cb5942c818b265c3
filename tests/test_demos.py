"""Smoke test: every demo script runs to completion."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    # absolute, because demo 07 runs the CLI from a temporary directory
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cli_demo_runs_with_a_relative_pythonpath():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "demos/07_cli_session.py"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cli_demo_names_a_command_with_an_unexpected_exit_code(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "cli_session", ROOT / "demos" / "07_cli_session.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    with pytest.raises(SystemExit, match="cpdist dist exited with 2, expected 0"):
        demo.run(["dist", "a.json", "missing.json"], str(tmp_path))
