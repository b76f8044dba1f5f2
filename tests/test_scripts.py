"""Smoke tests for the scripts under ``scripts/``, run in-process, and one
run as a child process whose reader goes away."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from gradevote.cli import main as cli_main
from gradevote.fixtures import FIXTURES, load_fixture

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script_main(name):
    return runpy.run_path(str(SCRIPTS / name))["main"]


def test_property_sweeps_script_runs_clean(capsys):
    assert _script_main("run_property_sweeps.py")(["--instances", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(
        "consistency: 20 random instances, 1094 partitions, "
        "268 matched the premise: ok"
    )
    assert any(
        line.startswith("method agreement: 5022 elections: ok") for line in lines
    )
    assert lines[-1] == "all sweeps clean"


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_property_sweeps_script_exits_quietly_on_a_closed_pipe(unbuffered):
    src = str(SCRIPTS.parent / "src")
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.Popen(
        [sys.executable, str(SCRIPTS / "run_property_sweeps.py"), "--instances", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    child.stdout.close()  # the reader is gone before the first line
    err = child.stderr.read()
    assert (child.wait(timeout=60), err) == (1, "")


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_render_fixtures_script_prints_what_demo_prints(capsys, fmt):
    expected = []
    for name in FIXTURES:
        assert cli_main(["demo", name, "--format", fmt]) == 0
        demo = capsys.readouterr().out
        expected.append(f"== {name}: {load_fixture(name).notes}\n{demo}\n")
    assert _script_main("render_fixtures.py")(["--format", fmt]) == 0
    assert capsys.readouterr().out == "".join(expected)
