"""Smoke tests for the property-sweeps script under ``scripts/``, run
in-process, and for that script and the CLI run as child processes whose
reader goes away, whose standard output is full, or that start without a
usable standard error."""

import json

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("argv, message", [
    (["--instances", "-5"], "--instances must be at least 1, got -5"),
    (["--max-voters", "1"], "--max-voters must be at least 2, got 1"),
    (["--exhaustive-voters", "0"], "--exhaustive-voters must be at least 1, got 0"),
])
def test_property_sweeps_script_refuses_a_sweep_of_nothing(capsys, argv, message):
    # before, these ended in a ValueError traceback (--max-voters 1) or
    # reported a sweep of nothing as clean
    with pytest.raises(SystemExit) as exit_info:
        _script_main("run_property_sweeps.py")(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].endswith(f"error: {message}")


def _child_env(**extra):
    src = str(SCRIPTS.parent / "src")
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _with_closed_stdout(args, unbuffered):
    """Exit status and standard error of a child whose stdout reader is gone
    before the first line."""
    env = _child_env(PYTHONUNBUFFERED=unbuffered)
    child = subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    child.stdout.close()
    with child.stderr:
        err = child.stderr.read()
    return child.wait(timeout=60), err


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_property_sweeps_script_exits_quietly_on_a_closed_pipe(unbuffered):
    args = [str(SCRIPTS / "run_property_sweeps.py"), "--instances", "20"]
    assert _with_closed_stdout(args, unbuffered) == (1, "")


#: each script on a full standard output, with arguments that keep it short
FULL_STDOUT_SCRIPTS = {
    "run_property_sweeps": ["run_property_sweeps.py", "--instances", "5",
                            "--exhaustive-voters", "2"],
}


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("script", list(FULL_STDOUT_SCRIPTS))
def test_scripts_report_a_stdout_they_cannot_write(tmp_path, script, unbuffered):
    # before, an OSError traceback out of print or the final flush
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    name, *args = FULL_STDOUT_SCRIPTS[script]
    child = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], cwd=tmp_path,
        env=_child_env(PYTHONUNBUFFERED=unbuffered), stderr=subprocess.PIPE, text=True,
        timeout=60, preexec_fn=lambda: os.dup2(os.open("/dev/full", os.O_WRONLY), 1),
    )
    assert (child.returncode, child.stderr) == (
        1, "error: cannot write standard output: No space left on device\n")


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_cli_exits_quietly_on_a_closed_pipe(unbuffered):
    # unbuffered, the first write fails; buffered, the flush at the end does
    args = ["-m", "gradevote.cli", "demo", "smalltown"]
    assert _with_closed_stdout(args, unbuffered) == (1, "")


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_cli_demo_exits_quietly_on_a_closed_pipe(unbuffered):
    # the bracket fixture in JSON, read back from its own wire texts
    args = ["-m", "gradevote.cli", "demo", "bracket-bias", "--format", "json"]
    assert _with_closed_stdout(args, unbuffered) == (1, "")


BAD_STDOUTS = pytest.mark.parametrize("stdout, reason", [
    ("closed", "it is closed"), ("full", "No space left on device"),
], ids=["closed", "full"])


def _cli_on_a_bad_stdout(tmp_path, stdout, unbuffered, *args):
    """Exit status and standard error of the CLI run on a closed or full fd 1."""
    if stdout == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    target = {"closed": lambda: os.close(1),
              "full": lambda: os.dup2(os.open("/dev/full", os.O_WRONLY), 1)}[stdout]
    child = subprocess.run(
        [sys.executable, "-m", "gradevote.cli", *args], cwd=tmp_path,
        env=_child_env(PYTHONUNBUFFERED=unbuffered), stderr=subprocess.PIPE, text=True,
        timeout=60, preexec_fn=target,
    )
    return child.returncode, child.stderr


@pytest.mark.parametrize("unbuffered", ["1", ""])
@BAD_STDOUTS
def test_cli_reports_a_stdout_it_cannot_write(tmp_path, stdout, reason, unbuffered):
    # before, a traceback: AttributeError on a closed fd 1, OSError on a full one
    (tmp_path / "b.csv").write_text("voter_id,candidate,grade\nv1,a,positive\n")
    assert _cli_on_a_bad_stdout(
        tmp_path, stdout, unbuffered, "tally", "--method", "mj3", "--ballots", "b.csv",
    ) == (1, f"error: cannot write standard output: {reason}\n")


@pytest.mark.parametrize("unbuffered", ["1", ""])
@BAD_STDOUTS
def test_cli_demo_reports_a_stdout_it_cannot_write(tmp_path, stdout, reason, unbuffered):
    assert _cli_on_a_bad_stdout(tmp_path, stdout, unbuffered, "demo", "school") == (
        1, f"error: cannot write standard output: {reason}\n")


def test_cli_demo_reports_an_outdir_under_a_file(tmp_path):
    # run as a child process, not through main(): no traceback escapes
    (tmp_path / "file").write_text("")
    child = subprocess.run(
        [sys.executable, "-m", "gradevote.cli", "demo", "school", "--outdir", "file/x"],
        cwd=tmp_path, env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=60,
    )
    assert (child.returncode, child.stderr) == (
        1, "error: cannot write file/x: Not a directory\n")


def _close_fd2():
    os.close(2)


def _read_only_fd2():
    # a launcher can leave fd 2 open on something that refuses writes
    os.close(2)
    os.set_inheritable(os.open(os.devnull, os.O_RDONLY), True)


@pytest.fixture(params=[_close_fd2, _read_only_fd2], ids=["closed", "read-only"])
def without_stderr(request):
    """Run the CLI in a child without a usable fd 2: its exit status and stdout."""
    def run(*args, cwd=None):
        child = subprocess.run(
            [sys.executable, "-m", "gradevote.cli", *args], cwd=cwd, env=_child_env(),
            stdout=subprocess.PIPE, text=True, timeout=60, preexec_fn=request.param,
        )
        return child.returncode, child.stdout
    return run


def test_tally_without_stderr_prints_only_its_result(tmp_path, without_stderr):
    # with fd 2 closed, sys.stderr is None and print() would write the
    # warning to stdout; with fd 2 read-only, it raised before the render
    (tmp_path / "c.json").write_text('{"method": "mj3", "candidates": [{"id": "a"}]}')
    (tmp_path / "b.csv").write_text("voter_id,candidate,grade\nv1,a,positive\nv2,zz,positive\n")
    rc, out = without_stderr("tally", "--config", "c.json", "--ballots", "b.csv",
                             "--format", "json", cwd=tmp_path)
    assert rc == 1
    assert json.loads(out)["entries"][0]["counts"] == [1, 0, 0]


def test_errors_without_stderr_keep_their_exit_code(tmp_path, without_stderr):
    missing = str(tmp_path / "missing.json")
    assert without_stderr("tally", "--config", missing, "--ballots", "b.csv") == (1, "")
    assert without_stderr("check", "--method", "mj3", "--ballots", "b.csv",
                          "--limit", "1") == (2, "")


def test_demo_without_stderr_writes_its_files(tmp_path, without_stderr):
    rc, out = without_stderr("demo", "school", "--outdir", str(tmp_path))
    assert rc == 0
    assert out.endswith("21 ballots\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "school.ballots.csv", "school.config.json"]
