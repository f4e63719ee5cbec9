"""How a CLI process ends. ``python -m privkit.cli`` and the installed
``privkit`` script end through ``cli._exit`` instead of finalizing the
interpreter; every case here runs the same argv through a normally
finalizing interpreter, the oracle, and expects the same stdout bytes,
stderr bytes and exit code, or the same exit code and stderr where stdout
cannot be written."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import privkit

SRC = str(Path(privkit.__file__).resolve().parent.parent)
PAPER_PARAMS = '{"k":12,"h":2,"f":0.5,"p":0.5,"q":0.75}'
# how each kind of process starts the CLI; "script" is what the installed
# privkit script runs
STARTS = {
    "module": ["-m", "privkit.cli"],
    "script": ["-c", "import sys; from privkit.cli import run; sys.exit(run())"],
    "oracle": ["-c", "import sys; from privkit.cli import main; sys.exit(main())"],
}

SUCCESS = ["rappor", "epsilon", "--params", PAPER_PARAMS]
# each call with the exit code it must end with
CALLS = {
    "success": (SUCCESS, 0),
    "usage-error": (["rappor", "epsilon"], 1),
    "data-error": (["rappor", "epsilon", "--params", '{"k":0}'], 2),
    "help": (["--help"], 0),
}

_MARKER_SITECUSTOMIZE = """\
import atexit


def _mark():
    with open({marker!r}, "a") as fh:
        fh.write("x")


atexit.register(_mark)
"""


def environment(buffered=True, pythonpath=SRC):
    """The child's environment. Buffered, stdout is written when the process
    ends; unbuffered, as each line is printed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": pythonpath, **({} if buffered else {"PYTHONUNBUFFERED": "1"})}


def command(start):
    return [sys.executable, *STARTS[start]]


def spawn(start, argv, cwd, env, **streams):
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([*command(start), *argv], cwd=cwd, env=env, timeout=60, **streams)


BUFFERING = pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
START = pytest.mark.parametrize("start", ["module", "script"])


@START
@BUFFERING
@pytest.mark.parametrize("argv,code", CALLS.values(), ids=CALLS.keys())
def test_cli_process_ends_as_a_finalizing_interpreter_would(tmp_path, argv, code, buffered,
                                                            start):
    env = environment(buffered)
    ran, expected = (spawn(s, argv, tmp_path, env) for s in (start, "oracle"))
    assert (ran.returncode, ran.stdout, ran.stderr) == (
        expected.returncode, expected.stdout, expected.stderr)
    assert ran.returncode == code


@START
def test_exit_handlers_run_exactly_once(tmp_path, start):
    site, marker = tmp_path / "site", tmp_path / "marker"
    site.mkdir()
    (site / "sitecustomize.py").write_text(_MARKER_SITECUSTOMIZE.format(marker=str(marker)))
    env = environment(pythonpath=os.pathsep.join([str(site), SRC]))
    ran = spawn(start, SUCCESS, tmp_path, env)
    assert (ran.returncode, ran.stderr) == (0, b"")
    assert marker.read_text() == "x"


def _closed_stdout(start, cwd, env):
    # the shell closes fd 1 before the interpreter starts
    return subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *command(start), *SUCCESS],
                          cwd=cwd, env=env, stderr=subprocess.PIPE, timeout=60)


def _reader_closed(start, cwd, env):
    read, write = os.pipe()
    os.close(read)
    try:
        return spawn(start, SUCCESS, cwd, env, stdout=write)
    finally:
        os.close(write)


def _dev_full(start, cwd, env):
    with open("/dev/full", "wb") as full:
        return spawn(start, SUCCESS, cwd, env, stdout=full)


@pytest.mark.parametrize("run", [
    pytest.param(_closed_stdout, id="closed-fd"),
    pytest.param(_reader_closed, id="reader-closed"),
    pytest.param(_dev_full, id="dev-full", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="needs /dev/full")),
])
@START
@BUFFERING
def test_unwritable_stdout_ends_as_a_finalizing_interpreter_would(tmp_path, run, buffered,
                                                                  start):
    env = environment(buffered)
    ran, expected = run(start, tmp_path, env), run("oracle", tmp_path, env)
    assert (ran.returncode, ran.stderr) == (expected.returncode, expected.stderr)
    # a write that fails in main() is a data error; a flush that fails at
    # the end is reported by the interpreter, which then exits with 120
    assert ran.returncode == (0 if run is _closed_stdout else 120 if buffered else 2)
