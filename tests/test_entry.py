"""The console entry point, ``python -m gesselwalks.cli``, run as a child.

``console_main`` ends a plain run with ``os._exit`` after the ``atexit``
callbacks and a flush of stdout and stderr, and falls back to ``sys.exit``
under a tracer or profiler and when ``main`` raises.  These cases check that
the child's bytes and exit codes are those of ``cli.main`` in process, and
which way each run ended.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from gesselwalks import cli
from oracles import frozen_bytes

SRC = Path(__file__).resolve().parents[1] / "src"
# stdout block-buffered, as a shell gives it to a pipe, so that what is left
# in the buffer when main returns goes out by console_main's flush
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": str(SRC), "COLUMNS": "80"}

FROZEN = json.loads(Path(__file__).with_name("cli_frozen.json").read_text())
PINNED = json.loads(Path(__file__).with_name("cli_usage_frozen.json").read_text())


def run_child(args, **options):
    options.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=ENV, stderr=subprocess.PIPE,
                          timeout=120, **options)


@pytest.mark.parametrize("case", FROZEN + PINNED, ids=lambda case: " ".join(case["argv"]))
def test_entry_point_gives_the_frozen_bytes(case):
    proc = run_child(["-m", "gesselwalks.cli", *case["argv"]])
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == frozen_bytes(case)


def test_output_past_a_pipe_buffer_matches_main_in_process():
    argv = ["table", "--m-max", "60", "--format", "csv"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    want = out.getvalue().encode()
    proc = run_child(["-m", "gesselwalks.cli", *argv])
    assert proc.returncode == 0 and proc.stderr == b""
    assert len(proc.stdout) == len(want) > 1 << 16
    assert hashlib.sha256(proc.stdout).hexdigest() == hashlib.sha256(want).hexdigest()


def closed_pipe_run(args):
    """Run a child whose stdout is a pipe with no reader left."""
    read, write = os.pipe()
    os.close(read)
    try:
        return run_child(args, stdout=write)
    finally:
        os.close(write)


@pytest.mark.parametrize(
    "argv",
    [
        # the pipe breaks inside main, once the first buffer is written
        ["table", "--m-max", "60"],
        # the pipe breaks at the flush after main returns
        ["count", "--m", "4"],
    ],
)
def test_closed_stdout_exits_quietly(argv):
    proc = closed_pipe_run(["-m", "gesselwalks.cli", *argv])
    assert (proc.returncode, proc.stderr) == (cli.CLOSED_STDOUT, b"")


def test_stdout_closed_at_start_is_skipped():
    """With no descriptor 1 the interpreter sets ``sys.stdout`` to None and
    ``print`` writes nothing; the run still succeeds."""
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m gesselwalks.cli count --m 4 >&-', sys.executable],
        env=ENV, stderr=subprocess.PIPE, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")


# A child that calls console_main with an atexit callback that prints to
# stdout, left in its buffer, and an object that writes "teardown" to stderr
# only when the interpreter's teardown frees it.
CHILD = """
    import atexit, os, sys

    class Witness:
        def __init__(self):
            self.write = os.write

        def __del__(self):
            self.write(2, b"teardown\\n")

    witness = Witness()
    atexit.register(lambda: print("atexit"))
    {setup}
    sys.argv = ["gessel-walks", *{argv!r}]
    from gesselwalks.cli import console_main
    console_main()
"""
NO_TRACE = "pass"
TRACED = "sys.settrace(lambda *args: None)"
PROFILED = "sys.setprofile(lambda *args: None)"
MAGIC = ["count", "--m", "4", "--method", "magic"]
USAGE = next(case["stderr"] for case in PINNED if case["argv"] == MAGIC)


@pytest.mark.parametrize(
    "setup, argv, status, out, err",
    [
        # a plain run skips the teardown but not the atexit callbacks
        (NO_TRACE, ["count", "--m", "4"], 0, "11  method=dp\natexit\n", ""),
        (NO_TRACE, ["count", "--m", "-1"], 2, "atexit\n", "error: m, n1, n2 must be nonnegative\n"),
        (TRACED, ["count", "--m", "4"], 0, "11  method=dp\natexit\n", "teardown\n"),
        (PROFILED, ["count", "--m", "4"], 0, "11  method=dp\natexit\n", "teardown\n"),
        # argparse's SystemExit leaves main through the teardown
        (NO_TRACE, MAGIC, 2, "atexit\n", USAGE + "teardown\n"),
    ],
    ids=["plain", "usage-error", "settrace", "setprofile", "argparse-exit"],
)
def test_which_way_the_child_ends(setup, argv, status, out, err):
    proc = run_child(["-c", textwrap.dedent(CHILD.format(setup=setup, argv=argv))])
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (status, out, err)


def test_closed_stdout_under_a_tracer_exits_quietly():
    code = CHILD.format(setup=TRACED, argv=["table", "--m-max", "60"])
    proc = closed_pipe_run(["-c", textwrap.dedent(code)])
    assert (proc.returncode, proc.stderr) == (cli.CLOSED_STDOUT, b"teardown\n")


def test_cprofile_prints_its_stats_after_the_count():
    proc = run_child(["-m", "cProfile", "-m", "gesselwalks.cli", "count", "--m", "4"])
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.decode()
    assert out.startswith("11  method=dp\n")
    assert "function calls" in out.split("\n", 1)[1]
