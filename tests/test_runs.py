"""One table of command-line runs, ``RUNS``, and the one runner that checks
each row.

A row names one or more argv, each written as one space-separated string,
and what they must give: the sha256 of every (argv, exit status, stdout,
stderr), or a named check with its values.  A row with a seconds bound, and
perhaps a MiB bound, runs each argv in a fresh ``python -m gesselwalks.cli``
child, one at a time, with stdout in a file that its check reads as a
stream; a small launcher reads the child's wall time and peak RSS from
``os.wait4``, and kills and reaps a child still running at its seconds bound.  A row
without a bound runs in process through ``cli.main``.  One row runs alone
with ``pytest tests/test_runs.py -k table-300``.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

import pytest

from gesselwalks import cli, conjectures, pipelines
from test_entry import ENV

# want: a sha256 hex digest, or (check, *values) for check(runs, *values)
Row = namedtuple("Row", "name argvs want seconds mib", defaults=(None, None))
# out: stdout as a text stream, read once
Run = namedtuple("Run", "argv code out err")

# Spawns one ``python -m gesselwalks.cli`` child and prints its pid, exit
# status, wall seconds and peak RSS in KiB; past the seconds bound it kills
# and reaps the child.  Linux counts the spawning process's peak in the
# child's ru_maxrss, so a child spawned by this small interpreter reads its
# own peak, and one spawned by the test process would read the test's.
LAUNCHER = """
import os, signal, sys, time

seconds, out, err, *argv = sys.argv[1:]
start = time.perf_counter()
files = [(os.POSIX_SPAWN_OPEN, fd, path, os.O_WRONLY | os.O_CREAT, 0o600)
         for fd, path in ((1, out), (2, err))]
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "gesselwalks.cli", *argv],
                     os.environ, file_actions=files)
while not (reaped := os.wait4(pid, os.WNOHANG))[0] and time.perf_counter() - start < float(seconds):
    time.sleep(0.002)
wall = time.perf_counter() - start
if not reaped[0]:
    os.kill(pid, signal.SIGKILL)
    reaped = os.wait4(pid, 0)
print(pid, os.waitstatus_to_exitcode(reaped[1]), wall, reaped[2].ru_maxrss)
"""


def child_run(row, argv, out, err):
    """The exit status of one argv run in a fresh child, held to the row's
    bounds, with stdout and stderr left in the files out and err."""
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, str(row.seconds), out, err, *argv],
                          env=ENV, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          check=True)
    pid, code, wall, peak = proc.stdout.split()
    line = " ".join(argv)
    assert float(wall) < row.seconds, (
        f"{line} ran past its {row.seconds} s bound and was killed (pid {pid})")
    if row.mib is not None:
        peak = int(peak) / 1024  # KiB on Linux
        assert peak < row.mib, f"{line} peaked at {peak:.1f} MiB, not under {row.mib}"
    return int(code)


def in_process_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out.seek(0)
    return Run(argv, code, out, err.getvalue())


def digest(runs):
    """sha256 of every run's (argv, exit status, stdout, stderr), one JSON
    line each."""
    hashed = hashlib.sha256()
    for run in runs:
        hashed.update(json.dumps([run.argv, run.code, run.out.read(), run.err]).encode() + b"\n")
    return hashed.hexdigest()


def check(row):
    """Run every argv of the row and hold the runs to its digest or named
    check and to its bounds; a failure names the row."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as files:
        try:
            runs = []
            for i, line in enumerate(row.argvs):
                argv = line.split()
                if row.seconds is None:
                    runs.append(in_process_run(argv))
                    continue
                out, err = f"{tmp}/{i}.out", f"{tmp}/{i}.err"
                code = child_run(row, argv, out, err)
                runs.append(Run(argv, code, files.enter_context(open(out, newline="")),
                                Path(err).read_text()))
            if isinstance(row.want, str):
                got = digest(runs)
                assert got == row.want, f"digest {got}, pinned {row.want}"
            else:
                named, *values = row.want
                named(runs, *values)
        except AssertionError as exc:
            raise AssertionError(f"row {row.name}: {exc}") from None


# ------------------------------------------------------------ named checks

def ok_output(run):
    """The run's stdout, once the run has exited 0 with nothing on stderr."""
    assert (run.code, run.err) == (0, ""), f"{' '.join(run.argv)}: exit {run.code}, {run.err!r}"
    return run.out


def closed_count(m, n1=0, n2=0):
    return str(pipelines.count(m, n1, n2, "closed"))


def closed(runs):
    """Each count is the closed form's: the first token of the text, or the
    json's F."""
    for run in runs:
        args = cli.read_args(run.argv)
        text = ok_output(run).read()
        got = json.loads(text)["F"] if args.format == "json" else text.split()[0]
        assert got == closed_count(args.m, args.n1, args.n2)


def verify_report(run):
    """The run's verify report, once it shows a pass that compared something."""
    report = json.load(ok_output(run))
    assert report["nonzero"] > 0 and report["first_mismatch"] is None, report
    return report


def report_ok(runs):
    for run in runs:
        verify_report(run)


def last_det(runs, n):
    """cross_pipeline passes, and its last origin row is n, whose det is the
    closed form of F(2n; 0, 0)."""
    (run,) = runs
    row = verify_report(run)["gessel_indices"][-1]
    assert (row["n"], row["det"]) == (n, closed_count(2 * n))


def catalan_tail(runs, length, index):
    """The universal row has length values, the last Catalan(index)."""
    (run,) = runs
    values = ok_output(run).read().split(", ")
    assert (len(values), int(values[-1])) == (length, math.comb(2 * index, index) // (index + 1))


def window_agreement(runs, size):
    """The csv dump's rows are the json dump's entries, size of them."""
    csv_run, json_run = runs
    window = json.load(ok_output(json_run))
    assert window["size"] == len(window["entries"]) == size
    entries = iter(window["entries"])
    for line in ok_output(csv_run):
        assert line.rstrip("\r\n").split(",") == next(entries, None)
    assert next(entries, None) is None


def table_rows(runs, m_max):
    """The csv table has one row per reachable cell up to m_max, and its
    F(m_max; 0, 0) is the closed form's."""
    (run,) = runs
    lines = ok_output(run)
    assert next(lines) == "m,n1,n2,F\r\n"
    rows, origin, got = 0, f"{m_max},0,0,", None
    for line in lines:
        rows += 1
        if line.startswith(origin):
            got = line[len(origin):].rstrip("\r\n")
    # the support: m = n1 (mod 2), 0 <= n1 <= m, 2*n2 <= n1 + m
    want = sum((n1 + m) // 2 + 1 for m in range(m_max + 1) for n1 in range(m % 2, m + 1, 2))
    assert (rows, got) == (want, closed_count(m_max))


def gives(runs, code, out, err):
    """Each run exits with code and prints exactly out and err."""
    for run in runs:
        assert (run.code, run.out.read(), run.err) == (code, out, err)


# --------------------------------------------------------------- the table

SERIES_CAPS = [
    *(f"{c},{c},{c}" for c in range(41)),
    "9,3,5", "12,20,6", "20,6,12", "5,5,30", "3,9,2", "14,2,2", "2,14,14", "1,2,2",
    "30,2,3", "14,1,1", "0,6,6", "6,0,6", "6,6,0", "0,0,0", "17,11,1", "1,17,11",
]
FORMATS = ("text", "json", "csv")
REFUSED = "error: --caps {} leave the {} check nothing to compare (window {})\n"

RUNS = [
    Row("count-1000", ["count --m 1000"], (closed,), 30),
    Row("count-600-n2-1", ["count --m 600 --n2 1"], (closed,), 30),
    Row("count-400-json", ["count --m 400 --format json"], (closed,)),
    Row("families", ["verify --suite families"], (report_ok,), 30),
    Row("universal-150", ["universal --i 150"], (catalan_tail, 300, 149), 30, 40),
    Row("window-16", [f"hessenberg --n 16 --dump --format {fmt}" for fmt in ("csv", "json")],
        (window_agreement, 2240), 30, 20),
    Row("multisum-span-400", ["count --m 10 --method multisum --max-span 400"],
        (gives, 0, "8004  method=multisum\n", ""), 60),
    Row("solve-80", ["count --m 80 --method solve"], (closed,), 60),
    Row("det-80", ["count --m 80 --method det"], (closed,), 30),
    Row("cross-pipeline-8000", ["verify --suite cross_pipeline --k-max 8000"], (last_det, 30), 20),
    # refused before G is built
    Row("kernel-refused-600", ["verify --suite kernel --caps 600,1,1"],
        (gives, 2, "", REFUSED.format("600,1,1", "kernel", "599,-1,-1")), 3),
    Row("root-refused-600", ["verify --suite root --caps 600,0,0"],
        (gives, 2, "", REFUSED.format("600,0,0", "root", "0,0,0")), 3),
    *(Row(f"{suite}-80", [f"verify --suite {suite} --caps 80,80,80"], (report_ok,), 5)
      for suite in ("kernel", "hkernel", "root")),
    *(Row(f"{suite}-200", [f"verify --suite {suite} --caps 200,200,200"], (report_ok,), 60, 40)
      for suite in ("kernel", "hkernel")),
    Row("root-200", ["verify --suite root --caps 200,200,200"], (report_ok,), 20),
    Row("table-160", ["table --m-max 160 --format csv"], (table_rows, 160), 60),
    Row("table-300", ["table --m-max 300 --format csv"], (table_rows, 300), 120, 50),
    # each series suite over SERIES_CAPS
    Row("series-kernel", [f"verify --suite kernel --caps {caps}" for caps in SERIES_CAPS],
        "eb1dd315db89b64309d7c116fe0aceea416ea5c58bdc28bef5ac5cdf018758f1"),
    Row("series-hkernel", [f"verify --suite hkernel --caps {caps}" for caps in SERIES_CAPS],
        "9e1aa69df55ae3411dbcf3d327f39ec5a9cdb53612350303a73c04edfdec49e9"),
    Row("series-root", [f"verify --suite root --caps {caps}" for caps in SERIES_CAPS],
        "bf78d604313a5904484ad7f7bc385cdbb2eef03637bbda629c8b938e5ddb6c2e"),
    # the dump at n = 0..12 in one format
    Row("dump-text", [f"hessenberg --n {n} --dump --format text" for n in range(13)],
        "3cd62ebe95478f3e55bed5b2b73bd41ce1c611bf9c8281087c8a0338a3793f20"),
    Row("dump-json", [f"hessenberg --n {n} --dump --format json" for n in range(13)],
        "d6e8f2a70be1cdaecf5d7c8e64c8639afac513ee83fc15b8b2f6c6536dbdc29c"),
    Row("dump-csv", [f"hessenberg --n {n} --dump --format csv" for n in range(13)],
        "c5ac4613460581fb5410e7dbd8f1f2661f8f444beb1958f46081c72188202346"),
    # the commands that read axis cells through walks.count_walks
    Row("axis-universal",
        [f"universal --i {i} --format {fmt}" for i in range(1, 61) for fmt in FORMATS],
        "27a10de93d75f8e5891ca79ee1d712c765bc0096a42410d753b3de2d5a05ba7c"),
    Row("axis-cross_pipeline", [f"verify --suite cross_pipeline --k-max {k}" for k in (200, 1200)],
        "600095b388059edecf7af6107cb52b68c86820c7a7c41f4e1a3f062ad648d9f8"),
    Row("axis-families", ["verify --suite families"],
        "d6112353c2c68f77873ba490fe7f21d2e055671382eac0dbc75a0a9a84f1591b"),
    Row("axis-fit", [f"fit --family {family.value} --k {k} --format {fmt}"
                     for family, k in conjectures.FAMILY_PLAN for fmt in FORMATS],
        "2ab5c287becf7c133366af3cccd93f48253f11bc2fd424d5c57382b815a1d661"),
]


@pytest.mark.parametrize("row", RUNS, ids=lambda row: row.name)
def test_run(row):
    check(row)


# -------------------------------------------------------- negative controls

COUNT_4 = (0, "11  method=dp\n", "")


def test_a_child_past_its_seconds_bound_fails_and_is_reaped():
    with pytest.raises(AssertionError, match="^row overrun: .* 0.001 s bound") as failure:
        check(Row("overrun", ["count --m 4"], (gives, *COUNT_4), 0.001))
    pid = int(re.search(r"pid (\d+)", str(failure.value))[1])
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_a_child_past_its_mib_bound_fails():
    # 1 MiB is below the interpreter's own start-up peak
    with pytest.raises(AssertionError, match="^row over-1-mib: .* MiB, not under 1\n"):
        check(Row("over-1-mib", ["count --m 4"], (gives, *COUNT_4), 30, 1))


def test_a_wrong_digest_fails():
    with pytest.raises(AssertionError, match="^row wrong-digest: digest "):
        check(Row("wrong-digest", ["count --m 4"], "0" * 64))


@pytest.mark.parametrize("argv, named, right, wrong", [
    ("count --m 4", gives, COUNT_4, (0, "12  method=dp\n", "")),
    ("universal --i 3", catalan_tail, (6, 2), (6, 3)),
    ("verify --suite cross_pipeline --k-max 200", last_det, (4,), (5,)),
    ("table --m-max 6 --format csv", table_rows, (6,), (7,)),
])
def test_a_named_check_given_a_wrong_value_fails(argv, named, right, wrong):
    check(Row("right", [argv], (named, *right)))
    with pytest.raises(AssertionError, match="^row wrong: "):
        check(Row("wrong", [argv], (named, *wrong)))
