"""End-to-end benchmark of the ``gessel-walks`` command line.

    python3 bench/run.py --workload dp-point --seed 1 --seconds 30 --trace 0

One driver process runs a workload as a closed loop with one client: it
starts one CLI invocation at a time, each in a fresh child process, streams
and hashes the child's output, and checks it against expectations computed
by ``reference.py`` before any timing starts.  The job list comes from
``workloads.py`` and the seed.  A run repeats whole passes over the list for
as long as another pass still fits in ``--seconds`` (at least one pass).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a pass whose children run under ``trace_child.py``, and
reports the per-layer metrics plus the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  A fuller
record, with the environment, goes to ``bench/out/``.

``--smoke`` shrinks every job for the benchmark's own tests, and
``--negative-control`` corrupts one expectation so the run must fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads
from reference import FIT_DEGREE, Reference, fit_value, origin_rows, rho

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

E2E_METRICS = {
    "wall_s": "s",
    "cpu_s": "s",
    "job_s.p50": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

LAYER_METRICS = {
    "walks.extend_s": "s",
    "walks.extend.calls": "count",
    "walks.layers_built": "count",
    "walks.cells_visited": "count",
    "walks.count_walks_s": "s",
    "walks.count_walks.calls": "count",
    "walks.memo_hit_ratio": "ratio",
    "walks.max_bits": "bits",
    "exact.binom_general.calls": "count",
    "exact.closed_form_s": "s",
    "triangular.solve_forward_s": "s",
    "triangular.solve_forward.rows": "count",
    "triangular.solve_forward.support": "count",
    "triangular.coefficient_c.calls": "count",
    "triangular.coefficient_c.nonzero_ratio": "ratio",
    "triangular.hessenberg_for_s": "s",
    "triangular.hessenberg_det_s": "s",
    "triangular.hessenberg.size": "count",
    "triangular.hessenberg.density": "ratio",
    "triangular.multisum_s": "s",
    "triangular.system_entry.calls": "count",
    "series.series_mul_s": "s",
    "series.series_mul.calls": "count",
    "series.series_mul.pairs": "count",
    "series.series_mul.yield": "ratio",
    "series.substitute_x_s": "s",
    "series.build_G_s": "s",
    "series.compared": "count",
    "conjectures.fit_family_s": "s",
    "conjectures.solve_linear_exact_s": "s",
    "conjectures.family_target.calls": "count",
    "conjectures.verify_recurrence_g_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.stdout_mb": "MiB",
    "proc.import_s": "s",
    "proc.driver_rss_mb": "MiB",
    "trace.overhead_s": "s",
}

# Ratios: (numerator, denominator) of the per-pass sums.
RATIOS = {
    "walks.memo_hit_ratio": ("walks.count_walks.hits", "walks.count_walks.calls"),
    "triangular.coefficient_c.nonzero_ratio":
        ("triangular.coefficient_c.nonzero", "triangular.coefficient_c.calls"),
    "triangular.hessenberg.density":
        ("triangular.hessenberg.nonzero", "triangular.hessenberg.cells"),
    "series.series_mul.yield": ("series.series_mul.terms", "series.series_mul.pairs"),
}

SETUP_PROBES = 9
# The host this benchmark was written on runs at times at half speed, for
# seconds to minutes, because of other tenants.  Each untraced job is
# therefore followed by ``yardstick.py``, fixed work independent of the
# program, and job times are scaled by YARDSTICK_REF_S / (the yardstick's
# time around that job): they read as seconds on a host that runs the
# yardstick in YARDSTICK_REF_S, about its time on that host when quiet.
# Raw figures go to the run record.
YARDSTICK_REF_S = 0.08
JOB_TIMEOUT_S = 120
HEAD_LIMIT = 1 << 20
FIT_LINE = re.compile(
    r"^(\w+)_(\d+): degree (\d+), coeffs \[(.*)\] \(ascending\), claims_ok=(True|False)\n$")


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


@dataclass
class Outcome:
    """One finished child process."""

    rc: int
    wall: float
    cpu: float
    rss_mb: float
    nbytes: int
    lines: int
    digest: str
    head: bytes
    stderr: str


def child_env() -> dict[str, str]:
    """Only what the CLI needs: no cache directory, this checkout's sources."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
    }


class Runner:
    """Starts children one at a time and keeps no more of their output than
    the checks need, so the driver's own peak RSS stays small: on Linux a
    child's reported peak RSS is never below the peak of the process that
    started it, so a large driver would floor every child's figure."""

    def __init__(self, scratch: Path) -> None:
        self.env = child_env()
        self.scratch = scratch
        self.stderr_path = scratch / "stderr.txt"

    def run(self, argv: list[str]) -> Outcome:
        with open(self.stderr_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
                cwd=ROOT, env=self.env, close_fds=True)
            try:
                nbytes, lines, digest, head = self._drain(proc, start + JOB_TIMEOUT_S)
            except BaseException:
                # not proc.kill(): it polls, and a reaped child leaves wait4 nothing
                os.kill(proc.pid, signal.SIGKILL)
                raise
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - start
            err.seek(0)
            stderr = err.read(1 << 16).decode(errors="replace")
        return Outcome(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024, nbytes, lines, digest, head, stderr)

    @staticmethod
    def _drain(proc, deadline):
        fd = proc.stdout.fileno()
        sha = hashlib.sha256()
        nbytes = lines = 0
        head = bytearray()
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(f"child exceeded {JOB_TIMEOUT_S} s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return nbytes, lines, sha.hexdigest(), bytes(head)
            sha.update(chunk)
            nbytes += len(chunk)
            lines += chunk.count(b"\n")
            if len(head) < HEAD_LIMIT:
                head += chunk[: HEAD_LIMIT - len(head)]


# ---------------------------------------------------------------- checks

def check(job: workloads.Job, out: Outcome, ref: Reference) -> str | None:
    """None when the output is right, else the reason it is wrong."""
    e = job.expect
    bump = 1 if e.get("corrupt") else 0
    if job.kind == "refuse":
        if out.rc != 2:
            return f"exit {out.rc}, expected the refusal exit 2"
        if out.nbytes or not out.stderr.startswith("error:"):
            return "a refusal prints only an error line on stderr"
        return None
    if out.rc != 0:
        return f"exit {out.rc}: {out.stderr.strip()[-300:]}"
    text = out.head.decode(errors="replace")
    if job.kind == "count":
        m, n1, n2, method = e["m"], e["n1"], e["n2"], e["method"]
        value = ref.count(m, n1, n2) + bump
        if e["fmt"] == "json":
            try:
                got = json.loads(text)
            except ValueError:
                return "count output is not JSON"
            want = {"m": m, "n1": n1, "n2": n2, "method": method, "F": str(value)}
            return None if got == want else f"got {got}, expected {want}"
        if e["fmt"] == "csv":
            want = f"m,n1,n2,method,F\r\n{m},{n1},{n2},{method},{value}\r\n"
        else:
            want = f"{value}  method={method}\n"
        return None if text == want else f"got {text!r}, expected {want!r}"
    if job.kind == "hessenberg":
        n = e["n"]
        k = rho(2 * n + 1, 2 * n + 1)
        want = f"det={ref.count(2 * n, 0, 0) + bump} size={k - rho(1, 1)} k={k}\n"
        return None if text == want else f"got {text!r}, expected {want!r}"
    if job.kind == "table":
        records, digest = ref.tables[(e["fmt"], e["m_max"])]
        got_records = out.lines - (1 if e["fmt"] == "csv" else 0)
        if got_records != records + bump or out.digest != digest:
            return f"table: {got_records} records, sha256 {out.digest}; expected {records}, {digest}"
        return None
    if job.kind == "verify":
        return check_verify(e, text, ref)
    if job.kind == "fit":
        return check_fit(e, text, ref)
    raise ValueError(f"unknown job kind {job.kind}")


def check_verify(e: dict, text: str, ref: Reference) -> str | None:
    try:
        report = json.loads(text)
    except ValueError:
        return "verify report is not JSON"
    suite = e["suite"]
    if report.get("suite") != suite or report.get("ok") is not True:
        return f"{suite}: report not ok"
    for key in ("first_mismatch", "first_failure"):
        if report.get(key) is not None:
            return f"{suite}: {key} is {report[key]}"
    if "compared" in report and not report["compared"] > 0:
        return f"{suite}: vacuous pass, compared={report['compared']}"
    if "caps" in e and report.get("caps") != e["caps"]:
        return f"{suite}: caps {report.get('caps')}, expected {e['caps']}"
    if suite == "gessel" and report.get("n_max") != e["N"]:
        return "gessel: wrong range"
    if suite == "recurrence_g" and report.get("range_checked") != e["N"] - 1:
        return "recurrence_g: wrong range"
    if suite == "cross_pipeline":
        k_max = e["k_max"]
        rows = report.get("gessel_indices", [])
        if report.get("k_max") != k_max or report.get("entries_checked") != k_max + 1:
            return "cross_pipeline: wrong extent"
        if len(rows) != origin_rows(k_max):
            return f"cross_pipeline: {len(rows)} origin rows, expected {origin_rows(k_max)}"
        for row in rows:
            want = str(ref.count(2 * row["n"], 0, 0))
            if not row["dp"] == row["det"] == row["solve"] == want:
                return f"cross_pipeline: row {row} differs from {want}"
    if suite == "families":
        if not report.get("fits") or not all(f.get("ok") for f in report["fits"]):
            return "families: a fit failed"
        if not all(c.get("ok") for c in report.get("closed_forms", {}).values()):
            return "families: a closed form failed"
    return None


def check_fit(e: dict, text: str, ref: Reference) -> str | None:
    match = FIT_LINE.match(text)
    if not match:
        return f"fit output {text!r} not understood"
    family, k, degree, coeffs, claims_ok = match.groups()
    degree_want = FIT_DEGREE[e["family"]](e["k"])
    if (family, int(k), int(degree)) != (e["family"], e["k"], degree_want):
        return f"fit: {family}_{k} degree {degree}, expected degree {degree_want}"
    if claims_ok != "True":
        return "fit: claims_ok=False"
    poly = [Fraction(c) for c in coeffs.split(", ")]
    n = degree_want + 6  # past the fitted samples and the held-out points
    want = fit_value(ref, e["family"], e["k"], n)
    if want is not None:
        got = sum(c * n**i for i, c in enumerate(poly))
        if got != want:
            return f"fit: polynomial gives {got} at n={n}, reference {want}"
    return None


# ---------------------------------------------------------------- passes

@dataclass
class Pass:
    job_walls: list[float] = field(default_factory=list)
    job_cpus: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    stdout_bytes: int = 0
    sums: dict[str, float] = field(default_factory=dict)
    yards: list[float] = field(default_factory=list)

    def scaled(self, times: list[float]) -> list[float]:
        """Job times scaled to the reference pace.  Job j's pace is the median
        of the yardsticks run just before and after it (up to three each)."""
        return [t * YARDSTICK_REF_S / statistics.median(self.yards[max(0, j - 3): j + 3])
                for j, t in enumerate(times)]


@dataclass
class Tally:
    attempted: int = 0
    failures: list[dict] = field(default_factory=list)

    def record(self, argv: list[str], reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append({"argv": argv, "reason": reason})


def cli_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "gesselwalks.cli", *argv]


def yardstick(runner: Runner) -> float:
    return runner.run([sys.executable, str(BENCH / "yardstick.py")]).wall


def run_pass(jobs, ref, runner: Runner, tally: Tally, yardsticks=False,
             trace_file=None, label="") -> Pass:
    """One pass over the job list, optionally with a yardstick after every
    job, or with every job traced."""
    result = Pass()
    for i, job in enumerate(jobs):
        if trace_file is None:
            out = runner.run(cli_argv(job.argv))
            if yardsticks:
                result.yards.append(yardstick(runner))
        else:
            job_id = f"{label}{i}"
            prefix = runner.scratch / job_id
            out = runner.run([sys.executable, str(BENCH / "trace_child.py"),
                              job_id, str(prefix), *job.argv])
            absorb_trace(prefix, result.sums, trace_file)
        tally.record(job.argv, check(job, out, ref))
        result.job_walls.append(out.wall)
        result.job_cpus.append(out.cpu)
        result.rss_mb.append(out.rss_mb)
        result.stdout_bytes += out.nbytes
    return result


def absorb_trace(prefix: Path, sums: dict, trace_file) -> None:
    """Add one traced child's sums to the pass and append its spans."""
    sums_path = prefix.with_suffix(".json")
    spans_path = prefix.with_suffix(".spans.jsonl")
    with open(sums_path, encoding="utf-8") as fp:
        job_sums = json.load(fp)
    for key, value in job_sums.items():
        if key == "walks.max_bits":
            sums[key] = max(sums.get(key, 0), value)
        else:
            sums[key] = sums.get(key, 0) + value
    with open(spans_path, "rb") as fp:
        while chunk := fp.read(1 << 16):
            trace_file.write(chunk)
    sums_path.unlink()
    spans_path.unlink()


def layer_metrics(p: Pass) -> dict[str, float]:
    s = p.sums
    values = {}
    for name in LAYER_METRICS:
        if name in RATIOS:
            num, den = RATIOS[name]
            values[name] = s.get(num, 0) / s[den] if s.get(den) else 0.0
        else:
            values[name] = s.get(name, 0)
    values["cli.stdout_mb"] = p.stdout_bytes / 2**20
    return values


# ---------------------------------------------------------------- setup

def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": sys.version.split()[0],
        "executable": sys.executable,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def preflight(runner: Runner) -> None:
    """Fail unless children import the package from this checkout."""
    out = runner.run([sys.executable, "-c", "import gesselwalks; print(gesselwalks.__file__)"])
    origin = Path(out.head.decode().strip() or ".").resolve()
    if out.rc != 0 or SRC.resolve() not in origin.parents:
        raise BenchError(f"children import gesselwalks from {origin}, not {SRC}")


def measure_setup(runner: Runner, ref: Reference, tally: Tally) -> Pass:
    """Time a trivial invocation: interpreter start, import, argument parsing."""
    return run_pass([workloads.count_job(0, 0, 0)] * SETUP_PROBES, ref, runner, tally,
                    yardsticks=True)


# ---------------------------------------------------------------- main

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole passes for at most this long (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny job sizes, for tests")
    p.add_argument("--negative-control", action="store_true",
                   help="corrupt one expectation; the run must then fail")
    return p.parse_args(argv)


def repeat(seconds: float, step) -> list:
    """Call step() again while another call still fits in seconds; at least once."""
    start = time.perf_counter()
    results = []
    while True:
        began = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return results


def measure_end_to_end(args, runner: Runner, jobs, ref, tally: Tally):
    """Untraced passes, each job followed by a yardstick; times scaled to the
    reference pace."""
    setup = measure_setup(runner, ref, tally)
    passes = repeat(args.seconds, lambda: run_pass(jobs, ref, runner, tally, yardsticks=True))
    walls = [w for p in passes for w in p.scaled(p.job_walls)]
    metrics = {
        "wall_s": statistics.median(sum(p.scaled(p.job_walls)) for p in passes),
        "cpu_s": statistics.median(sum(p.scaled(p.job_cpus)) for p in passes),
        "job_s.p50": statistics.median(walls),
        "peak_rss_mb": max(r for p in passes for r in p.rss_mb),
        "setup_s": statistics.median(setup.scaled(setup.job_walls)),
    }
    details = {
        "job_samples": len(walls),
        "raw": {
            "wall_s": statistics.median(sum(p.job_walls) for p in passes),
            "cpu_s": statistics.median(sum(p.job_cpus) for p in passes),
            "job_s.p50": statistics.median(w for p in passes for w in p.job_walls),
            "setup_s": statistics.median(setup.job_walls),
        },
        "setup_walls": setup.job_walls,
        "setup_yards": setup.yards,
    }
    return metrics, details, passes


def measure_layers(args, runner: Runner, jobs, ref, tally: Tally):
    """Pairs of an untraced and a traced pass, alternating which goes first;
    per-layer sums are medians over the traced passes, times are raw."""
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    pairs = []

    def pair():
        plain_first = len(pairs) % 2 == 0
        if plain_first:
            plain = run_pass(jobs, ref, runner, tally)
        traced = run_pass(jobs, ref, runner, tally, trace_file=trace_file,
                          label=f"p{len(pairs)}j")
        if not plain_first:
            plain = run_pass(jobs, ref, runner, tally)
        pairs.append((plain, traced))
        return pairs[-1]

    with open(trace_path, "wb") as trace_file:
        repeat(args.seconds, pair)
    per_pass = [layer_metrics(traced) for _, traced in pairs]
    metrics = {name: statistics.median(v[name] for v in per_pass) for name in LAYER_METRICS}
    metrics["trace.overhead_s"] = statistics.median(
        sum(t.job_walls) - sum(p.job_walls) for p, t in pairs)
    details = {"trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, details, [p for two in pairs for p in two]


def measure(args, runner: Runner, jobs, ref, tally: Tally) -> tuple[dict, dict]:
    """Run the passes; return (metrics, details)."""
    start = time.perf_counter()
    run_mode = measure_layers if args.trace else measure_end_to_end
    metrics, details, passes = run_mode(args, runner, jobs, ref, tally)
    metrics["proc.driver_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    details.update({
        "passes": len(passes),
        "measured_s": time.perf_counter() - start,
        "child_rss_min_mb": min(r for p in passes for r in p.rss_mb),
        "job_walls": [p.job_walls for p in passes],
        "job_cpus": [p.job_cpus for p in passes],
        "yards": [p.yards for p in passes],
    })
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = OUT / f"tmp-{os.getpid()}"
    try:
        if not (SRC / "gesselwalks" / "cli.py").is_file():
            raise BenchError(f"no gesselwalks sources under {SRC}")
        scratch.mkdir(parents=True, exist_ok=True)
        runner = Runner(scratch)
        preflight(runner)
        env = environment(args)
        jobs = workloads.build(args.workload, args.seed, args.smoke)
        if args.negative_control:
            victim = next(j for j in jobs if j.kind in ("count", "hessenberg", "table"))
            victim.expect["corrupt"] = True
        ref = Reference([t for j in jobs for t in j.targets()] + [(0, 0, 0)],
                        [t for j in jobs for t in j.tables()])
        tally = Tally()
        # warm-up: the first child compiles the package's bytecode
        runner.run(cli_argv(workloads.count_job(0, 0, 0).argv))
        metrics, details = measure(args, runner, jobs, ref, tally)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        if scratch.is_dir():
            for leftover in scratch.iterdir():
                leftover.unlink()
            scratch.rmdir()

    failed = len(tally.failures)
    units = LAYER_METRICS if args.trace else E2E_METRICS
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {**result, "environment": env, "fail_frac": failed / tally.attempted,
              "driver_rss_mb": metrics["proc.driver_rss_mb"], "details": details,
              "failures": tally.failures[:20], "jobs": [j.argv for j in jobs]}
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} python={env['python']} "
          f"nproc={env['nproc']} commit={env['commit']} src={env['src_sha256'][:12]}")
    print(f"# passes={details['passes']} jobs/pass={len(jobs)} measured={details['measured_s']:.1f}s "
          f"fail_frac={record['fail_frac']:.4f} ({failed}/{tally.attempted}) "
          f"driver_rss_mb={metrics['proc.driver_rss_mb']:.1f} "
          f"child_rss_min_mb={details['child_rss_min_mb']:.1f}")
    if not args.trace:
        print(f"# job_s.p50 over {details['job_samples']} jobs; "
              f"setup_s over {SETUP_PROBES} probes; unscaled: "
              + " ".join(f"{k}={v:.4g}" for k, v in details["raw"].items()))
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for failure in tally.failures[:5]:
        print(f"# FAIL {' '.join(failure['argv'])}: {failure['reason']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
