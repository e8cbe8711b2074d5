"""Seeded job lists for the benchmark workloads.

A job is one ``gessel-walks`` invocation plus what its output must be.  The
seed picks targets, output formats, the order of the jobs and the sizes of
jobs whose cost barely depends on size.  Sizes that set most of a
workload's time or its peak memory stay on fixed slots, or jitter by a few
percent of their cost, so two seeds ask for nearly the same amount of work
and the run-to-run spread reflects the program, not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from reference import FIT_DEGREE, fit_points, origin_rows

WORKLOADS = ("dp-point", "boundary-system", "verify-export")


@dataclass
class Job:
    """``argv`` is passed to the CLI; ``kind`` selects the output check.

    kinds: count (expect m, n1, n2, method, fmt), hessenberg (n), table
    (fmt, m_max), verify (suite plus its parameter), fit (family, k) and
    refuse (exit 2, nothing on stdout).
    """

    kind: str
    argv: list[str]
    expect: dict = field(default_factory=dict)

    def targets(self) -> list[tuple[int, int, int]]:
        """Reference counts this job's check needs."""
        e = self.expect
        if self.kind == "count":
            return [(e["m"], e["n1"], e["n2"])]
        if self.kind == "hessenberg":
            return [(2 * e["n"], 0, 0)]
        if self.kind == "fit":
            n = FIT_DEGREE[e["family"]](e["k"]) + 6
            return fit_points(e["family"], e["k"], n)
        if self.kind == "verify" and e["suite"] == "cross_pipeline":
            return [(2 * n, 0, 0) for n in range(origin_rows(e["k_max"]))]
        return []

    def tables(self) -> list[tuple[str, int]]:
        if self.kind == "table":
            return [(self.expect["fmt"], self.expect["m_max"])]
        return []


def count_job(m: int, n1: int, n2: int, method: str = "dp", fmt: str = "text",
              extra: tuple[str, ...] = ()) -> Job:
    argv = ["count", "--m", str(m), "--n1", str(n1), "--n2", str(n2),
            "--method", method, "--format", fmt, *extra]
    return Job("count", argv, {"m": m, "n1": n1, "n2": n2, "method": method, "fmt": fmt})


def refuse_job(*argv: str) -> Job:
    return Job("refuse", list(argv))


def verify_job(suite: str, flag: str | None = None, value: int | None = None) -> Job:
    argv = ["verify", "--suite", suite]
    expect: dict = {"suite": suite}
    if flag == "--caps":
        argv += [flag, f"{value},{value},{value}"]
        expect["caps"] = [value] * 3
    elif flag is not None:
        argv += [flag, str(value)]
        expect["N" if flag == "--N" else "k_max"] = value
    return Job("verify", argv, expect)


def _point(rng: random.Random, m: int, kind: str) -> tuple[int, int, int]:
    """A reachable target of the given kind with at most m steps (m >= 8)."""
    if kind in ("origin", "vertical"):
        m -= m % 2
    if kind == "origin":
        return m, 0, 0
    if kind == "vertical":
        return m, 0, rng.randint(1, m // 4)
    n1 = rng.randint(1, m // 4)
    n1 += (m - n1) % 2
    if kind == "horizontal":
        return m, n1, 0
    return m, n1, rng.randint(1, (n1 + m) // 4)


def dp_point(rng: random.Random, smoke: bool) -> list[Job]:
    """Single dp queries at large m, plus two dp-bound verify suites.

    Half the queries sit near one typical size, so the median job is the
    median of several like-sized jobs rather than of a single one.
    """
    low, typical, high, top = (10, 16, 20, 24) if smoke else (120, 140, 156, 220)
    n_lo = 10 if smoke else 80
    ms = ([low + rng.randrange(11) for _ in range(5)]
          + [typical + rng.randrange(-2, 3) for _ in range(10)]
          + [high + rng.randrange(5) for _ in range(5)] + [top])
    kinds = ["origin", "horizontal", "vertical", "interior"] * 6
    rng.shuffle(kinds)
    jobs = []
    for m, kind in zip(ms, kinds):
        fmt = rng.choice(("text", "text", "json", "csv"))
        jobs.append(count_job(*_point(rng, m, kind), "dp", fmt))
    jobs.append(verify_job("gessel", "--N", n_lo + rng.randrange(5)))
    jobs.append(verify_job("recurrence_g", "--N", n_lo + rng.randrange(5)))
    rng.shuffle(jobs)
    return jobs


def boundary_system(rng: random.Random, smoke: bool) -> list[Job]:
    """Triangular solve, determinant windows, multisum and closed forms at
    small m, plus refusals that must exit 2.

    Every size that sets a job's cost is fixed; the seed picks targets,
    formats and closed-form parameters, which cost about the same.  Six
    repeats of one det query sit between the quick jobs and the slow ones,
    so the median job is always one of them and job_s.p50 does not jump
    between the two groups from run to run.
    """
    solve_slots = (8, 10, 12) if smoke else (24, 32, 40)
    det_slots = (2, 6) if smoke else (8, 16)
    det_middle = 4 if smoke else 12
    hess_slots = (1, 2) if smoke else (4, 7)
    kmax_slots = (40, 100) if smoke else (400, 1180)
    jobs = []
    for m in solve_slots:
        jobs.append(count_job(m, 2 * rng.randrange(2), 0, "solve"))
        jobs.append(count_job(m, 0, 1 + rng.randrange(2), "solve"))
    for m in det_slots:
        jobs.append(count_job(m, 0, 0, "det"))
    for _ in range(6):
        jobs.append(count_job(det_middle, 0, 0, "det", rng.choice(("text", "json", "csv"))))
    for n in hess_slots:
        jobs.append(Job("hessenberg", ["hessenberg", "--n", str(n)], {"n": n}))
    for base in kmax_slots:
        jobs.append(verify_job("cross_pipeline", "--k-max", base + rng.randrange(21)))
    for m in (2, 4, 6):
        jobs.append(count_job(m, 0, 0, "multisum", extra=("--max-span", "200")))
    n = rng.randint(10, 15)
    k = rng.randrange(4)
    jobs += [
        count_job(2 * n + 10, 0, 0, "closed"),
        count_job(2 * n, 0, 1, "closed"),
        count_job(2 * n + 2 * k, 0, n, "closed"),
        count_job(n + 2 * k, n, 0, "closed"),
    ]
    m = 10 + 2 * rng.randrange(6)
    jobs += [
        refuse_job("count", "--m", str(m), "--n1", "2", "--n2", "2", "--method", "closed"),
        refuse_job("count", "--m", str(m - 2), "--method", "multisum"),
        refuse_job("count", "--m", str(m + 1), "--n1", "3", "--n2", "2", "--method", "solve"),
        refuse_job("count", "--m", str(m), "--n1", "2", "--method", "det"),
    ]
    rng.shuffle(jobs)
    return jobs


def verify_export(rng: random.Random, smoke: bool) -> list[Job]:
    """Whole-table exports, series identity checks and family fits: every dp
    layer kept and read back many times."""
    small, large = (10, 20) if smoke else (60, 96)
    kernel_caps = (8, 12) if smoke else (40, 46)
    root_caps = (6, 8) if smoke else (24, 28)
    jobs = [
        Job("table", ["table", "--m-max", str(m), "--format", fmt], {"fmt": fmt, "m_max": m})
        for fmt, m in (
            ("json", small + rng.randrange(5)),
            ("json", large + 4),
            ("csv", small + rng.randrange(5)),
            ("csv", large + rng.randrange(3)),
        )
    ]
    for suite in ("kernel", "hkernel"):
        for base in kernel_caps:
            jobs.append(verify_job(suite, "--caps", base + rng.randrange(5)))
    for caps in root_caps:
        jobs.append(verify_job("root", "--caps", caps))
    jobs.append(verify_job("families"))
    for family, k_range in (("s", (0, 4)), ("r", (1, 4)), ("rt", (0, 3)),
                            ("p", (1, 3)), ("q", (1, 3))):
        for _ in range(2):
            k = rng.randint(*k_range)
            jobs.append(Job("fit", ["fit", "--family", family, "--k", str(k)],
                            {"family": family, "k": k}))
    rng.shuffle(jobs)
    return jobs


BUILDERS = {
    "dp-point": dp_point,
    "boundary-system": boundary_system,
    "verify-export": verify_export,
}


def build(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    return BUILDERS[workload](random.Random(f"{workload}/{seed}"), smoke)
