"""Run one ``gessel-walks`` invocation with timing wrappers around the
package's public functions, then write what they recorded.

    python3 bench/trace_child.py JOB_ID OUT_PREFIX CLI_ARGS...

writes ``OUT_PREFIX.spans.jsonl`` (one span per line: job, id, parent, name,
start, end) and ``OUT_PREFIX.json`` (this job's per-layer sums).  The
wrappers are installed from here; no file of the package changes.  Every
name a module imported from another module is rebound too, so calls such as
``series.count_walks`` or ``triangular.binom_general`` are seen.

Functions called in the innermost loops (``coefficient_c``,
``binom_general``, ``system_entry``, ``family_target`` and ``count_walks``
inside ``build_G``) are counted without reading the clock, so their counts
repeat exactly from run to run and the wrappers stay cheap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    """Spans and counts of one child process, kept in memory until ``dump``."""

    def __init__(self, job: str) -> None:
        self.job = job
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.stack: list[tuple[int, str]] = []
        self.sums: dict[str, float] = defaultdict(int)
        self.max_bits = 0
        self._next_id = 0

    def open(self, name: str) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append((sid, name))
        return sid, parent

    def close(self, sid: int, parent: int | None, name: str, start: float, end: float) -> None:
        self.stack.pop()
        self.spans.append((sid, parent, name, start, end))

    def inside(self, name: str) -> bool:
        return bool(self.stack) and self.stack[-1][1] == name

    def timed(self, name, fn, metric, before=None, after=None):
        """Wrap fn in a span; add its duration to ``metric_s`` and count calls."""
        sums = self.sums

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            sid, parent = self.open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.close(sid, parent, name, start, end)
                sums[metric + "_s"] += end - start
                sums[metric + ".calls"] += 1
            if after:
                after(args, result, state)
            return result

        return wrapper

    def counted(self, fn, metric, nonzero=False):
        """Wrap fn with a call counter and, if asked, a nonzero-result counter."""
        sums = self.sums
        calls, hits = metric + ".calls", metric + ".nonzero"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sums[calls] += 1
            result = fn(*args, **kwargs)
            if nonzero and result:
                sums[hits] += 1
            return result

        return wrapper

    def dump(self, prefix: str) -> None:
        with open(prefix + ".spans.jsonl", "w", encoding="utf-8") as fp:
            for sid, parent, name, start, end in self.spans:
                fp.write(json.dumps({"job": self.job, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
        sums = dict(self.sums)
        sums["walks.max_bits"] = self.max_bits
        with open(prefix + ".json", "w", encoding="utf-8") as fp:
            json.dump(sums, fp)


def support_cells(m: int) -> int:
    """Cells of layer m's support box, the ones ``WalkTable.extend`` visits."""
    return sum((n1 + m) // 2 + 1 for n1 in range(m % 2, m + 1, 2))


def install(tracer: Tracer) -> None:
    """Replace the package's public functions with traced wrappers."""
    import gesselwalks
    from gesselwalks import cli, conjectures, exact, series, triangular, walks

    modules = (gesselwalks, cli, conjectures, exact, series, triangular, walks)
    sums = tracer.sums

    def rebind(orig, wrapper) -> None:
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, name, wrapper)

    def layers_after(args, result, before):
        for m in range(before + 1, args[0].m_max + 1):
            sums["walks.layers_built"] += 1
            sums["walks.cells_visited"] += support_cells(m)

    walks.WalkTable.extend = tracer.timed(
        "walks.WalkTable.extend", walks.WalkTable.extend, "walks.extend",
        before=lambda args: args[0].m_max, after=layers_after)

    count_walks = walks.count_walks
    shared_table = walks.shared_table
    timed_count = tracer.timed("walks.count_walks", count_walks, "walks.count_walks")

    @functools.wraps(count_walks)
    def count_walks_wrapper(m, n1, n2):
        before = shared_table().m_max
        if tracer.inside("series.build_G"):
            sums["walks.count_walks.calls"] += 1
            result = count_walks(m, n1, n2)
        else:
            result = timed_count(m, n1, n2)
        if shared_table().m_max == before:
            sums["walks.count_walks.hits"] += 1
        if result.bit_length() > tracer.max_bits:
            tracer.max_bits = result.bit_length()
        return result

    rebind(count_walks, count_walks_wrapper)

    def hessenberg_after(args, result, state):
        sums["triangular.hessenberg.size"] += result.size
        sums["triangular.hessenberg.cells"] += result.size * result.size
        sums["triangular.hessenberg.nonzero"] += sum(
            1 for row in result.entries for v in row if v)

    def series_mul_after(args, result, state):
        sums["series.series_mul.pairs"] += len(args[0].coeffs) * len(args[1].coeffs)
        sums["series.series_mul.terms"] += len(result.coeffs)

    def solve_after(args, result, state):
        sums["triangular.solve_forward.rows"] += len(result.x)
        sums["triangular.solve_forward.support"] += sum(1 for v in result.x if v)

    def compared(args, report, state):
        sums["series.compared"] += report.compared

    spans = [
        (exact, "gessel_closed_form", "exact.closed_form", None),
        (exact, "conjectured_value", "exact.closed_form", None),
        (triangular, "solve_forward", "triangular.solve_forward", solve_after),
        (triangular, "hessenberg_for", "triangular.hessenberg_for", hessenberg_after),
        (triangular, "hessenberg_det", "triangular.hessenberg_det", None),
        (triangular, "gessel_via_determinant", "triangular.gessel_via_determinant", None),
        (triangular, "inverse_entry_multisum", "triangular.multisum", None),
        (triangular, "universal_sequence", "triangular.universal_sequence", None),
        (series, "series_mul", "series.series_mul", series_mul_after),
        (series, "substitute_x", "series.substitute_x", None),
        (series, "build_G", "series.build_G", None),
        (series, "build_H", "series.build_H", None),
        (series, "verify_kernel_equation", "series.verify_kernel_equation", compared),
        (series, "verify_H_equation", "series.verify_H_equation", compared),
        (series, "verify_root_identity", "series.verify_root_identity", compared),
        (conjectures, "verify_gessel", "conjectures.verify_gessel", None),
        (conjectures, "verify_recurrence_g", "conjectures.verify_recurrence_g", None),
        (conjectures, "fit_family", "conjectures.fit_family", None),
        (conjectures, "solve_linear_exact", "conjectures.solve_linear_exact", None),
        (conjectures, "verify_family_claims", "conjectures.verify_family_claims", None),
    ]
    for module, name, metric, after in spans:
        orig = getattr(module, name)
        rebind(orig, tracer.timed(f"{module.__name__.split('.')[-1]}.{name}", orig,
                                  metric, after=after))

    for module, name, metric, nonzero in (
        (exact, "binom_general", "exact.binom_general", False),
        (triangular, "coefficient_c", "triangular.coefficient_c", True),
        (triangular, "system_entry", "triangular.system_entry", False),
        (conjectures, "family_target", "conjectures.family_target", False),
    ):
        orig = getattr(module, name)
        rebind(orig, tracer.counted(orig, metric, nonzero))


def main(argv: list[str]) -> int:
    job, prefix, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(job)
    start = clock()
    from gesselwalks import cli
    tracer.sums["proc.import_s"] = clock() - start
    install(tracer)
    sid, parent = tracer.open("cli.main")
    start = clock()
    status = 1
    try:
        status = cli.main(cli_args)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        end = clock()
        tracer.close(sid, parent, "cli.main", start, end)
        covered = sum(e - s for _, p, _, s, e in tracer.spans if p == sid)
        tracer.sums["cli.main_s"] = end - start
        tracer.sums["cli.self_s"] = end - start - covered
        sys.stdout.flush()
        tracer.dump(prefix)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
