"""Command line front end.

Subcommands cover the five counting methods (``count``), the verification
suites (``verify``), the universal row segments (``universal``), the
polynomial family fits (``fit``), bulk table export (``table``) and the
determinant windows (``hessenberg``).  ``verify`` always prints JSON.  The
others take ``--format {text,json,csv}``; for ``text``, ``table`` prints
JSON lines and ``hessenberg --dump`` prints csv rows.  Both write as they
compute, one dp column or one window row at a time.

Exit codes: 0 success, 1 a verification or fit failed, 2 usage error, 141
(``CLOSED_STDOUT``) when the reader closed stdout early, as ``| head`` does.

Only ``pipelines`` is imported up front, for the grammar's choices; each
subcommand imports the library modules it calls, so a child process that
runs one subcommand loads no others.  ``GRAMMAR`` states every subcommand
and flag once.  ``read_args`` reads a well-formed command line from it, and
argparse, which ``build_parser`` imports, answers only help and usage
errors, so a well-formed run loads none of ``argparse``, ``gettext`` and
``locale``.  No run loads ``json`` either: ``_dumps`` writes the bytes of
``json.dumps`` for every report.

``console_main``, the entry point of ``gessel-walks`` and of ``python -m
gesselwalks.cli``, ends a plain run without the interpreter's teardown,
which frees every loaded module and runs a last garbage collection: it runs
the ``atexit`` callbacks, flushes stdout and stderr, and calls
``os._exit``.  With a tracer, profiler or ``sys.monitoring`` tool attached
(coverage, cProfile, pdb, trace), or when ``main`` raises, it exits through
``sys.exit`` and the full teardown, since those act after the module
returns.  ``main`` only returns the status, for callers in process.
"""

from __future__ import annotations

import atexit
import importlib
import os
import sys
from types import SimpleNamespace

from . import pipelines

TYPE_CHECKING = False  # true to type checkers; set here so a run needs no typing
if TYPE_CHECKING:
    from typing import Sequence

__all__ = ["main", "console_main", "UsageError", "CLOSED_STDOUT"]

CLOSED_STDOUT = 141  # 128 + SIGPIPE, the status a shell shows for a closed pipe


class UsageError(Exception):
    """Bad arguments or an unsupported combination; exits with status 2."""


def _quote(text: str) -> str:
    """``text`` as a JSON string, escaped by the stdlib's own escaper."""
    try:
        from _json import encode_basestring_ascii as quote
    except ImportError:  # an interpreter built without json's C accelerator
        from json.encoder import encode_basestring_ascii as quote
    return quote(text)


def _dumps(value, indent: int | None = None, newline: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=indent)``, without the json
    module, for a ``str``, ``int``, ``bool``, ``None``, ``list``, ``tuple`` or
    dict with ``str`` keys of these; any other value raises TypeError.
    ``newline`` is the line break and indent that an indented value nests in."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + " " * (indent or 0)
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("keys must be str")
        brackets = "{}"
        items = [f"{_quote(key)}: {_dumps(item, indent, inner)}" for key, item in value.items()]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        items = [_dumps(item, indent, inner) for item in value]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    if indent is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _emit(fmt: str, text: str, record: dict,
          rows: Sequence[Sequence] | None = None, indent: int | None = None) -> None:
    """Print one result as ``text``, as ``record`` in one JSON object, which
    ``_dumps`` writes without the json module, or as csv ``rows``, by default
    the record's keys over its values.  The csv bytes are those of
    ``csv.writer`` rows (\r\n line ends), as no field needs quoting."""
    if fmt == "json":
        print(_dumps(record, indent))
    elif fmt == "csv":
        if rows is None:
            rows = [record, record.values()]
        sys.stdout.write("".join(",".join(map(str, row)) + "\r\n" for row in rows))
    else:
        print(text)


# ---------------------------------------------------------------- count

def cmd_count(args) -> int:
    m, n1, n2 = args.m, args.n1, args.n2
    try:
        value = pipelines.count(m, n1, n2, args.method, args.max_span)
    except ValueError as exc:  # a negative target, or NotCovered
        raise UsageError(str(exc)) from None
    _emit(args.format, f"{value}  method={args.method}",
          {"m": m, "n1": n1, "n2": n2, "method": args.method, "F": str(value)})
    return 0


# ---------------------------------------------------------------- verify

def _parse_caps(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("--caps wants three comma-separated integers, e.g. 10,10,10")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad --caps value {text!r}") from None


# the flags that size a suite; the three series suites share one size
_N, _K_MAX, _CAPS = "--N", "--k-max", "--caps"
_SERIES_SIZE = (_CAPS, "10,10,10", 0)

# suite -> (the one flag that sizes it, the default size, the flag's lower
# bound, the module and the function that run it); a suite refuses the
# other sizing flags
_SUITES = {
    "gessel": (_N, 16, 1, "conjectures", "verify_gessel"),
    "kernel": (*_SERIES_SIZE, "series", "verify_kernel_equation"),
    "hkernel": (*_SERIES_SIZE, "series", "verify_H_equation"),
    "root": (*_SERIES_SIZE, "series", "verify_root_identity"),
    "cross_pipeline": (_K_MAX, 200, 0, "pipelines", "verify_cross_pipeline"),
    "recurrence_g": (_N, 30, 1, "conjectures", "verify_recurrence_g"),
    "families": (None, None, None, "conjectures", "verify_families"),
}


def cmd_verify(args) -> int:
    flag, default, low, home, func = _SUITES[args.suite]
    given = {name: getattr(args, _dest(name)) for name in (_N, _K_MAX, _CAPS)}
    for other, value in given.items():
        if value is not None and other != flag:
            raise UsageError(f"{other} does not apply to suite {args.suite}")
    size = default if given.get(flag) is None else given[flag]
    values = (size,)
    if flag == _CAPS:
        size = values = _parse_caps(size)
    if flag is not None and min(values) < low:
        rule = "nonnegative" if low == 0 else f"at least {low}"
        # --N sizes two suites, so its refusal names the suite
        where = f" for suite {args.suite}" if flag == _N else ""
        raise UsageError(f"{flag} must be {rule}{where}")
    sized = f"{flag} {','.join(map(str, values))}" if flag else "the defaults"
    run = getattr(importlib.import_module(f".{home}", __package__), func)
    try:
        check = run() if flag is None else run(size)
    except ValueError as exc:  # a size that the suite itself refuses
        raise UsageError(f"{sized} refused: {exc}") from None
    if check.nonzero == 0:  # a pass would be vacuous
        window = check.detail.get("window")
        raise UsageError(f"{sized} leave the {args.suite} check nothing to compare"
                         + (f" (window {','.join(map(str, window))})" if window else ""))
    # the one report layout: the suite, its detail, then the verdict and its counts
    print(_dumps({"suite": check.suite, **check.detail, "ok": check.ok,
                  "compared": check.compared, "nonzero": check.nonzero,
                  "first_mismatch": check.first_mismatch}, 2))
    return 0 if check.ok else 1


# ------------------------------------------------------------ other cmds

def cmd_universal(args) -> int:
    if args.i < 1:
        raise UsageError("--i must be at least 1")
    from . import triangular
    seq = triangular.universal_sequence(args.i)
    _emit(args.format, ", ".join(str(v) for v in seq),
          {"i": args.i, "length": len(seq), "values": seq},
          [["i"] + [f"v{j}" for j in range(len(seq))], [args.i] + seq])
    return 0


def cmd_fit(args) -> int:
    from . import conjectures
    try:
        fit = conjectures.fit_family(conjectures.FitFamily(args.family), args.k)
    except conjectures.FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = conjectures.fit_report(fit, conjectures.verify_family_claims(fit))
    coeffs, ok = report["coeffs"], conjectures.failed_claim(report["claims"]) is None
    _emit(args.format,
          f"{args.family}_{args.k}: degree {fit.degree}, coeffs [{', '.join(coeffs)}] "
          f"(ascending), claims_ok={ok}",
          report,
          [["family", "k", "degree", "claims_ok", "coeffs"],
           [args.family, args.k, fit.degree, ok, " ".join(coeffs)]],
          indent=2)
    return 0 if ok else 1


def cmd_table(args) -> int:
    if args.m_max < 0:
        raise UsageError("--m-max must be nonnegative")
    from . import walks
    write = sys.stdout.write
    # one %-template and one write per column, over pieces shared by every
    # column; the bytes are those of csv.writer rows (\r\n line ends) and of
    # json.dumps lines, and every slot of a column is a nonzero count
    as_csv = args.format == "csv"
    if as_csv:
        write("m,n1,n2,F\r\n")
    mid, end = (",", "\r\n") if as_csv else (', "F": "', '"}\n')
    pieces = [f"{n2}{mid}%d{end}" for n2 in range(args.m_max + 1)]
    for m, n1, counts in walks.columns(args.m_max):
        head = f"{m},{n1}," if as_csv else f'{{"m": {m}, "n1": {n1}, "n2": '
        write((head + head.join(pieces[:len(counts)])) % tuple(counts))
    return 0


def cmd_hessenberg(args) -> int:
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    from . import triangular
    k = triangular.origin_index(args.n)
    size = k - triangular.RHS_INDEX
    if args.dump:
        write = sys.stdout.write
        # each row written as the window yields it, zeros and superdiagonal filled in;
        # the bytes are those of csv.writer rows (\r\n ends) and of one json.dumps
        # record, whose entries are all decimal strings
        as_json = args.format == "json"
        if as_json:
            write(f'{{"n": {args.n}, "k": {k}, "size": {size}, "entries": [')
        for r, cells in enumerate(triangular.hessenberg_for(k)):
            row = ["0"] * (size + 1)  # + column k, the last row's diagonal
            row[r + 1] = "1"
            for c, e in cells:
                row[c] = str(e)
            row.pop()
            write((', ["' if r else '["') + '", "'.join(row) + '"]' if as_json
                  else ",".join(row) + "\r\n")
        if as_json:
            write("]}\n")
    else:
        det = triangular.gessel_via_determinant(args.n)
        _emit(args.format, f"det={det} size={size} k={k}",
              {"n": args.n, "k": k, "size": size, "det": str(det)})
    return 0


# ---------------------------------------------------------------- driver

_REQUIRED = object()  # the default of a flag that must be given
_FORMAT = ("--format", ("text", "json", "csv"), "text", "output format (default %(default)s)")

# The grammar, stated once: subcommand -> (handler, help, flags), each flag
# (name, kind, default, help), its kind int, str, a container of choices or
# "store_true", its default _REQUIRED for a flag that must be given.
# read_args reads a well-formed command line from it; build_parser makes
# argparse's parser of it, which answers help and usage errors.
GRAMMAR = {
    "count": (cmd_count, "one walk count", (
        _FORMAT,
        ("--m", int, _REQUIRED, "number of steps"),
        ("--n1", int, 0, "endpoint x coordinate"),
        ("--n2", int, 0, "endpoint y coordinate"),
        ("--method", pipelines.METHODS, "dp", "counting pipeline (default %(default)s)"),
        ("--max-span", int, pipelines.MAX_SPAN,
         "chain-span limit for --method multisum (default %(default)s)"),
    )),
    "verify": (cmd_verify, "run a verification suite", (
        ("--suite", _SUITES, _REQUIRED, None),
        (_N, int, None, "range for gessel / recurrence_g"),
        (_K_MAX, int, None,
         f"system size for cross_pipeline (default {_SUITES['cross_pipeline'][1]})"),
        (_CAPS, str, None,
         f"series caps dx,dy,dz for the kernel suites (default {_SUITES['kernel'][1]})"),
    )),
    "universal": (cmd_universal, "one universal row segment", (
        _FORMAT,
        ("--i", int, _REQUIRED, None),
    )),
    "fit": (cmd_fit, "fit one family polynomial", (
        _FORMAT,
        ("--family", ("p", "q", "r", "s", "rt"), _REQUIRED, None),
        ("--k", int, _REQUIRED, None),
    )),
    "table": (cmd_table, "dump all counts up to --m-max", (
        _FORMAT,
        ("--m-max", int, _REQUIRED, None),
    )),
    "hessenberg": (cmd_hessenberg, "determinant window for F(2n; 0, 0)", (
        _FORMAT,
        ("--n", int, _REQUIRED, None),
        ("--dump", "store_true", False, "print the matrix instead of its determinant"),
    )),
}


def _dest(flag: str) -> str:
    """The attribute a flag sets, by argparse's rule."""
    return flag.lstrip("-").replace("-", "_")


def read_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives, for a
    well-formed argv: a subcommand, then exact flag names, each but a
    store_true followed by one value that does not start with ``-`` and
    passes ``int()`` or the choices check, with every required flag given and
    the last of a repeated flag winning.  Any other argv gives None: help,
    abbreviations, ``--flag=value``, negative values, unknown tokens and bad
    values are left to argparse, so its messages and exit codes stand."""
    if not argv or argv[0] not in GRAMMAR:
        return None
    func, _, flags = GRAMMAR[argv[0]]
    kinds = {name: kind for name, kind, _, _ in flags}
    values = {name: default for name, _, default, _ in flags}
    tokens = iter(argv[1:])
    for name in tokens:
        kind = kinds.get(name)
        if kind is None:
            return None
        if kind == "store_true":
            values[name] = True
            continue
        value = next(tokens, "-")  # a missing value reads as a flag
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        values[name] = value
    if any(value is _REQUIRED for value in values.values()):
        return None
    return SimpleNamespace(command=argv[0], func=func,
                           **{_dest(name): value for name, value in values.items()})


def build_parser():
    """argparse's parser of ``GRAMMAR``; argparse is imported only here."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="gessel-walks",
        description="Count quarter-plane walks with steps E, W, NE, SW and "
                    "verify the conjectured identities about them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, flags) in GRAMMAR.items():
        p = sub.add_parser(command, help=text)
        for name, kind, default, help_ in flags:
            if kind == "store_true":
                options = {"action": kind}
            elif kind is int or kind is str:
                options = {"type": kind}
            else:
                options = {"choices": kind}
            if default is _REQUIRED:
                options["required"] = True
            else:
                options["default"] = default
            p.add_argument(name, help=help_, **options)
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_args(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _observed() -> bool:
    """Whether a tracer, profiler or monitoring tool (Python 3.12's cProfile
    and coverage use ``sys.monitoring``) is attached; each may still act
    after ``main`` returns."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or monitoring is not None
            and any(monitoring.get_tool(tool) is not None for tool in range(6)))


def _flush(stream) -> None:
    """Flush a standard stream as the interpreter's exit does: skip one that
    is None, as when its descriptor was closed at start, or closed."""
    if stream is not None and not stream.closed:
        stream.flush()


def console_main() -> None:
    """Run ``main`` on ``sys.argv`` and end the process with its status.

    A plain run ends without the interpreter's teardown: it runs the
    ``atexit`` callbacks, flushes stdout and stderr, and calls ``os._exit``.
    Under a tracer or profiler it exits through ``sys.exit``, as it does
    when ``main`` raises.  A closed stdout (``| head``) exits with status
    ``CLOSED_STDOUT`` and no traceback."""
    try:
        status = main()
        _flush(sys.stdout)
    except BrokenPipeError:
        # the final flush must not raise again: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = CLOSED_STDOUT
    if _observed():
        sys.exit(status)
    atexit._run_exitfuncs()
    _flush(sys.stdout)
    _flush(sys.stderr)
    os._exit(status)


if __name__ == "__main__":
    console_main()
