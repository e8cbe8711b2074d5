"""Command line front end.

Subcommands cover the four counting pipelines (``count``), the verification
suites (``verify``), the universal row segments (``universal``), the
polynomial family fits (``fit``), bulk table export (``table``) and the
determinant windows (``hessenberg``).  Every subcommand but ``verify``,
which always prints JSON, honours ``--format {text,json,csv}``.

Exit codes: 0 success, 1 a verification or fit failed, 2 usage error.

Only ``pipelines`` is imported up front, for the parser's choices; each
subcommand imports the library modules it calls, so a child process that
runs one subcommand loads no others.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from . import pipelines

if TYPE_CHECKING:
    from .series import CheckReport

__all__ = ["main", "console_main", "UsageError"]


class UsageError(Exception):
    """Bad arguments or an unsupported combination; exits with status 2."""


# ---------------------------------------------------------------- count

def cmd_count(args: argparse.Namespace) -> int:
    m, n1, n2 = args.m, args.n1, args.n2
    try:
        value = pipelines.count(m, n1, n2, args.method, args.max_span)
    except ValueError as exc:  # a negative target, or NotCovered
        raise UsageError(str(exc)) from None
    if args.format == "json":
        print(json.dumps(
            {"m": m, "n1": n1, "n2": n2, "method": args.method, "F": str(value)}
        ))
    elif args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["m", "n1", "n2", "method", "F"])
        w.writerow([m, n1, n2, args.method, value])
    else:
        print(f"{value}  method={args.method}")
    return 0


# ---------------------------------------------------------------- verify

def _parse_caps(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("--caps wants three comma-separated integers, e.g. 10,10,10")
    try:
        dx, dy, dz = (int(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad --caps value {text!r}") from None
    if min(dx, dy, dz) < 0:
        raise UsageError("--caps must be nonnegative")
    return dx, dy, dz


def _mismatch_json(mm):
    if mm is None:
        return None
    mono, lhs, rhs = mm
    return {"monomial": list(mono), "lhs": str(lhs), "rhs": str(rhs)}


def _series_report(suite: str, caps, report: CheckReport) -> dict:
    if report.compared == 0:
        raise UsageError(
            f"--caps {','.join(map(str, caps))} leave the {suite} check nothing "
            f"to compare (window {','.join(map(str, report.window))})"
        )
    return {
        "suite": suite,
        "caps": list(caps),
        "ok": report.ok,
        "window": list(report.window),
        "compared": report.compared,
        "first_mismatch": _mismatch_json(report.first_mismatch),
    }


# The one flag that sizes each suite; the suite refuses the other two.
_SUITE_FLAG = {
    "gessel": "--N", "kernel": "--caps", "hkernel": "--caps", "root": "--caps",
    "cross_pipeline": "--k-max", "recurrence_g": "--N", "families": None,
}


def cmd_verify(args: argparse.Namespace) -> int:
    for flag, value in (("--N", args.N), ("--k-max", args.k_max), ("--caps", args.caps)):
        if value is not None and flag != _SUITE_FLAG[args.suite]:
            raise UsageError(f"{flag} does not apply to suite {args.suite}")
    caps = _parse_caps(args.caps) if args.caps else (10, 10, 10)
    if args.suite == "gessel":
        n_max = args.N if args.N is not None else 16
        if n_max < 0:
            raise UsageError("--N must be nonnegative for suite gessel")
        from . import conjectures
        check = conjectures.verify_gessel(n_max)
        mm = check.first_mismatch
        report = {
            "suite": "gessel",
            "n_max": check.n_max,
            "ok": check.ok,
            "first_mismatch": (
                None if mm is None else {"n": mm[0], "dp": str(mm[1]), "closed": str(mm[2])}
            ),
        }
    elif args.suite in ("kernel", "hkernel", "root"):
        from . import series
        check = {
            "kernel": series.verify_kernel_equation,
            "hkernel": series.verify_H_equation,
            "root": series.verify_root_identity,
        }[args.suite]
        report = _series_report(args.suite, caps, check(caps))
    elif args.suite == "cross_pipeline":
        k_max = args.k_max if args.k_max is not None else 200
        if k_max < 0:
            raise UsageError("--k-max must be nonnegative")
        report = pipelines.verify_cross_pipeline(k_max)
    elif args.suite == "recurrence_g":
        n_max = args.N if args.N is not None else 30
        if n_max < 1:
            raise UsageError("--N must be at least 1 for suite recurrence_g")
        from . import conjectures
        check = conjectures.verify_recurrence_g(n_max)
        report = {
            "suite": "recurrence_g",
            "range_checked": check.range_checked,
            "ok": check.holds,
            "first_failure": (
                None
                if check.first_failure is None
                else {"n": check.first_failure[0], "residual": str(check.first_failure[1])}
            ),
        }
    else:
        from . import conjectures
        report = conjectures.verify_families()
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


# ------------------------------------------------------------ other cmds

def cmd_universal(args: argparse.Namespace) -> int:
    if args.i < 1:
        raise UsageError("--i must be at least 1")
    from . import triangular
    seq = triangular.universal_sequence(args.i)
    if args.format == "json":
        print(json.dumps({"i": args.i, "length": len(seq), "values": seq}))
    elif args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["i"] + [f"v{j}" for j in range(len(seq))])
        w.writerow([args.i] + seq)
    else:
        print(", ".join(str(v) for v in seq))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    from . import conjectures
    family = conjectures.FitFamily(args.family)
    try:
        fit = conjectures.fit_family(family, args.k, held_out=args.held_out)
    except conjectures.FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    claims = conjectures.verify_family_claims(fit)
    report = conjectures.fit_report(fit, claims)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    elif args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["family", "k", "degree", "claims_ok", "coeffs"])
        w.writerow(
            [report["family"], report["k"], report["degree"], claims.ok,
             " ".join(report["coeffs"])]
        )
    else:
        coeffs = ", ".join(report["coeffs"])
        print(f"{family.value}_{args.k}: degree {fit.degree}, coeffs [{coeffs}] "
              f"(ascending), claims_ok={claims.ok}")
    return 0 if claims.ok else 1


def cmd_table(args: argparse.Namespace) -> int:
    if args.m_max < 0:
        raise UsageError("--m-max must be nonnegative")
    from . import walks
    table = walks.shared_table()
    table.extend(args.m_max)
    # one f-string per record and one write per layer; the bytes are those of
    # csv.writer rows (\r\n line ends) and of json.dumps lines
    if args.format == "csv":
        sys.stdout.write("m,n1,n2,F\r\n")
        line = "{},{},{},{}\r\n".format
    else:
        line = '{{"m": {}, "n1": {}, "n2": {}, "F": "{}"}}\n'.format
    for m, records in itertools.groupby(table.nonzero_records(), itemgetter(0)):
        if m > args.m_max:
            break
        sys.stdout.write("".join([line(*record) for record in records]))
    return 0


def cmd_hessenberg(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    from . import triangular
    k = triangular.origin_index(args.n)
    h = triangular.hessenberg_for(k)
    if args.dump:
        if args.format == "json":
            print(json.dumps(
                {"n": args.n, "k": k, "size": h.size,
                 "entries": [[str(v) for v in row] for row in h.entries]}
            ))
        else:
            w = csv.writer(sys.stdout)
            for row in h.entries:
                w.writerow(row)
        return 0
    det = triangular.hessenberg_det(h)
    if args.format == "json":
        print(json.dumps({"n": args.n, "k": k, "size": h.size, "det": str(det)}))
    elif args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["n", "k", "size", "det"])
        w.writerow([args.n, k, h.size, det])
    else:
        print(f"det={det} size={h.size} k={k}")
    return 0


# ---------------------------------------------------------------- driver

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default text)",
    )

    parser = argparse.ArgumentParser(
        prog="gessel-walks",
        description="Count quarter-plane walks with steps E, W, NE, SW and "
                    "verify the conjectured identities about them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="one walk count")
    p.add_argument("--m", type=int, required=True, help="number of steps")
    p.add_argument("--n1", type=int, default=0, help="endpoint x coordinate")
    p.add_argument("--n2", type=int, default=0, help="endpoint y coordinate")
    p.add_argument(
        "--method", choices=pipelines.METHODS,
        default="dp", help="counting pipeline (default dp)",
    )
    p.add_argument(
        "--max-span", type=int, default=pipelines.MAX_SPAN,
        help="chain-span limit for --method multisum (default %(default)s)",
    )
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=_SUITE_FLAG)
    p.add_argument("--N", type=int, default=None,
                   help="range for gessel / recurrence_g")
    p.add_argument("--k-max", type=int, default=None,
                   help="system size for cross_pipeline (default 200)")
    p.add_argument("--caps", default=None,
                   help="series caps dx,dy,dz for the kernel suites "
                        "(default 10,10,10)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("universal", parents=[common],
                       help="one universal row segment")
    p.add_argument("--i", type=int, required=True)
    p.set_defaults(func=cmd_universal)

    p = sub.add_parser("fit", parents=[common], help="fit one family polynomial")
    p.add_argument("--family", required=True, choices=("p", "q", "r", "s", "rt"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--held-out", type=int, default=5,
                   help="extra validation points (default 5)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("table", parents=[common],
                       help="dump all counts up to --m-max")
    p.add_argument("--m-max", type=int, required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("hessenberg", parents=[common],
                       help="determinant window for F(2n; 0, 0)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dump", action="store_true",
                   help="print the matrix instead of its determinant")
    p.set_defaults(func=cmd_hessenberg)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
