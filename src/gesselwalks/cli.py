"""Command line front end.

Subcommands cover the four counting pipelines (``count``), the verification
suites (``verify``), the universal row segments (``universal``), the
polynomial family fits (``fit``), bulk table export (``table``) and the
determinant windows (``hessenberg``).  Every subcommand honours
``--format {text,json,csv}``.

Exit codes: 0 success, 1 a verification or fit failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import conjectures, exact, series, triangular, walks

__all__ = ["main", "console_main", "UsageError"]


class UsageError(Exception):
    """Bad arguments or an unsupported combination; exits with status 2."""


@dataclass(frozen=True)
class RunConfig:
    fmt: str


# ---------------------------------------------------------------- count

def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"{what} evaluated to the non-integer {value}")
    return value.numerator


def _count_closed(m: int, n1: int, n2: int) -> int:
    """Walk count from a proven or printed closed form, when one applies."""
    if not walks.reachable(m, n1, n2):
        return 0
    length, count = walks.shortest_walk(n1, n2)
    if m == length:
        return count
    if n1 == 0 and n2 == 0:
        return _as_int(exact.gessel_closed_form(m // 2), "origin closed form")
    if n1 == 0 and n2 == 1 and m % 2 == 0:
        return _as_int(
            exact.conjectured_value(exact.ClosedFormFamily.F201, None, m // 2),
            "F(2n; 0, 1) closed form",
        )
    if n1 == 0 and (m - 2 * n2) % 2 == 0 and 0 <= (m - 2 * n2) // 2 <= 3:
        return _as_int(
            exact.conjectured_value(
                exact.ClosedFormFamily.VERT, (m - 2 * n2) // 2, n2
            ),
            "vertical family closed form",
        )
    if n2 == 0 and (m - n1) % 2 == 0 and 0 <= (m - n1) // 2 <= 3:
        return _as_int(
            exact.conjectured_value(exact.ClosedFormFamily.HOR, (m - n1) // 2, n1),
            "horizontal family closed form",
        )
    raise UsageError(f"no closed form covers F({m}; {n1}, {n2})")


def _count_det(m: int, n1: int, n2: int) -> int:
    if n1 or n2 or m % 2:
        raise UsageError("the determinant pipeline computes F(2n; 0, 0) only")
    return triangular.gessel_via_determinant(m // 2)


def _count_multisum(m: int, n1: int, n2: int, max_span: int) -> int:
    if n1 or n2 or m % 2:
        raise UsageError("the multiple-sum pipeline computes F(2n; 0, 0) only")
    n = m // 2
    k = triangular.rho(2 * n + 1, 2 * n + 1)
    if k == triangular.RHS_INDEX:
        return 1
    try:
        return triangular.inverse_entry_multisum(
            k, triangular.RHS_INDEX, triangular.system_entry, max_span=max_span
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _count_solve(m: int, n1: int, n2: int) -> int:
    """Boundary count recovered from the forward-solved triangular system."""
    if n1 and n2:
        raise UsageError(
            "the triangular solve recovers boundary counts only (n1 = 0 or n2 = 0)"
        )
    if not walks.reachable(m, n1, n2):
        return 0
    if n2 == 0:
        k_max = triangular.rho(m + 1 + n1, m + 1)
        system = triangular.solve_forward(k_max)
        return system.x[k_max]
    # F(m; 0, n2) telescopes out of the transformed axis values
    k_max = triangular.rho(m + 1, m + 1 + n2)
    system = triangular.solve_forward(k_max)
    total = 0
    for j in range(n2 + 1):
        sign = 1 if (n2 - j) % 2 == 0 else -1
        total += sign * system.x[triangular.rho(m + 1, m + 1 + j)]
    return total


def cmd_count(args: argparse.Namespace, config: RunConfig) -> int:
    m, n1, n2 = args.m, args.n1, args.n2
    if m < 0 or n1 < 0 or n2 < 0:
        raise UsageError("m, n1, n2 must be nonnegative")
    if args.method == "dp":
        value = walks.count_walks(m, n1, n2)
    elif args.method == "closed":
        value = _count_closed(m, n1, n2)
    elif args.method == "det":
        value = _count_det(m, n1, n2)
    elif args.method == "multisum":
        value = _count_multisum(m, n1, n2, args.max_span)
    else:
        value = _count_solve(m, n1, n2)
    if config.fmt == "json":
        print(json.dumps(
            {"m": m, "n1": n1, "n2": n2, "method": args.method, "F": str(value)}
        ))
    elif config.fmt == "csv":
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


def _series_report(suite: str, caps, report: series.CheckReport) -> dict:
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


def _verify_cross_pipeline(k_max: int) -> dict:
    system = triangular.solve_forward(k_max)
    checked = 0
    first = None
    for k in range(k_max + 1):
        i, j = triangular.rho_inv(k)
        expected = walks.f_entry(i, j)
        if system.x[k] != expected:
            first = {"k": k, "i": i, "j": j, "solved": system.x[k], "direct": expected}
            break
        checked += 1
    gessel_rows = []
    n = 0
    while first is None:
        k = triangular.rho(2 * n + 1, 2 * n + 1)
        if k > k_max:
            break
        dp = walks.count_walks(2 * n, 0, 0)
        det = triangular.gessel_via_determinant(n)
        solved = system.x[k]
        row = {"n": n, "k": k, "dp": str(dp), "det": str(det), "solve": str(solved)}
        gessel_rows.append(row)
        if not dp == det == solved:
            first = row
            break
        n += 1
    return {
        "suite": "cross_pipeline",
        "k_max": k_max,
        "entries_checked": checked,
        "gessel_indices": gessel_rows,
        "ok": first is None,
        "first_mismatch": first,
    }


def _verify_families() -> dict:
    plan = (
        [(conjectures.FitFamily.S_K, k) for k in range(4)]
        + [(conjectures.FitFamily.R_K, k) for k in range(1, 4)]
        + [(conjectures.FitFamily.P_K, 1), (conjectures.FitFamily.Q_K, 1)]
        + [(conjectures.FitFamily.RT_K, k) for k in range(3)]
    )
    fits = []
    ok = True
    for family, k in plan:
        try:
            fit = conjectures.fit_family(family, k)
        except conjectures.FitError as exc:
            fits.append({"family": family.value, "k": k, "ok": False, "error": str(exc)})
            ok = False
            continue
        claims = conjectures.verify_family_claims(fit)
        entry = conjectures.fit_report(fit, claims)
        entry["ok"] = claims.ok
        ok = ok and claims.ok
        fits.append(entry)
    closed = {}
    for label, family, ks, n_max in (
        ("f201", exact.ClosedFormFamily.F201, (None,), 12),
        ("vert", exact.ClosedFormFamily.VERT, range(4), 10),
        ("hor", exact.ClosedFormFamily.HOR, range(4), 10),
    ):
        good = True
        for k in ks:
            for n in range(n_max + 1):
                value = exact.conjectured_value(family, k, n)
                if family is exact.ClosedFormFamily.F201:
                    ref = walks.count_walks(2 * n, 0, 1)
                elif family is exact.ClosedFormFamily.VERT:
                    ref = walks.count_walks(2 * n + 2 * k, 0, n)
                else:
                    ref = walks.count_walks(n + 2 * k, n, 0)
                if value != ref:
                    good = False
        closed[label] = {"n_max": n_max, "ok": good}
        ok = ok and good
    return {"suite": "families", "fits": fits, "closed_forms": closed, "ok": ok}


def cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    caps = _parse_caps(args.caps) if args.caps else (10, 10, 10)
    if args.suite == "gessel":
        n_max = args.N if args.N is not None else 16
        if n_max < 0:
            raise UsageError("--N must be nonnegative for suite gessel")
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
    elif args.suite == "kernel":
        report = _series_report("kernel", caps, series.verify_kernel_equation(caps))
    elif args.suite == "hkernel":
        report = _series_report("hkernel", caps, series.verify_H_equation(caps))
    elif args.suite == "root":
        report = _series_report("root", caps, series.verify_root_identity(caps))
    elif args.suite == "cross_pipeline":
        k_max = args.k_max if args.k_max is not None else 200
        if k_max < 0:
            raise UsageError("--k-max must be nonnegative")
        report = _verify_cross_pipeline(k_max)
    elif args.suite == "recurrence_g":
        n_max = args.N if args.N is not None else 30
        if n_max < 1:
            raise UsageError("--N must be at least 1 for suite recurrence_g")
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
        report = _verify_families()
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


# ------------------------------------------------------------ other cmds

def cmd_universal(args: argparse.Namespace, config: RunConfig) -> int:
    if args.i < 1:
        raise UsageError("--i must be at least 1")
    seq = triangular.universal_sequence(args.i)
    if config.fmt == "json":
        print(json.dumps({"i": args.i, "length": len(seq), "values": seq}))
    elif config.fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["i"] + [f"v{j}" for j in range(len(seq))])
        w.writerow([args.i] + seq)
    else:
        print(", ".join(str(v) for v in seq))
    return 0


def cmd_fit(args: argparse.Namespace, config: RunConfig) -> int:
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
    if config.fmt == "json":
        print(json.dumps(report, indent=2))
    elif config.fmt == "csv":
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


def cmd_table(args: argparse.Namespace, config: RunConfig) -> int:
    if args.m_max < 0:
        raise UsageError("--m-max must be nonnegative")
    table = walks.shared_table()
    table.extend(args.m_max)
    if config.fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["m", "n1", "n2", "F"])
        for m, n1, n2, value in table.nonzero_records():
            if m > args.m_max:
                break
            w.writerow([m, n1, n2, value])
    else:
        for m, n1, n2, value in table.nonzero_records():
            if m > args.m_max:
                break
            print(json.dumps({"m": m, "n1": n1, "n2": n2, "F": str(value)}))
    return 0


def cmd_hessenberg(args: argparse.Namespace, config: RunConfig) -> int:
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    k = triangular.rho(2 * args.n + 1, 2 * args.n + 1)
    h = triangular.hessenberg_for(k)
    if args.dump:
        if config.fmt == "json":
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
    if config.fmt == "json":
        print(json.dumps({"n": args.n, "k": k, "size": h.size, "det": str(det)}))
    elif config.fmt == "csv":
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
        "--method", choices=("dp", "closed", "det", "multisum", "solve"),
        default="dp", help="counting pipeline (default dp)",
    )
    p.add_argument(
        "--max-span", type=int, default=24,
        help="chain-span limit for --method multisum (default 24)",
    )
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument(
        "--suite", required=True,
        choices=("gessel", "kernel", "hkernel", "root", "cross_pipeline",
                 "recurrence_g", "families"),
    )
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
    config = RunConfig(fmt=args.format)
    try:
        return args.func(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
