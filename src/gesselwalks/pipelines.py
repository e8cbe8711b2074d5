"""One entry point for the counting pipelines, and the check that they agree.

A method that does not cover a target raises ``NotCovered``; that refusal
is the coverage rule, stated nowhere else.  A ``dp`` count asks for one
target, so it runs two half-depth passes, one from the origin and one back
from the target, that meet at layer m // 2 (``walks.count_meet``); the
axis memo behind ``walks.count_walks`` serves the callers that read axis
cells, such as ``verify_cross_pipeline``.  Likewise a ``solve`` count
solves only the rows its target depends on (``triangular.solve_cone``),
while ``verify_cross_pipeline`` solves every row of the prefix it checks.
A ``det`` count reads its target's cone solve too; the dets that
``verify_cross_pipeline`` checks are the leading minors of one window
(``triangular.window_minors``), the same recursion over the other
coefficient source, ``coefficient_c``, read only under nonzero unknowns.
Other modules are called through their module attributes, never imported
by name, so a wrapper installed on, say, ``walks.count_walks`` sees every
call made from here.  ``exact`` and ``triangular`` are imported by the
functions that call them, so a ``dp`` count loads neither.  A ``det``,
``solve`` or ``multisum`` count loads both.  No count loads
``fractions``: the entries are integers, and a ``closed`` count divides
its form's integer numerator by its denominator and checks the remainder.
``CheckReport``, the record of every ``verify`` suite, lives here: every
command line run loads this module, and a cross_pipeline run neither
``series`` nor ``conjectures``.
"""

from __future__ import annotations

from collections import namedtuple

from . import walks

__all__ = ["METHODS", "MAX_SPAN", "NotCovered", "count", "CheckReport",
           "verify_cross_pipeline"]

METHODS = ("dp", "closed", "det", "multisum", "solve")

MAX_SPAN = 24  # default chain-span limit of the multisum pipeline


class NotCovered(ValueError):
    """The chosen method does not compute this target, or refuses the work."""


class CheckReport(namedtuple("CheckReport", "suite compared nonzero first_mismatch detail")):
    """Result of one verify suite: ``compared`` counts what it compared and
    ``nonzero`` those where either side is nonzero, as its docstring says.
    ``first_mismatch`` is None or a JSON-ready dict: where, then the values
    as decimal strings.  ``detail`` holds what the suite reports before its
    verdict, in order.  ``ok`` is the one vacuity rule: no mismatch, and a
    nonzero value compared."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.nonzero > 0 and self.first_mismatch is None

    def __bool__(self) -> bool:
        return self.ok


def count(m: int, n1: int, n2: int, method: str = "dp", max_span: int = MAX_SPAN) -> int:
    """F(m; n1, n2) through the named pipeline.

    ``dp`` counts anything; ``closed`` covers the targets with a closed form,
    ``det`` and ``multisum`` the origin returns F(2n; 0, 0), and ``solve``
    the boundary points (n1 = 0 or n2 = 0).  ``multisum`` refuses chain
    spans above ``max_span``: at most 2^span chains, 26,928 at span 260.
    Negative m, n1 or n2, and a ``max_span`` below 1, are refused with one
    message each whatever the method.
    """
    if m < 0 or n1 < 0 or n2 < 0:
        raise ValueError("m, n1, n2 must be nonnegative")
    if max_span < 1:
        raise ValueError("max_span must be at least 1")
    if method == "dp":
        return walks.count_meet(m, n1, n2)
    if method == "closed":
        return _count_closed(m, n1, n2)
    if method == "solve":
        return _count_solve(m, n1, n2)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if n1 or n2 or m % 2:
        pipeline = "determinant" if method == "det" else "multiple-sum"
        raise NotCovered(f"the {pipeline} pipeline computes F(2n; 0, 0) only")
    from . import triangular
    if method == "det":
        return triangular.gessel_via_determinant(m // 2)
    k = triangular.origin_index(m // 2)
    if k == triangular.RHS_INDEX:
        return 1
    try:
        return triangular.inverse_entry_multisum(
            k, triangular.RHS_INDEX, triangular.system_entry, max_span=max_span
        )
    except ValueError as exc:
        raise NotCovered(str(exc)) from None


def _count_closed(m: int, n1: int, n2: int) -> int:
    """Walk count from a proven or printed closed form, when one applies."""
    if not walks.reachable(m, n1, n2):
        return 0
    length, ways = walks.shortest_walk(n1, n2)
    if m == length:
        return ways
    from . import exact
    if n1 == 0 and n2 == 0:
        return exact.gessel_closed_form(m // 2)
    try:
        shape = exact.family_at(m, n1, n2)
        num, den = exact.conjectured_ratio(*shape)
    except ValueError:  # off the axes, or no printed form at this excess
        raise NotCovered(f"no closed form covers F({m}; {n1}, {n2})") from None
    value, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"the {shape[0].value} closed form evaluated to "
                              f"the non-integer {exact.ratio_str(num, den)}")
    return value


def _count_solve(m: int, n1: int, n2: int) -> int:
    """Boundary count recovered from the forward-solved triangular system."""
    from . import triangular
    if n1 and n2:
        raise NotCovered(
            "the triangular solve recovers boundary counts only (n1 = 0 or n2 = 0)"
        )
    if not walks.reachable(m, n1, n2):
        return 0
    # the unknowns hold f_tilde(m + 1; ., .), the one-step shift of F(m; ., .)
    k = triangular.boundary_index(m + 1, n1, n2)
    x = triangular.solve_cone(k)
    if n2 == 0:
        return x[k]
    # F(m; 0, n2) telescopes out of the transformed axis values, all in the cone
    total = 0
    for j in range(n2 + 1):
        sign = 1 if (n2 - j) % 2 == 0 else -1
        total += sign * x[triangular.boundary_index(m + 1, 0, j)]
    return total


def verify_cross_pipeline(k_max: int) -> CheckReport:
    """Every solved x(k), k <= k_max, against the boundary matrix entry it
    packs, then dp, det and solve at each origin index.

    ``compared`` counts the entries and then the origin rows, up to and
    including the first mismatch; ``nonzero`` counts those where either
    side is nonzero.  A ``k_max`` below the origin index of n = 1 is
    refused: dp, det and solve would then be compared at n = 0 only, where
    all three are 1 by construction (an empty window, the right-hand side),
    so an "ok" would check nothing."""
    from . import triangular
    floor = triangular.origin_index(1)
    if k_max < floor:
        raise ValueError(
            f"k_max must be at least {floor}, the origin index of n = 1, "
            "or only the n = 0 row, 1 by construction, is cross-checked"
        )
    system = triangular.solve_forward(k_max)
    checked = nonzero = 0
    first = None
    for k in range(k_max + 1):
        i, j = triangular.rho_inv(k)
        solved, expected = system.x[k], walks.f_entry(i, j)
        nonzero += bool(solved or expected)
        if solved != expected:
            first = {"k": k, "i": i, "j": j, "solved": str(solved), "direct": str(expected)}
            break
        checked += 1
    compared = k + 1  # the entries, a mismatch included
    gessel_rows = []
    if first is None:
        n_last = 0
        while triangular.origin_index(n_last + 1) <= k_max:
            n_last += 1
        # the window of a smaller origin index is a leading block of the
        # last one, so that window's leading minors hold every det
        minors = triangular.window_minors(triangular.origin_index(n_last))
        for n in range(n_last + 1):
            k = triangular.origin_index(n)
            dp = walks.count_walks(2 * n, 0, 0)
            det = minors[k - triangular.RHS_INDEX]
            solved = system.x[k]
            row = {"n": n, "k": k, "dp": str(dp), "det": str(det), "solve": str(solved)}
            gessel_rows.append(row)
            nonzero += bool(dp or det or solved)
            if not dp == det == solved:
                first = row
                break
    return CheckReport("cross_pipeline", compared + len(gessel_rows), nonzero, first, {
        "k_max": k_max, "entries_checked": checked, "gessel_indices": gessel_rows})
