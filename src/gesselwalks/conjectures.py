"""Desk-scale verification of the conjectured closed forms: sequence
comparison against the oracle, the second-order recurrence for the counts
next to the origin, exact polynomial fits for the excess families with
their claimed structure, and the family suite that runs all of them.

The families' cells, the prefactor c^n (q)_n / (k+2)_n, the P/Q weights
and the printed rows are read from ``exact``.  ``verify_family_claims`` is
a fit's one verdict, which ``fit`` and ``verify_families`` both read: its
structure, and equality with its printed row (s_k and r_k with HOR's and
VERT's, p_1 and q_1 with F201's).  ``fractions`` is imported by the
functions that build rationals, so ``verify_gessel`` runs on integers alone.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .exact import ClosedFormFamily, conjectured_value, family_cell, gessel_closed_form
from .exact import F201_ROWS, pq_weights, prefactor, printed_row, row_factor
from .exact import _poly_at  # Horner's rule, shared with the printed forms
from .walks import count_meet, count_walks, counts_along, f_tilde

TYPE_CHECKING = False  # true to type checkers; set here so a run needs no typing
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Callable, Sequence

__all__ = [
    "FitError", "GesselCheck", "verify_gessel", "G_RECURRENCE_POLYS",
    "recurrence_residual", "default_g", "RecurrenceCheck", "verify_recurrence_g",
    "FitFamily", "PolyFit", "claimed_degree", "family_target", "fit_family",
    "FamilyClaims", "verify_family_claims", "fit_report", "solve_linear_exact",
    "FAMILY_PLAN", "verify_families",
]


class FitError(ValueError):
    """An ansatz could not be fitted or failed held-out validation."""


# first_mismatch is None or (n, oracle, closed form)
GesselCheck = namedtuple("GesselCheck", "n_max ok first_mismatch")


def verify_gessel(n_max: int) -> GesselCheck:
    """Compare the dynamic-programming counts F(2n; 0, 0) with the closed
    form for 0 <= n <= n_max, all read from one cone pass to (2 n_max, 0, 0)."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    along = counts_along(2 * n_max, 0, 0)
    for n in range(n_max + 1):
        dp = along[2 * n]
        cf = gessel_closed_form(n)
        if cf != dp:
            return GesselCheck(n_max, False, (n, dp, cf))
    return GesselCheck(n_max, True, None)


# Coefficient polynomials (ascending powers of n) of the conjectured
# second-order recurrence for g(n) = F(2n+1; 1, 0), multiplying g(n+1),
# g(n) and g(n-1) in that order.  Factored forms:
#   (n+3)(3n+7)(3n+8),  -8(2n+3)(18n^2+54n+35),  256 n (3n+1)(3n+2).
G_RECURRENCE_POLYS: tuple[tuple[int, ...], ...] = (
    (168, 191, 72, 9),
    (-840, -1856, -1296, -288),
    (0, 512, 2304, 2304),
)


def default_g(n: int) -> int:
    """g(n) = F(2n+1; 1, 0) from one two-pass count, which keeps no memo."""
    return count_meet(2 * n + 1, 1, 0)


def recurrence_residual(n: int, g: Callable[[int], int] | None = None) -> int:
    """Residual of the second-order recurrence at n.

    Terms whose coefficient polynomial vanishes are skipped entirely; at
    n = 0 the g(n-1) coefficient is 0, so g(-1) is never evaluated and the
    boundary instance reduces to 168 g(1) - 840 g(0).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    g = g or default_g
    acc = 0
    for poly, arg in zip(G_RECURRENCE_POLYS, (n + 1, n, n - 1)):
        c = _poly_at(poly, n)
        if c:
            acc += c * g(arg)
    return acc


# first_failure is None or (n, residual)
RecurrenceCheck = namedtuple(
    "RecurrenceCheck", "order coeff_polys range_checked holds first_failure")


def verify_recurrence_g(
    n_max: int, g: Callable[[int], int] | None = None
) -> RecurrenceCheck:
    """Check that the recurrence residual vanishes for 0 <= n <= n_max - 1.

    Without an injected g, g(0..n_max) is read from one cone pass to
    (2 n_max + 1, 1, 0).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if g is None:
        along = counts_along(2 * n_max + 1, 1, 0)
        g = lambda n: along[2 * n + 1]
    for n in range(n_max):
        res = recurrence_residual(n, g)
        if res != 0:
            return RecurrenceCheck(2, G_RECURRENCE_POLYS, n_max - 1, False, (n, res))
    return RecurrenceCheck(2, G_RECURRENCE_POLYS, n_max - 1, True, None)


class FitFamily(Enum):
    P_K = "p"    # first polynomial of the F(2n; 0, k) two-term ansatz
    Q_K = "q"    # second polynomial of the same ansatz
    R_K = "r"    # vertical excess family, exact's VERT
    S_K = "s"    # horizontal excess family, exact's HOR
    RT_K = "rt"  # boundary-transform vertical family f_tilde(2n+2k+1; 0, n)


class PolyFit(namedtuple("PolyFit", "family k coeffs sample_points verified_extra")):
    """An exactly interpolated polynomial from one of the ansatz families,
    together with its validation record: ``coeffs`` in ascending powers of
    n, the ``sample_points`` it was solved from, and ``verified_extra``
    held-out points."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        for d in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[d]:
                return d
        return 0

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[self.degree]

    def evaluate(self, n: int | Fraction) -> Fraction:
        return _poly_at(self.coeffs, n)

    @property
    def divisible_by_n_plus_1(self) -> bool:
        return self.evaluate(-1) == 0


def claimed_degree(family: FitFamily, k: int) -> int:
    return {
        FitFamily.P_K: 2 * k - 2,
        FitFamily.Q_K: 2 * k,
        FitFamily.R_K: 2 * k - 1,
        FitFamily.S_K: 2 * k,
        FitFamily.RT_K: 2 * k + 1,
    }[family]


def solve_linear_exact(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Gaussian elimination over Fraction; None when the system is singular."""
    from fractions import Fraction
    n = len(rows)
    m = [list(row) + [rhs[r]] for r, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] / m[col][col]
                for c in range(col, n + 1):
                    m[r][c] -= f * m[col][c]
    out = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n]
        for c in range(r + 1, n):
            acc -= m[r][c] * out[c]
        out[r] = acc / m[r][r]
    return out


# the fit families whose polynomials are printed rows of these families
_PRINTED_AS = {FitFamily.S_K: ClosedFormFamily.HOR, FitFamily.R_K: ClosedFormFamily.VERT}


def family_target(family: FitFamily, k: int, n: int) -> Fraction:
    """Oracle value the ansatz must reproduce at n, with the prefactor
    divided out exactly.  s_k and r_k divide the printed row's factor out
    of the HOR and VERT cells.  P_K and Q_K share one target: the
    two-polynomial ansatz for F(2n; 0, k), which the pair matches jointly."""
    from fractions import Fraction
    if family in _PRINTED_AS:
        printed = _PRINTED_AS[family]
        return Fraction(count_walks(*family_cell(printed, k, n))) / row_factor(printed, k, n)
    if family is FitFamily.RT_K:
        return f_tilde(2 * n + 2 * k + 1, 0, n) / prefactor(4, Fraction(1, 2), k, n)
    return count_walks(2 * n, 0, k) / prefactor(16, Fraction(1, 2), k, n)


def _ansatz_row(family: FitFamily, k: int, n: int) -> list[Fraction]:
    """What each unknown coefficient is multiplied by in the ansatz at n:
    the powers of n, weighted by wa for p and by wb for q in the joint P/Q
    ansatz, with p's coefficients first."""
    from fractions import Fraction
    if family in (FitFamily.P_K, FitFamily.Q_K):
        parts = tuple(zip(pq_weights(k, n), (FitFamily.P_K, FitFamily.Q_K)))
    else:
        parts = ((Fraction(1), family),)
    return [w * n**a for w, f in parts for a in range(claimed_degree(f, k) + 1)]


def fit_family(family: FitFamily, k: int, held_out: int = 5) -> PolyFit:
    """Fit the ansatz polynomial for (family, k) from consecutive oracle
    samples n = 0, 1, 2, ... and validate it on ``held_out`` further points.

    P_K and Q_K are solved jointly from the two-polynomial ansatz for
    F(2n; 0, k).  k = 0 is refused where the base case is a printed closed
    form rather than a polynomial (R_K, and the P/Q pair).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if held_out < 1:
        raise ValueError("held_out must be positive")
    joint = family in (FitFamily.P_K, FitFamily.Q_K)
    if joint and k < 1:
        raise ValueError("the k = 0 point is the base closed form; P/Q need k >= 1")
    if family is FitFamily.R_K and k == 0:
        raise ValueError("r_0(n) = 1/(2n+1) is a closed form, not a polynomial fit")
    label = "p/q" if joint else family.value
    samples = range(len(_ansatz_row(family, k, 0)))
    rows = [_ansatz_row(family, k, n) for n in samples]
    rhs = [family_target(family, k, n) for n in samples]
    sol = solve_linear_exact(rows, rhs)
    if sol is None:
        raise FitError(f"ansatz inconsistent at ({label}, {k})")
    for n in range(len(sol), len(sol) + held_out):
        row = _ansatz_row(family, k, n)
        if sum(c * w for c, w in zip(sol, row)) != family_target(family, k, n):
            raise FitError(f"conjecture fails at n={n} for ({label}, {k})")
    if joint:
        n_p = claimed_degree(FitFamily.P_K, k) + 1
        sol = sol[:n_p] if family is FitFamily.P_K else sol[n_p:]
    return PolyFit(family, k, tuple(sol), tuple(samples), held_out)


class FamilyClaims(namedtuple("FamilyClaims", (
        "family k degree_expected degree_actual degree_ok"
        " leading_expected leading_ok divisible_by_n_plus_1 printed_ok"))):
    """Which claims a fit satisfies: its degree, leading coefficient, (n+1)
    divisibility and printed row.  Each field past ``degree_ok`` is None
    where the family carries no such claim."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        """The fit's one verdict: no claim it carries fails."""
        return all(check is not False for check in (
            self.degree_ok, self.leading_ok, self.divisible_by_n_plus_1, self.printed_ok))


def _printed_fit(family: FitFamily, k: int) -> tuple[tuple[int, ...], int] | None:
    """The printed row a fit must equal (HOR's, VERT's or F201's), or None."""
    if family in _PRINTED_AS:
        return printed_row(_PRINTED_AS[family], k)
    return F201_ROWS.get(family.value) if k == 1 else None


def verify_family_claims(fit: PolyFit) -> FamilyClaims:
    """Check claimed degree, leading coefficient, (n+1) divisibility and printed row."""
    from fractions import Fraction
    deg_exp = claimed_degree(fit.family, fit.k)
    leading_exp = leading_ok = divisible = None
    if fit.family is FitFamily.S_K:
        leading_exp = Fraction(1, math.factorial(fit.k) * math.factorial(fit.k + 1))
        leading_ok = fit.leading_coefficient == leading_exp
    if fit.family in _PRINTED_AS and fit.k >= 1:  # the printed rows' (n+1)
        divisible = fit.divisible_by_n_plus_1
    row = _printed_fit(fit.family, fit.k)  # ascending integers over a denominator
    printed = None if row is None else tuple(a * row[1] for a in fit.coeffs) == row[0]
    return FamilyClaims(fit.family, fit.k, deg_exp, fit.degree, fit.degree == deg_exp,
                        leading_exp, leading_ok, divisible, printed)


def fit_report(fit: PolyFit, claims: FamilyClaims) -> dict:
    """JSON-ready report for one fit and its ``verify_family_claims``."""
    return {
        "family": fit.family.value,
        "k": fit.k,
        "degree": fit.degree,
        "coeffs": [str(c) for c in fit.coeffs],
        "claims": {
            "degree_expected": claims.degree_expected,
            "degree_ok": claims.degree_ok,
            "leading_expected": (
                str(claims.leading_expected)
                if claims.leading_expected is not None
                else None
            ),
            "leading_ok": claims.leading_ok,
            "divisible_by_n_plus_1": claims.divisible_by_n_plus_1,
            "printed_ok": claims.printed_ok,
        },
        "held_out_ok": fit.verified_extra,
    }


# The family members with displayed expansions, fitted by ``verify_families``.
FAMILY_PLAN: tuple[tuple[FitFamily, int], ...] = (
    *((FitFamily.S_K, k) for k in range(4)),
    *((FitFamily.R_K, k) for k in range(1, 4)),
    (FitFamily.P_K, 1),
    (FitFamily.Q_K, 1),
    *((FitFamily.RT_K, k) for k in range(3)),
)


def verify_families() -> dict:
    """JSON-ready report: fit and ``verify_family_claims`` verdict for each
    ``FAMILY_PLAN`` member, then each printed closed-form family against
    the dp on a range of n.  The fits' sample and held-out points stop at
    n = 11, so the closed forms are checked to n = 10 (F201: 12) on their own."""
    fits = []
    ok = True
    for family, k in FAMILY_PLAN:
        try:
            fit = fit_family(family, k)
        except FitError as exc:
            fits.append({"family": family.value, "k": k, "ok": False, "error": str(exc)})
            ok = False
            continue
        claims = verify_family_claims(fit)
        entry = fit_report(fit, claims)
        entry["ok"] = claims.ok
        ok = ok and entry["ok"]
        fits.append(entry)
    closed = {}
    for family, ks, n_max in (
        (ClosedFormFamily.F201, (None,), 12),
        (ClosedFormFamily.VERT, range(4), 10),
        (ClosedFormFamily.HOR, range(4), 10),
    ):
        good = all(
            conjectured_value(family, k, n) == count_walks(*family_cell(family, k, n))
            for k in ks
            for n in range(n_max + 1)
        )
        closed[family.value] = {"n_max": n_max, "ok": good}
        ok = ok and good
    return {"suite": "families", "fits": fits, "closed_forms": closed, "ok": ok}
