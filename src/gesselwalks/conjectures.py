"""Desk-scale verification of the conjectured closed forms: sequence
comparison against the oracle, the second-order recurrence for the counts
next to the origin, exact polynomial fits for the excess families with
their claimed structure, and the family suite that runs all of them.
The three suites, ``verify_gessel``, ``verify_recurrence_g`` and
``verify_families``, return ``pipelines.CheckReport``.

The families' cells, the prefactor c^n (q)_n / (k+2)_n, the P/Q weights
and the printed rows are read from ``exact``.  A fit solves one integer
equation a sample by Bareiss's fraction-free elimination, to integer
numerators over one denominator; ``Fraction`` is only a view for a library
caller (``family_target``, ``solve_linear_exact``).
Every fit must also reproduce the ``HELD_OUT`` points past its samples.
``verify_family_claims`` checks a fit's claims by cross-multiplication,
its structure and its equality with its printed row (s_k and r_k with
HOR's and VERT's, p_1 and q_1 with F201's), and returns them as the one
JSON-ready dict that ``fit`` and ``verify_families`` print; its verdict is
``failed_claim``, the first claim that is False.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .exact import ClosedFormFamily, conjectured_ratio, family_cell, gessel_closed_form
from .exact import F201_ROWS, pq_weights, printed_row, ratio_str, row_factor
from .exact import _poly_at, _prefactor  # Horner's rule and the prefactor's integer pair
from .pipelines import CheckReport
from .walks import count_walks, counts_along, f_tilde

TYPE_CHECKING = False  # true to type checkers; set here so a run needs no typing
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Callable, Sequence

__all__ = [
    "FitError", "verify_gessel", "G_RECURRENCE_POLYS", "verify_recurrence_g",
    "FitFamily", "PolyFit", "HELD_OUT", "claimed_degree", "family_target", "fit_family",
    "verify_family_claims", "failed_claim", "fit_report", "solve_linear_exact",
    "FAMILY_PLAN", "verify_families",
]


class FitError(ValueError):
    """An ansatz could not be fitted or failed held-out validation."""


def verify_gessel(n_max: int) -> CheckReport:
    """Compare the dynamic-programming counts F(2n; 0, 0) with the closed
    form for 0 <= n <= n_max, all read from one cone pass to (2 n_max, 0, 0).

    ``compared`` counts the n values checked, up to and including the first
    mismatch, and ``nonzero`` those where the dp or the closed form is
    nonzero."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    along = counts_along(2 * n_max, 0, 0)
    nonzero, first = 0, None
    for n in range(n_max + 1):
        dp, cf = along[2 * n], gessel_closed_form(n)
        nonzero += bool(dp or cf)
        if cf != dp:
            first = {"n": n, "dp": str(dp), "closed": str(cf)}
            break
    return CheckReport("gessel", n + 1, nonzero, first, {"n_max": n_max})


# Coefficient polynomials (ascending powers of n) of the conjectured
# second-order recurrence for g(n) = F(2n+1; 1, 0), multiplying g(n+1),
# g(n) and g(n-1) in that order.  Factored forms:
#   (n+3)(3n+7)(3n+8),  -8(2n+3)(18n^2+54n+35),  256 n (3n+1)(3n+2).
G_RECURRENCE_POLYS: tuple[tuple[int, ...], ...] = (
    (168, 191, 72, 9),
    (-840, -1856, -1296, -288),
    (0, 512, 2304, 2304),
)


def _recurrence_terms(n: int, g: Callable[[int], int]) -> list[int]:
    """The terms of the recurrence at n, each coefficient times its g value,
    skipping those whose coefficient polynomial vanishes at n: at n = 0 the
    g(n-1) coefficient is 0, so g(-1) is never read."""
    return [c * g(arg) for poly, arg in zip(G_RECURRENCE_POLYS, (n + 1, n, n - 1))
            if (c := _poly_at(poly, n))]


def verify_recurrence_g(n_max: int, g: Callable[[int], int] | None = None) -> CheckReport:
    """Check that the recurrence residual vanishes for 0 <= n <= n_max - 1.

    Without an injected g, such as
    ``lambda n: walks.count_meet(2 * n + 1, 1, 0)``, g(0..n_max) is read
    from one cone pass to (2 n_max + 1, 1, 0).  ``compared`` counts the
    residuals checked, up to and including the first that does not vanish,
    and ``nonzero`` those with a nonzero term.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if g is None:
        along = counts_along(2 * n_max + 1, 1, 0)
        g = lambda n: along[2 * n + 1]
    nonzero, first = 0, None
    for n in range(n_max):
        terms = _recurrence_terms(n, g)
        residual = sum(terms)
        nonzero += any(terms)
        if residual:
            first = {"n": n, "residual": str(residual)}
            break
    return CheckReport("recurrence_g", n + 1, nonzero, first, {"range_checked": n_max - 1})


class FitFamily(Enum):
    P_K = "p"    # first polynomial of the F(2n; 0, k) two-term ansatz
    Q_K = "q"    # second polynomial of the same ansatz
    R_K = "r"    # vertical excess family, exact's VERT
    S_K = "s"    # horizontal excess family, exact's HOR
    RT_K = "rt"  # boundary-transform vertical family f_tilde(2n+2k+1; 0, n)


class PolyFit(namedtuple("PolyFit",
                         "family k numerators denominator sample_points")):
    """An exactly interpolated polynomial from one of the ansatz families:
    integer ``numerators`` in ascending powers of n over one positive
    ``denominator``, in lowest terms, and the ``sample_points`` it was
    solved from."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return max((d for d, a in enumerate(self.numerators) if a), default=0)

    @property
    def divisible_by_n_plus_1(self) -> bool:
        return _poly_at(self.numerators, -1) == 0


# the points past the samples that every fit must also reproduce
HELD_OUT = 5


def claimed_degree(family: FitFamily, k: int) -> int:
    return {
        FitFamily.P_K: 2 * k - 2,
        FitFamily.Q_K: 2 * k,
        FitFamily.R_K: 2 * k - 1,
        FitFamily.S_K: 2 * k,
        FitFamily.RT_K: 2 * k + 1,
    }[family]


def _solve_integer(m: list[list[int]]) -> tuple[list[int], int] | None:
    """Solve n integer equations (coefficients, then right side) by Bareiss's
    fraction-free elimination, in place, each division exact: numerators
    over the row-swapped system's determinant, or None if it is singular."""
    n, prev = len(m), 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        top, p = m[col], m[col][col]
        for row in m[col + 1:]:
            f = row[col]
            row[col:] = [(v * p - f * t) // prev for v, t in zip(row[col:], top[col:])]
        prev = p
    x = [0] * n
    for r in range(n - 1, -1, -1):
        x[r] = (m[r][n] * prev - sum(m[r][c] * x[c] for c in range(r + 1, n))) // m[r][r]
    return x, prev


def solve_linear_exact(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve over Fraction by ``_solve_integer``, each equation times the
    lcm of its denominators; None when the system is singular."""
    from fractions import Fraction
    eqs = [[Fraction(v) for v in (*row, b)] for row, b in zip(rows, rhs)]
    dens = [math.lcm(*(v.denominator for v in eq)) for eq in eqs]
    sol = _solve_integer([[int(v * d) for v in eq] for eq, d in zip(eqs, dens)])
    return None if sol is None else [Fraction(v, sol[1]) for v in sol[0]]


# the fit families whose polynomials are printed rows of these families
_PRINTED_AS = {FitFamily.S_K: ClosedFormFamily.HOR, FitFamily.R_K: ClosedFormFamily.VERT}


def _target(family: FitFamily, k: int, n: int) -> tuple[int, int]:
    """Oracle value (an integer pair) the ansatz must reproduce at n, with
    the prefactor divided out.  s_k and r_k divide the printed row's factor
    out of the HOR and VERT cells.  P_K and Q_K share one target: the
    two-polynomial ansatz for F(2n; 0, k), which the pair matches jointly."""
    if family in _PRINTED_AS:
        printed = _PRINTED_AS[family]
        num, den = row_factor(printed, k, n)
        return count_walks(*family_cell(printed, k, n)) * den, num
    if family is FitFamily.RT_K:
        value, (num, den) = f_tilde(2 * n + 2 * k + 1, 0, n), _prefactor(4, 1, 2, k, n)
    else:
        value, (num, den) = count_walks(2 * n, 0, k), _prefactor(16, 1, 2, k, n)
    return value * den, num


def family_target(family: FitFamily, k: int, n: int) -> Fraction:
    """``_target`` as a Fraction."""
    from fractions import Fraction
    return Fraction(*_target(family, k, n))


def _equation(family: FitFamily, k: int, n: int) -> list[int]:
    """The ansatz at n as one integer equation: the powers of n that
    multiply the unknowns (weighted by wa for p and wb for q in the joint
    P/Q ansatz, p's first), then the target, times their common denominator."""
    if family in (FitFamily.P_K, FitFamily.Q_K):
        (a, b), (c, d) = pq_weights(k, n)
        parts, den = ((a * d, FitFamily.P_K), (c * b, FitFamily.Q_K)), b * d
    else:
        parts, den = ((1, family),), 1
    num, target_den = _target(family, k, n)
    eq = [w * target_den * n**a for w, f in parts for a in range(claimed_degree(f, k) + 1)]
    g = math.gcd(*eq, num * den)
    return [v // g for v in (*eq, num * den)]


def fit_family(family: FitFamily, k: int) -> PolyFit:
    """Fit the ansatz polynomial for (family, k) from consecutive oracle
    samples n = 0, 1, 2, ... and validate it on ``HELD_OUT`` further points.

    P_K and Q_K are solved jointly from the two-polynomial ansatz for
    F(2n; 0, k).  k = 0 is refused where the base case is a printed closed
    form rather than a polynomial (R_K, and the P/Q pair).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    joint = family in (FitFamily.P_K, FitFamily.Q_K)
    if joint and k < 1:
        raise ValueError("the k = 0 point is the base closed form; P/Q need k >= 1")
    if family is FitFamily.R_K and k == 0:
        raise ValueError("r_0(n) = 1/(2n+1) is a closed form, not a polynomial fit")
    label = "p/q" if joint else family.value
    samples = range(len(_equation(family, k, 0)) - 1)  # a sample per unknown
    sol = _solve_integer([_equation(family, k, n) for n in samples])
    if sol is None:
        raise FitError(f"ansatz inconsistent at ({label}, {k})")
    nums, den = sol
    for n in range(len(nums), len(nums) + HELD_OUT):
        *row, rhs = _equation(family, k, n)
        if sum(c * w for c, w in zip(nums, row)) != rhs * den:
            raise FitError(f"conjecture fails at n={n} for ({label}, {k})")
    if joint:
        n_p = claimed_degree(FitFamily.P_K, k) + 1
        nums = nums[:n_p] if family is FitFamily.P_K else nums[n_p:]
    g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
    return PolyFit(family, k, tuple(v // g for v in nums), den // g, tuple(samples))


def _printed_fit(family: FitFamily, k: int) -> tuple[tuple[int, ...], int] | None:
    """The printed row a fit must equal (HOR's, VERT's or F201's), or None."""
    if family in _PRINTED_AS:
        return printed_row(_PRINTED_AS[family], k)
    return F201_ROWS.get(family.value) if k == 1 else None


def verify_family_claims(fit: PolyFit) -> dict:
    """The fit's claims, JSON-ready: its claimed degree and whether it has
    it, s_k's leading coefficient 1 / (k! (k+1)!) as a ratio string and
    whether it has it, (n+1) divisibility and equality with its printed
    row.  A claim the family does not carry is None."""
    deg_exp = claimed_degree(fit.family, fit.k)
    leading = leading_ok = divisible = None
    if fit.family is FitFamily.S_K:
        leading_den = math.factorial(fit.k) * math.factorial(fit.k + 1)
        leading = ratio_str(1, leading_den)
        leading_ok = fit.numerators[fit.degree] * leading_den == fit.denominator
    if fit.family in _PRINTED_AS and fit.k >= 1:  # the printed rows' (n+1)
        divisible = fit.divisible_by_n_plus_1
    row = _printed_fit(fit.family, fit.k)  # ascending integers over a denominator
    printed = None if row is None else (
        tuple(a * row[1] for a in fit.numerators) == tuple(a * fit.denominator for a in row[0]))
    return {"degree_expected": deg_exp, "degree_ok": fit.degree == deg_exp,
            "leading_expected": leading, "leading_ok": leading_ok,
            "divisible_by_n_plus_1": divisible, "printed_ok": printed}


def failed_claim(claims: dict) -> str | None:
    """A fit's one verdict: the first of its ``verify_family_claims`` that
    is False (``is``, since a claimed degree can be 0), or None if none is."""
    return next((name for name, check in claims.items() if check is False), None)


def fit_report(fit: PolyFit, claims: dict) -> dict:
    """JSON-ready report for one fit and its ``verify_family_claims``."""
    return {
        "family": fit.family.value,
        "k": fit.k,
        "degree": fit.degree,
        "coeffs": [ratio_str(a, fit.denominator) for a in fit.numerators],
        "claims": claims,
        "held_out_ok": HELD_OUT,
    }


# The family members with displayed expansions, fitted by ``verify_families``.
FAMILY_PLAN: tuple[tuple[FitFamily, int], ...] = (
    *((FitFamily.S_K, k) for k in range(4)),
    *((FitFamily.R_K, k) for k in range(1, 4)),
    (FitFamily.P_K, 1),
    (FitFamily.Q_K, 1),
    *((FitFamily.RT_K, k) for k in range(3)),
)


def verify_families() -> CheckReport:
    """Fit and ``verify_family_claims`` verdict for each ``FAMILY_PLAN``
    member, then each printed closed-form family against the dp on a range
    of n.  The fits' sample and held-out points stop at n = 11, so the
    closed forms are checked to n = 10 (F201: 12) on their own.

    ``compared`` counts the plan members and then the closed-form cells, a
    family's cells up to and including its first mismatch; ``nonzero``
    counts the members fitted and the cells with a nonzero count.  The
    first mismatch is the first member that fails to fit or fails a claim,
    else the first closed-form cell that differs from the dp."""
    fits = []
    nonzero, first = 0, None
    for family, k in FAMILY_PLAN:
        try:
            fit = fit_family(family, k)
        except FitError as exc:
            entry = {"family": family.value, "k": k, "ok": False, "error": str(exc)}
            first = first or {"family": family.value, "k": k, "error": str(exc)}
        else:
            nonzero += 1
            entry = fit_report(fit, verify_family_claims(fit))
            claim = failed_claim(entry["claims"])
            entry["ok"] = claim is None
            if claim is not None:
                first = first or {"family": family.value, "k": k, "claim": claim}
        fits.append(entry)
    compared = len(fits)
    closed = {}
    for family, ks, n_max in (
        (ClosedFormFamily.F201, (None,), 12),
        (ClosedFormFamily.VERT, range(4), 10),
        (ClosedFormFamily.HOR, range(4), 10),
    ):
        closed[family.value] = block = {"n_max": n_max, "ok": True}
        for k, n in ((k, n) for k in ks for n in range(n_max + 1)):
            num, den = conjectured_ratio(family, k, n)
            dp = count_walks(*family_cell(family, k, n))
            compared += 1
            nonzero += dp != 0
            if num != den * dp:
                block["ok"] = False
                first = first or {"family": family.value, "k": k, "n": n,
                                  "closed": ratio_str(num, den), "dp": str(dp)}
                break
    return CheckReport("families", compared, nonzero, first,
                       {"fits": fits, "closed_forms": closed})
