"""Exact combinatorial arithmetic for quarter-plane walk counting.

Everything here is pure and exact; floating point never appears in the
package.  Each rational is one integer numerator/denominator pair, and
``Fraction`` only a view a library caller asks for (``pochhammer``,
``prefactor``, ``conjectured_value``): no command loads ``fractions``.
Each family's cell is stated once, in ``family_cell`` (inverse
``family_at``), and the factor c^n (q)_n / (k+2)_n once, in ``_prefactor``.
The printed polynomials are integer rows over a denominator: VERT's and
HOR's past k = 0 in ``_PRINTED``, F201's p_1 and q_1 (weights
``pq_weights``) in ``F201_ROWS``.  ``conjectures.verify_family_claims``,
a fit's one verdict, compares each fit with its row.
"""

from __future__ import annotations

import math
from enum import Enum

TYPE_CHECKING = False  # true to type checkers; set here so a run needs no typing
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Sequence

__all__ = [
    "binom_general", "pochhammer", "prefactor", "catalan", "gessel_closed_form",
    "ClosedFormFamily", "family_cell", "family_at", "printed_row", "row_factor",
    "pq_weights", "F201_ROWS", "conjectured_ratio", "conjectured_value", "ratio_str",
]


def binom_general(a: int, t: int) -> int:
    """Binomial coefficient with an arbitrary integer upper index.

    Evaluates the falling-factorial form a(a-1)...(a-t+1)/t!, the convention
    under which the coefficient vanishes exactly when t < 0.  For a < 0 it
    equals (-1)^t * C(-a+t-1, t).

    >>> binom_general(5, 2)
    10
    >>> binom_general(-1, 1)
    -1
    """
    if t < 0:
        return 0
    if a >= 0:
        return math.comb(a, t)
    reflected = math.comb(t - a - 1, t)
    return -reflected if t % 2 else reflected


def _rising(p: int, d: int, n: int) -> tuple[int, int]:
    """(p/d)_n as the integer pair (p(p+d)...(p+(n-1)d), d^n)."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    return math.prod(range(p, p + n * d, d)), d**n


def pochhammer(q: Fraction | int, n: int) -> Fraction:
    """Rising factorial (q)_n = q(q+1)...(q+n-1), with (q)_0 = 1."""
    from fractions import Fraction
    return Fraction(*_rising(*Fraction(q).as_integer_ratio(), n))


def _prefactor(c: int, p: int, d: int, k: int, n: int) -> tuple[int, int]:
    """c^n (p/d)_n / (k+2)_n as an integer pair: the hypergeometric factor of
    the closed forms with excess k and of the fit targets, which divide it out."""
    num, den = _rising(p, d, n)
    return c**n * num, den * math.prod(range(k + 2, k + n + 2))


def prefactor(c: int, q: Fraction, k: int, n: int) -> Fraction:
    """c^n (q)_n / (k+2)_n, ``_prefactor`` as a Fraction."""
    from fractions import Fraction
    return Fraction(*_prefactor(c, *Fraction(q).as_integer_ratio(), k, n))


def ratio_str(num: int, den: int) -> str:
    """str(Fraction(num, den)) for a nonzero den, without the Fraction."""
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def catalan(n: int) -> int:
    """The n-th Catalan number, C(2n, n) / (n+1)."""
    if n < 0:
        raise ValueError("catalan needs n >= 0")
    return math.comb(2 * n, n) // (n + 1)


def gessel_closed_form(n: int) -> int:
    """Closed form for the count of 2n-step walks returning to the origin:
    16^n (1/2)_n (5/6)_n / ((2)_n (5/3)_n), evaluated as the integer
    quotient 4^n prod_{j<n} (2j+1)(6j+5) / ((n+1)! prod_{j<n} (3j+5)).
    A remainder would mean the evaluation itself is broken, so it raises.
    """
    if n < 0:
        raise ValueError("gessel_closed_form needs n >= 0")
    value, rest = divmod(
        4**n * math.prod(range(1, 2 * n, 2)) * math.prod(range(5, 6 * n, 6)),
        math.factorial(n + 1) * math.prod(range(5, 3 * n + 5, 3)),
    )
    if rest:
        raise ArithmeticError(f"expected an integer value at n = {n}")
    return value


class ClosedFormFamily(Enum):
    """Families of walk counts with a printed closed form for small excess
    k; ``family_cell`` gives the cell each one counts.  Past k = 0 each
    VERT and HOR form is one row of ``_PRINTED``."""

    F201 = "f201"  # one form of its own, k = None
    VERT = "vert"  # Catalan at k = 0, rows k = 1..3
    HOR = "hor"    # 1 at k = 0, rows k = 1..3


def family_cell(family: ClosedFormFamily, k: int | None, n: int) -> tuple[int, int, int]:
    """The cell (m, n1, n2) whose count ``family``'s form gives at excess k
    and index n: F(2n; 0, 1) for F201, F(2n+2k; 0, n) for VERT and
    F(n+2k; n, 0) for HOR."""
    if family is ClosedFormFamily.F201:
        return 2 * n, 0, 1
    if family is ClosedFormFamily.VERT:
        return 2 * n + 2 * k, 0, n
    return n + 2 * k, n, 0


def family_at(m: int, n1: int, n2: int) -> tuple[ClosedFormFamily, int | None, int]:
    """The inverse of ``family_cell`` on a reachable axis cell, where k is
    a whole number; (m, 0, 1) is F201's, which covers every n.  A cell off
    the axes raises ValueError."""
    if n1 == 0 and n2 == 1:
        return ClosedFormFamily.F201, None, m // 2
    if n1 == 0:
        return ClosedFormFamily.VERT, m // 2 - n2, n2
    if n2 == 0:
        return ClosedFormFamily.HOR, (m - n1) // 2, n1
    raise ValueError(f"no closed-form family counts F({m}; {n1}, {n2})")


def _poly_at(coeffs: Sequence[int | Fraction], n: int | Fraction) -> int | Fraction:
    """Horner's rule for ascending coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


# (family, k) -> (P_k, c_k) for the printed forms with k = 1..3: the form is
# (n+1) P_k(n) / c_k, times ``row_factor``.  P_k has ascending coefficients.
_PRINTED: dict[tuple[ClosedFormFamily, int], tuple[tuple[int, ...], int]] = {
    (ClosedFormFamily.VERT, 1): ((2,), 1),
    (ClosedFormFamily.VERT, 2): ((33, 32, 8), 3),
    (ClosedFormFamily.VERT, 3): ((3060, 4641, 2648, 672, 64), 36),
    (ClosedFormFamily.HOR, 1): ((4, 1), 2),
    (ClosedFormFamily.HOR, 2): ((132, 74, 15, 1), 12),
    (ClosedFormFamily.HOR, 3): ((12240, 8604, 2620, 407, 32, 1), 144),
}


def printed_row(family: ClosedFormFamily, k: int | None) -> tuple[tuple[int, ...], int] | None:
    """The polynomial (n+1) P_k(n) / c_k of the printed (family, k) form, as
    the ascending coefficients of (n+1) P_k(n) and c_k, or None where
    ``_PRINTED`` has no row."""
    if (family, k) not in _PRINTED:
        return None
    poly, c = _PRINTED[family, k]
    return tuple(a + b for a, b in zip((*poly, 0), (0, *poly))), c


def row_factor(family: ClosedFormFamily, k: int, n: int) -> tuple[int, int]:
    """The factor of the printed (family, k) form besides its row, as an
    integer pair: 4^n (3/2)_n / (k+2)_n for VERT, 1 for HOR."""
    return _prefactor(4, 3, 2, k, n) if family is ClosedFormFamily.VERT else (1, 1)


def pq_weights(k: int, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The integer pairs of the weights (7/6)_n / (k+4/3)_n of p_k and (5/6)_n
    / (k+5/3)_n of q_k in the two-polynomial form of F(2n; 0, k) over its prefactor."""
    (a, b), (c, d) = _rising(7, 6, n), _rising(3 * k + 4, 3, n)
    (e, f), (g, h) = _rising(5, 6, n), _rising(3 * k + 5, 3, n)
    return (a * d, b * c), (e * h, f * g)


# F201 is prefactor(16, 1/2, 1, n) (p_1(n) wa + q_1(n) wb), (wa, wb) being
# pq_weights(1, n); p_1 and q_1 are ascending integer rows over a denominator.
F201_ROWS = {"p": ((5,), 27), "q": ((-50, 183, 111), 270)}


def conjectured_ratio(family: ClosedFormFamily, k: int | None, n: int) -> tuple[int, int]:
    """Evaluate one of the printed conjectural closed forms exactly, as an
    integer numerator over a positive denominator.  k selects the excess
    within the VERT and HOR families and must lie in the printed range
    0..3; the F201 family takes k=None.  Combinations without a printed
    formula raise ValueError."""
    if n < 0:
        raise ValueError("conjectured_ratio needs n >= 0")
    if family is ClosedFormFamily.F201:
        if k is not None:
            raise ValueError("formula not displayed: F201 takes k=None")
        (a, b), (c, d) = ((_poly_at(poly, n) * w, den * v) for (poly, den), (w, v)
                          in zip(F201_ROWS.values(), pq_weights(1, n)))
        num, den = _prefactor(16, 1, 2, 1, n)
        return num * (a * d + c * b), den * b * d
    if k == 0:
        return _prefactor(4, 1, 2, 0, n) if family is ClosedFormFamily.VERT else (1, 1)
    row = printed_row(family, k)
    if row is None:
        raise ValueError(f"formula not displayed for ({family.name}, k={k})")
    (coeffs, c), (num, den) = row, row_factor(family, k, n)
    return _poly_at(coeffs, n) * num, c * den


def conjectured_value(family: ClosedFormFamily, k: int | None, n: int) -> Fraction:
    """``conjectured_ratio`` as a Fraction."""
    from fractions import Fraction
    return Fraction(*conjectured_ratio(family, k, n))
