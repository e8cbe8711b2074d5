"""Exact combinatorial arithmetic for quarter-plane walk counting.

Everything here is pure and exact: integers are Python ints, rationals are
``fractions.Fraction`` values kept in lowest terms.  Floating point never
appears anywhere in the package.  ``fractions`` is imported by the three
functions that build rationals, so ``binom_general``'s callers, the integer
pipelines, start without it (and without ``decimal`` and ``numbers``).
The printed forms past excess k = 0 are rows of one table, ``_PRINTED``,
and ``conjectured_value`` refuses what has no row: the printed range.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "binom_general",
    "pochhammer",
    "catalan",
    "gessel_closed_form",
    "ClosedFormFamily",
    "conjectured_value",
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


def pochhammer(q: Fraction | int, n: int) -> Fraction:
    """Rising factorial (q)_n = q(q+1)...(q+n-1), with (q)_0 = 1.

    For q = p/d this is (p)(p+d)...(p+(n-1)d) / d^n: one integer product
    and a single normalisation.
    """
    from fractions import Fraction
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    q = Fraction(q)
    p, d = q.numerator, q.denominator
    return Fraction(math.prod(range(p, p + n * d, d)), d**n)


def catalan(n: int) -> int:
    """The n-th Catalan number, C(2n, n) / (n+1)."""
    if n < 0:
        raise ValueError("catalan needs n >= 0")
    return math.comb(2 * n, n) // (n + 1)


def gessel_closed_form(n: int) -> Fraction:
    """Closed form for the count of 2n-step walks returning to the origin:
    16^n (1/2)_n (5/6)_n / ((2)_n (5/3)_n).

    The value always reduces to an integer; a non-integral result would mean
    the evaluation itself is broken, so that case raises instead of rounding.
    """
    from fractions import Fraction
    if n < 0:
        raise ValueError("gessel_closed_form needs n >= 0")
    value = (
        Fraction(16) ** n
        * pochhammer(Fraction(1, 2), n)
        * pochhammer(Fraction(5, 6), n)
        / (pochhammer(2, n) * pochhammer(Fraction(5, 3), n))
    )
    if value.denominator != 1:
        raise ArithmeticError(f"expected an integer value, got {value}")
    return value


class ClosedFormFamily(Enum):
    """Families of walk counts with a printed closed form for small excess
    k.  Past k = 0 each VERT and HOR form is one row of ``_PRINTED``."""

    F201 = "f201"  # F(2n; 0, 1), one form of its own
    VERT = "vert"  # F(2n+2k; 0, n): Catalan at k = 0, rows k = 1..3
    HOR = "hor"    # F(n+2k; n, 0): 1 at k = 0, rows k = 1..3


def _poly_at(coeffs: Sequence[int | Fraction], n: int | Fraction) -> int | Fraction:
    """Horner's rule for ascending coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


# (family, k) -> (P_k, c_k) for the printed forms with k = 1..3: the form is
# (n+1) P_k(n) / c_k, times 4^n (3/2)_n / (k+2)_n in the vertical family.
# P_k has ascending coefficients.
_PRINTED: dict[tuple[ClosedFormFamily, int], tuple[tuple[int, ...], int]] = {
    (ClosedFormFamily.VERT, 1): ((2,), 1),
    (ClosedFormFamily.VERT, 2): ((33, 32, 8), 3),
    (ClosedFormFamily.VERT, 3): ((3060, 4641, 2648, 672, 64), 36),
    (ClosedFormFamily.HOR, 1): ((4, 1), 2),
    (ClosedFormFamily.HOR, 2): ((132, 74, 15, 1), 12),
    (ClosedFormFamily.HOR, 3): ((12240, 8604, 2620, 407, 32, 1), 144),
}


def conjectured_value(family: ClosedFormFamily, k: int | None, n: int) -> Fraction:
    """Evaluate one of the printed conjectural closed forms exactly.

    k selects the excess within the VERT and HOR families and must lie in
    the printed range 0..3; the F201 family takes k=None.  Combinations
    without a printed formula raise ValueError.
    """
    from fractions import Fraction
    if n < 0:
        raise ValueError("conjectured_value needs n >= 0")
    if family is ClosedFormFamily.F201:
        if k is not None:
            raise ValueError("formula not displayed: F201 takes k=None")
        return (16**n * pochhammer(Fraction(1, 2), n) / pochhammer(3, n)) * (
            Fraction(5, 27)
            * pochhammer(Fraction(7, 6), n)
            / pochhammer(Fraction(7, 3), n)
            + Fraction(111 * n * n + 183 * n - 50, 270)
            * pochhammer(Fraction(5, 6), n)
            / pochhammer(Fraction(8, 3), n)
        )
    if k == 0 and family is ClosedFormFamily.VERT:
        return 4**n * pochhammer(Fraction(1, 2), n) / pochhammer(2, n)
    if k == 0 and family is ClosedFormFamily.HOR:
        return Fraction(1)
    if (family, k) not in _PRINTED:
        raise ValueError(f"formula not displayed for ({family.name}, k={k})")
    poly, c = _PRINTED[family, k]
    value = Fraction((n + 1) * _poly_at(poly, n), c)
    if family is ClosedFormFamily.VERT:
        value *= 4**n * pochhammer(Fraction(3, 2), n) / pochhammer(k + 2, n)
    return value
