"""The packed triangular system behind the boundary walk counts: diagonal
ordering, forward substitution, Hessenberg determinant windows, chain-sum
inversion, and the universal row segments.

``coefficient_c`` defines each coefficient and ``_admitted_columns`` states
where it is nonzero.  ``_solve`` is the one recursion: forward substitution
that visits only those cells, with two sources for their values.  The
solves (``solve_forward`` on every row of a prefix, ``solve_cone`` on the
rows that one row depends on) read one table of binomials (``_kernel``).
By Cramer's rule the leading minors of a window are the signed unknowns
(see ``hessenberg_for``), so ``window_minors`` solves over
``coefficient_c`` itself, reading it only under nonzero unknowns, and its
minors check the solve against the definition.  ``gessel_via_determinant``
reads a window's determinant from ``solve_cone``, and ``hessenberg_for``
yields the window one row of nonzero cells at a time from ``coefficient_c``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate
from types import MethodType

from .exact import binom_general
from .walks import f_entry

TYPE_CHECKING = False  # true to type checkers; set here so a run needs no typing
if TYPE_CHECKING:
    from typing import Callable, Iterable, Iterator

__all__ = [
    "rho", "rho_inv", "RHS_INDEX", "boundary_index", "origin_index", "coefficient_c",
    "system_entry", "system_rhs", "TriSystem", "solve_forward", "solve_cone",
    "hessenberg_for", "window_minors", "hessenberg_det",
    "gessel_via_determinant", "inverse_entry_multisum", "universal_sequence",
]


def rho(i: int, j: int) -> int:
    """Diagonal ordering of index pairs: (i, j) -> C(i+j+1, 2) + j.

    Bijective and monotone in each coordinate, which is what makes the
    packed system matrix lower-triangular.
    """
    if i < 0 or j < 0:
        raise ValueError("rho needs nonnegative indices")
    return math.comb(i + j + 1, 2) + j


def rho_inv(n: int) -> tuple[int, int]:
    """Inverse of ``rho``."""
    if n < 0:
        raise ValueError("rho_inv needs a nonnegative index")
    d = (math.isqrt(8 * n + 1) - 1) // 2
    j = n - d * (d + 1) // 2
    return d - j, j


RHS_INDEX = rho(1, 1)  # the single equation with a nonzero right-hand side


def boundary_index(m: int, n1: int, n2: int) -> int:
    """Index rho(m + n1, m + n2) of the unknown that holds f_tilde(m; n1, n2),
    for a cell on either axis; interior cells have no unknown."""
    if n1 and n2:
        raise ValueError("only axis cells (n1 = 0 or n2 = 0) have an unknown")
    return rho(m + n1, m + n2)


def origin_index(n: int) -> int:
    """Index of the unknown f_tilde(2n+1; 0, 0) = F(2n; 0, 0), the origin
    count.  n = 0 gives RHS_INDEX."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return boundary_index(2 * n + 1, 0, 0)


def coefficient_c(u: int, v: int, i: int, j: int) -> int:
    """Coefficient of unknown (i, j) in equation (u, v) of the boundary
    system: a product of two generalized binomials with upper index
    -min(i, j), zero on parity mismatch between u and i.

    It equals 1 at (i, j) = (u, v) and vanishes whenever i > u or j > v,
    which is the triangularity of the packed system.
    """
    if min(u, v, i, j) < 0:
        raise ValueError("coefficient_c needs nonnegative indices")
    if (u - i) % 2:
        return 0
    t = (u - i) // 2
    top = -min(i, j)
    left = binom_general(top, t)
    if left == 0:
        return 0
    return left * binom_general(top, v - j - t)


def system_entry(n: int, k: int) -> int:
    """Entry (n, k) of the packed system matrix."""
    u, v = rho_inv(n)
    i, j = rho_inv(k)
    return coefficient_c(u, v, i, j)


def system_rhs(n: int) -> int:
    return 1 if n == RHS_INDEX else 0


# the solved prefix of the infinite packed system A x = b: x(0..k_max), ints
TriSystem = namedtuple("TriSystem", "k_max x")


def _admitted_columns(u: int, v: int):
    """The zero rule of the boundary system, stated once.

    Off the diagonal, ``coefficient_c(u, v, i, j)`` is nonzero exactly when
    i = u - 2t >= 1 for some t >= 0 and 1 <= j <= v - t.  Yields each such
    column i with its bound j_max = v - t >= 1, in descending i.  The
    diagonal (i, j) = (u, v), whose coefficient is 1, is admitted too when
    u and v are positive; it is the builders' job to treat it as the unit.
    """
    for t in range((u + 1) // 2):
        j_max = v - t
        if j_max < 1:
            return
        yield u - 2 * t, j_max


def _coefficient_table(d: int) -> list[list[int]]:
    """N[a][t] = C(a+t-1, t) = (-1)^t * binom_general(-a, t) for a <= d // 2
    and t <= d: every value that a row (u, v) with u + v <= d reads.

    Row a is the running sum of row a - 1 (the hockey-stick identity),
    starting from N[0] = 1, 0, 0, ...
    """
    rows = [[1] + [0] * d]
    for _ in range(d // 2):
        rows.append(list(accumulate(rows[-1])))
    return rows


def _kernel(table: list[list[int]], u: int, v: int, i: int, j: int) -> int:
    """``coefficient_c(u, v, i, j)`` on a cell that ``_admitted_columns``
    admits, read from ``_coefficient_table``.

    With t = (u - i) / 2 and a = min(i, j) >= 1, both binomials of
    ``coefficient_c`` have upper index -a, so the coefficient is
    (-1)^(v-j) * N[a][t] * N[a][v-j-t].
    """
    t = (u - i) // 2
    row = table[i if i < j else j]
    c = row[t] * row[v - j - t]
    return -c if (v - j) % 2 else c


def _solve(rows: Iterable[int],
           coefficient: Callable[[int, int, int, int], int]) -> dict[int, int]:
    """n -> x(n) for each row n of ``rows``, in ascending packed order, by
    forward substitution, each coefficient read as ``coefficient(u, v, i, j)``.

    ``found`` maps i -> [(j, x(i, j))], the nonzero unknowns solved so far
    in ascending j, j >= 1.  For each column i that ``_admitted_columns``
    admits, row (u, v) walks ``found[i]`` up to j_max, so it reads only the
    coefficients that multiply a nonzero unknown and assumes nothing about
    where the solution is nonzero.  Unknowns at or after n are not in
    ``found`` yet, so the diagonal (i, j) = (u, v) is never read.  A row
    left out of ``rows`` counts as a zero unknown, so ``rows`` must hold
    every nonzero unknown that its rows read, as a prefix or a cone does.
    """
    x: dict[int, int] = {}
    found: dict[int, list[tuple[int, int]]] = {}
    for n in rows:
        u, v = rho_inv(n)
        acc = system_rhs(n)
        for i, j_max in _admitted_columns(u, v):
            for j, x_ij in found.get(i, ()):
                if j > j_max:
                    break
                acc -= coefficient(u, v, i, j) * x_ij
        x[n] = acc
        if acc and v:  # the rule admits 1 <= j only
            found.setdefault(u, []).append((v, acc))
    return x


def solve_forward(k_max: int) -> TriSystem:
    """Forward substitution on the unit-lower-triangular packed system, every
    row up to ``k_max``."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    # the table bound as _kernel's first argument: a bound method calls as
    # fast as _kernel itself, where functools.partial adds a step per call
    kernel = MethodType(_kernel, _coefficient_table(sum(rho_inv(k_max))))
    return TriSystem(k_max, tuple(_solve(range(k_max + 1), kernel).values()))


def solve_cone(k: int) -> dict[int, int]:
    """x(n) for every n in the cone of row k = rho(U, V): the row itself and
    the cells (U - 2t, j) with U - 2t >= 1 and 1 <= j <= V - t.

    Row (u, v) reads only rows (u - 2t, j) with j <= v - t, so the cone holds
    every row that its rows read, and solving it in packed order gives the
    values of ``solve_forward(k)`` on it.  It holds every axis unknown
    rho(U, j) with j <= V, so a telescope along that axis reads one cone.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    top_u, top_v = rho_inv(k)
    rows = {k}
    for i, j_max in _admitted_columns(top_u, top_v):
        rows.update(rho(i, j) for j in range(1, j_max + 1))
    kernel = MethodType(_kernel, _coefficient_table(top_u + top_v))
    return _solve(sorted(rows), kernel)


def hessenberg_for(k: int) -> Iterator[list[tuple[int, int]]]:
    """The determinant window for solution entry k, one row at a time: rows
    RHS_INDEX+1 .. k and columns RHS_INDEX .. k-1 of the packed matrix, a
    square block of size k - RHS_INDEX.

    Expanding the last column of the Cramer matrix for x(k) along its one
    nonzero entry leaves this window times a unit triangle, so
    det = x(k) * (-1)^(k - RHS_INDEX).  The sign is +1 at every index k
    used for the origin counts, since those k are even.

    The window is lower-Hessenberg: its superdiagonal is the unit diagonal
    of the packed matrix, and every cell right of it is 0.  Row r lists the
    other nonzero cells (c, value), c <= r, the form ``hessenberg_det``
    reads: those ``_admitted_columns`` admits, read from ``coefficient_c``.
    """
    if k < RHS_INDEX:
        raise ValueError(f"k must be at least rho(1,1) = {RHS_INDEX}, got {k}")
    return ([(rho(i, j) - RHS_INDEX, coefficient_c(u, v, i, j))
             for i, j_max in _admitted_columns(u, v)
             for j in range(1, j_max + 1 - (i == u))]
            for u, v in map(rho_inv, range(RHS_INDEX + 1, k + 1)))


def _leading_minors(rows) -> list[int]:
    """Leading minors d_0, ..., d_size of a lower-Hessenberg matrix with unit
    superdiagonal, given each row's nonzero cells (c, value) left of the
    superdiagonal.  Row r gives the next minor:

        d_(r+1) = sum over c <= r of (-1)^(r-c) * entry(r, c) * d_c,  d_0 = 1.

    The unit superdiagonal collapses the cofactor expansion of the last row
    of each leading block to this form.
    """
    minors = [1]
    for r, cells in enumerate(rows):
        acc = 0
        for c, e in cells:
            term = e * minors[c]
            acc += term if (r - c) % 2 == 0 else -term
        minors.append(acc)
    return minors


def window_minors(k: int) -> list[int]:
    """Leading minors d_0, ..., d_size of the window ``hessenberg_for(k)``
    yields, zeros included, without reading its rows; a smaller origin
    window is a leading block of it.

    Minor d_c is the determinant of the window for RHS_INDEX + c, so by the
    sign of ``hessenberg_for`` it is (-1)^c x(RHS_INDEX + c), with x solved
    over ``coefficient_c``: the rows below RHS_INDEX are all zero, so the
    solve starts there, and it reads ``coefficient_c`` only at cells that
    multiply a nonzero minor.
    """
    if k < RHS_INDEX:
        raise ValueError(f"k must be at least rho(1,1) = {RHS_INDEX}, got {k}")
    x = _solve(range(RHS_INDEX, k + 1), coefficient_c)
    return [-x_c if c % 2 else x_c for c, x_c in enumerate(x.values())]


def hessenberg_det(rows: Iterable[list[tuple[int, int]]]) -> int:
    """Determinant of a window given as rows of ``hessenberg_for``'s form:
    the last leading minor (1 for the empty window)."""
    return _leading_minors(rows)[-1]


def gessel_via_determinant(n: int) -> int:
    """Origin count F(2n; 0, 0) as the Hessenberg determinant of the window
    at k = ``origin_index(n)``, which is x(k) (see ``hessenberg_for``), read
    from ``solve_cone(k)``, not from its rows.  n = 0: the empty window, 1."""
    k = origin_index(n)
    return solve_cone(k)[k]


def inverse_entry_multisum(
    k: int, m: int, entries: Callable[[int, int], int], max_span: int
) -> int:
    """Entry (k, m), k > m, of the inverse of a unit-lower-triangular matrix
    as a signed sum over strictly increasing index chains from m to k:

        sum over chains m = l_0 < l_1 < ... < l_j = k of
        (-1)^j * prod entries(l_t, l_{t-1}).

    Chains number at most 2^(k-m-1), but far fewer survive the zeros of the
    packed system: 26 at span 56, 2,568 at 176, 26,928 at 260.  Spans beyond
    max_span are refused rather than silently exploding.  Each entry below
    the diagonal is read once, and the chains walk only the nonzero ones.
    """
    if m < 0 or k <= m:
        raise ValueError("need k > m >= 0")
    if k - m > max_span:
        raise ValueError(f"chain explosion: span {k - m} exceeds the limit {max_span}")
    # below[p]: the nonzero entries (q, entries(q, p)) of column p, m <= p < q <= k
    below = {p: [(q, e) for q in range(p + 1, k + 1) if (e := entries(q, p))]
             for p in range(m, k)}
    total = 0

    def extend(p: int, product: int, links: int) -> None:
        nonlocal total
        for q, e in below[p]:
            piece = product * e
            if q == k:
                # closing the chain makes links+1 factors in the product
                total += -piece if links % 2 == 0 else piece
            else:
                extend(q, piece, links + 1)

    extend(m, 1, 0)
    return total


def universal_sequence(i: int) -> list[int]:
    """The nonzero run in row 2i-1 of the packed boundary matrix.

    The run has length 2i, starts at 1 and ends in a Catalan number.  It is
    extracted as the maximal contiguous nonzero segment, so an unexpected
    interior zero would truncate the result visibly instead of being
    silently skipped.
    """
    if i < 1:
        raise ValueError("i must be at least 1")
    r = 2 * i - 1
    limit = 3 * i + 1  # the support provably ends at column 3i-1
    row = [f_entry(r, j) for j in range(limit + 1)]
    start = next((j for j, v in enumerate(row) if v), None)
    if start is None:
        return []
    seq: list[int] = []
    for v in row[start:]:
        if not v:
            break
        seq.append(v)
    return seq
