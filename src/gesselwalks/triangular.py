"""The packed triangular system behind the boundary walk counts: diagonal
ordering, forward substitution, Hessenberg determinant windows, chain-sum
inversion, and the universal row segments.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .exact import binom_general
from .walks import f_entry

__all__ = [
    "rho",
    "rho_inv",
    "RHS_INDEX",
    "boundary_index",
    "origin_index",
    "coefficient_c",
    "system_entry",
    "system_rhs",
    "TriSystem",
    "solve_forward",
    "HessenbergMatrix",
    "hessenberg_for",
    "hessenberg_minors",
    "hessenberg_det",
    "gessel_via_determinant",
    "inverse_entry_multisum",
    "universal_sequence",
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


class TriSystem(NamedTuple):
    """Solved prefix of the infinite packed system A x = b."""

    k_max: int
    x: tuple[int, ...]


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


def solve_forward(k_max: int) -> TriSystem:
    """Forward substitution on the unit-lower-triangular packed system.

    Row (u, v) visits only the nonzero coefficients: for each column i that
    ``_admitted_columns`` admits, it walks the solved nonzero unknowns
    x(i, j), kept per i in ascending j, up to j_max.  The index is built
    from the values as they are computed, so it assumes nothing about where
    the solution is nonzero.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    x: list[int] = []
    found: dict[int, list[tuple[int, int]]] = {}  # i -> [(j, k)] with x(k) != 0
    for n in range(k_max + 1):
        u, v = rho_inv(n)
        acc = system_rhs(n)
        # unknowns at or after n are not in the index yet, so the diagonal
        # (i, j) = (u, v) is never visited here
        for i, j_max in _admitted_columns(u, v):
            for j, k in found.get(i, ()):
                if j > j_max:
                    break
                if j:  # the rule admits 1 <= j only
                    acc -= coefficient_c(u, v, i, j) * x[k]
        x.append(acc)
        if acc:
            found.setdefault(u, []).append((v, n))
    return TriSystem(k_max, tuple(x))


class HessenbergMatrix(NamedTuple):
    """Lower-Hessenberg integer matrix with unit superdiagonal and zeros
    above it."""

    size: int
    entries: tuple[tuple[int, ...], ...]

    def entry(self, r: int, c: int) -> int:
        return self.entries[r][c]

    def well_formed(self) -> bool:
        for r, row in enumerate(self.entries):
            for c in range(r + 1, self.size):
                if row[c] != (1 if c == r + 1 else 0):
                    return False
        return True


def hessenberg_for(k: int) -> HessenbergMatrix:
    """The determinant window for solution entry k: rows RHS_INDEX+1 .. k
    and columns RHS_INDEX .. k-1 of the packed matrix, a square block of
    size k - RHS_INDEX.

    Expanding the last column of the Cramer matrix for x(k) along its one
    nonzero entry leaves this window times a unit triangle, so
    det = x(k) * (-1)^(k - RHS_INDEX).  The sign is +1 at every index k
    used for the origin counts, since those k are even.

    Each row is filled from the unit diagonal of the packed matrix (the
    window's superdiagonal) and the cells ``_admitted_columns`` admits left
    of it; every other cell is zero and is never visited.
    """
    if k < RHS_INDEX:
        raise ValueError(f"k must be at least rho(1,1) = {RHS_INDEX}, got {k}")
    width = k - RHS_INDEX
    rows = []
    for n in range(RHS_INDEX + 1, k + 1):
        u, v = rho_inv(n)
        row = [0] * width
        if n < k:
            row[n - RHS_INDEX] = 1  # the unit diagonal of the packed matrix
        # admitted cells have i, j >= 1, so rho(i, j) >= rho(1, 1) = RHS_INDEX
        for i, j_max in _admitted_columns(u, v):
            for j in range(1, j_max + 1):
                c_abs = rho(i, j)
                if c_abs < n:
                    row[c_abs - RHS_INDEX] = coefficient_c(u, v, i, j)
        rows.append(tuple(row))
    return HessenbergMatrix(width, tuple(rows))


def hessenberg_minors(h: HessenbergMatrix) -> list[int]:
    """Leading minors d_0, ..., d_size by the recurrence, O(size^2) products:

        d_r = sum over c < r of (-1)^(r-1-c) * entry(r-1, c) * d_c,  d_0 = 1.

    The unit superdiagonal collapses the cofactor expansion of the last row
    of each leading block to this form.  The window of a smaller index is a
    leading block of a larger one, so one window holds the dets of both.
    """
    minors = [1]
    for r in range(1, h.size + 1):
        row = h.entries[r - 1]
        acc = 0
        for c in range(r):
            e = row[c]
            if e:
                term = e * minors[c]
                acc += term if (r - 1 - c) % 2 == 0 else -term
        minors.append(acc)
    return minors


def hessenberg_det(h: HessenbergMatrix) -> int:
    """Determinant, the last leading minor (1 for the empty matrix)."""
    return hessenberg_minors(h)[-1]


def gessel_via_determinant(n: int) -> int:
    """Origin count F(2n; 0, 0) as a Hessenberg determinant at index
    ``origin_index(n)``.  n = 0 gives the empty window, determinant 1."""
    return hessenberg_det(hessenberg_for(origin_index(n)))


def inverse_entry_multisum(
    k: int,
    m: int,
    entries: Callable[[int, int], int],
    max_span: int = 16,
) -> int:
    """Entry (k, m), k > m, of the inverse of a unit-lower-triangular matrix
    as a signed sum over strictly increasing index chains from m to k:

        sum over chains m = l_0 < l_1 < ... < l_j = k of
        (-1)^j * prod entries(l_t, l_{t-1}).

    The chain count grows like 2^(k-m-1), so spans beyond max_span are
    refused rather than silently exploding.  Each entry below the diagonal
    is read once, and the chains walk only the nonzero ones.
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
