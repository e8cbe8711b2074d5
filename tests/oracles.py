"""Frozen expected values and independent oracles shared by the tests.

The frozen tables were fixed before the library was written and are never
regenerated from it.  The oracle functions recompute the same quantities by
a different route than the library uses (plain enumeration instead of the
layered dynamic program, cofactor expansion instead of the minor
recurrence, dense forward substitution instead of chain sums), so an
agreement is evidence and not a tautology.
"""

from fractions import Fraction

# F(2n; 0, 0) for n = 0..16
GESSEL_NUMBERS = (
    1,
    2,
    11,
    85,
    782,
    8004,
    88044,
    1020162,
    12294260,
    152787976,
    1946310467,
    25302036071,
    334560525538,
    4488007049900,
    60955295750460,
    836838395382645,
    11597595644244186,
)

# Upper-left 14x14 block of the packed boundary matrix f
F_MATRIX_14 = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 2, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 5, 11, 19, 10, 2, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 9, 37, 85, 158, 103, 35, 5, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 14, 87, 332, 782, 1521, 1126, 499, 126),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 20, 172, 911, 3343, 8004, 16056, 12941),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 27, 305, 2096, 10147, 36350, 88044),
)

# The 20x20 determinant window whose determinant is F(2; 0, 0) = 2
H24_ROWS = (
    (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (-1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0),
    (-1, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    (-1, 0, 0, 0, 1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 1),
    (1, 0, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0, 0),
)

UNIVERSAL_SEQUENCES = {
    1: (1, 1),
    2: (1, 2, 3, 1),
    3: (1, 5, 11, 19, 10, 2),
    4: (1, 9, 37, 85, 158, 103, 35, 5),
    5: (1, 14, 87, 332, 782, 1521, 1126, 499, 126, 14),
    6: (1, 20, 172, 911, 3343, 8004, 16056, 12941, 6765, 2296, 462, 42),
    7: (1, 27, 305, 2096, 10147, 36350, 88044, 180621, 154750,
        90681, 37178, 10254, 1716, 132),
    8: (1, 35, 501, 4300, 25927, 118472, 417565, 1020162,
        2128824, 1910006, 1217523, 570409, 193137, 44913, 6435, 429),
}

STEPS = ((1, 0), (-1, 0), (1, 1), (-1, -1))


def brute_count(m, n1, n2):
    """Walk count by explicit enumeration of step sequences.

    No table, no recurrence: the walk tree is searched directly, pruning
    only on leaving the quadrant.  Usable for m up to about 12.
    """
    def go(steps_left, x, y):
        if steps_left == 0:
            return 1 if (x, y) == (n1, n2) else 0
        total = 0
        for dx, dy in STEPS:
            nx, ny = x + dx, y + dy
            if nx >= 0 and ny >= 0:
                total += go(steps_left - 1, nx, ny)
        return total

    return go(m, 0, 0)


def cofactor_det(rows):
    """Determinant by literal cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for c in range(n):
        if not rows[0][c]:
            continue
        minor = [
            [row[cc] for cc in range(n) if cc != c] for row in rows[1:]
        ]
        term = rows[0][c] * cofactor_det(minor)
        total += term if c % 2 == 0 else -term
    return total


def gauss_det(rows):
    """Determinant by dense Gaussian elimination over Fraction."""
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] / m[col][col]
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    det = Fraction(sign)
    for i in range(n):
        det *= m[i][i]
    assert det.denominator == 1
    return det.numerator


def unit_lower_inverse(rows):
    """Inverse of a unit-lower-triangular integer matrix by forward
    substitution, column by column."""
    n = len(rows)
    inv = [[0] * n for _ in range(n)]
    for col in range(n):
        for r in range(n):
            if r < col:
                continue
            acc = 1 if r == col else 0
            for k in range(col, r):
                acc -= rows[r][k] * inv[k][col]
            inv[r][col] = acc
    return inv


def dense_rows(rows):
    """The dense rows of a lower-Hessenberg window given as ``hessenberg_for``
    yields it: row r's cells (c, value) over a unit superdiagonal, zeros
    elsewhere.  A cell on or right of the superdiagonal overwrites it, which
    ``well_formed`` then reports."""
    rows = list(rows)
    dense = []
    for r, cells in enumerate(rows):
        row = [0] * len(rows)
        if r + 1 < len(rows):
            row[r + 1] = 1
        for c, value in cells:
            row[c] = value
        dense.append(tuple(row))
    return tuple(dense)


def sparse_rows(dense):
    """Each dense row's nonzero cells (c, value) left of the superdiagonal,
    the form ``hessenberg_det`` reads."""
    return [[(c, v) for c, v in enumerate(row[: r + 1]) if v] for r, row in enumerate(dense)]


def well_formed(dense):
    """Whether dense rows are lower-Hessenberg with a unit superdiagonal:
    1 at (r, r + 1) and 0 right of it."""
    return all(
        row[c] == (1 if c == r + 1 else 0)
        for r, row in enumerate(dense)
        for c in range(r + 1, len(dense))
    )
