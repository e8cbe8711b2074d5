"""Expected outputs for the benchmark, computed with the standard library only.

Nothing here imports ``gesselwalks``: the counts come from a small rolling
recurrence over per-column lists, cross-checked at the origin against a
re-implemented closed form, so a wrong answer from the program under test
cannot also become the expectation it is checked against.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


def _pad(values: list[int], lead: int, size: int) -> list[int]:
    out = [0] * lead + values[: max(size - lead, 0)]
    return out + [0] * (size - len(out))


def walk_layers(m_max: int):
    """Yield (m, columns) for m = 0 .. m_max, keeping one layer at a time.

    ``columns[n1]`` lists F(m; n1, n2) for n2 = 0 .. (n1 + m) // 2 and exists
    only for n1 = m (mod 2), 0 <= n1 <= m.  The step recurrence is

        F(m; n1, n2) = F(m-1; n1+1, n2) + F(m-1; n1+1, n2+1)
                     + F(m-1; n1-1, n2) + F(m-1; n1-1, n2-1).
    """
    columns: dict[int, list[int]] = {0: [1]}
    yield 0, columns
    for m in range(1, m_max + 1):
        prev = columns
        columns = {}
        for n1 in range(m % 2, m + 1, 2):
            size = (n1 + m) // 2 + 1
            a = prev.get(n1 + 1, [])
            b = prev.get(n1 - 1, [])
            columns[n1] = [
                w + x + y + z
                for w, x, y, z in zip(
                    _pad(a, 0, size), _pad(a[1:], 0, size),
                    _pad(b, 0, size), _pad(b, 1, size),
                )
            ]
        yield m, columns


def rho(i: int, j: int) -> int:
    """Diagonal packing of the boundary system's unknowns: C(i+j+1, 2) + j."""
    return (i + j + 1) * (i + j) // 2 + j


def origin_rows(k_max: int) -> int:
    """How many origin counts F(2n; 0, 0) lie at packed indices <= k_max."""
    n = 0
    while rho(2 * n + 1, 2 * n + 1) <= k_max:
        n += 1
    return n


def origin_closed_form(n_max: int) -> list[int]:
    """F(2n; 0, 0) for n = 0 .. n_max from 16^n (1/2)_n (5/6)_n / ((2)_n (5/3)_n),
    stepped by its term ratio 4(2n+1)(6n+5) / ((n+2)(3n+5))."""
    values = [1]
    for n in range(n_max):
        q, r = divmod(values[-1] * 4 * (2 * n + 1) * (6 * n + 5), (n + 2) * (3 * n + 5))
        if r:
            raise ArithmeticError(f"origin closed form is not integral at n={n + 1}")
        values.append(q)
    return values


class Reference:
    """Counts F(m; n1, n2) for requested targets and sha256 digests of the
    ``table`` export, all from one pass of ``walk_layers``."""

    def __init__(self, targets, tables) -> None:
        """targets: iterable of (m, n1, n2); tables: iterable of (fmt, m_max)."""
        self.counts: dict[tuple[int, int, int], int] = {}
        self.tables: dict[tuple[str, int], tuple[int, str]] = {}
        targets = set(targets)
        tables = sorted(set(tables))
        m_top = max([t[0] for t in targets] + [m for _, m in tables] + [0])
        wanted: dict[int, list[tuple[int, int]]] = {}
        for m, n1, n2 in targets:
            wanted.setdefault(m, []).append((n1, n2))
        hashers = {key: hashlib.sha256() for key in tables}
        records = dict.fromkeys(tables, 0)
        for key in tables:
            if key[0] == "csv":
                hashers[key].update(b"m,n1,n2,F\r\n")
        origin = []
        for m, columns in walk_layers(m_top):
            if m % 2 == 0:
                origin.append(columns[0][0])
            for n1, n2 in wanted.get(m, ()):
                col = columns.get(n1)
                self.counts[(m, n1, n2)] = col[n2] if col and 0 <= n2 < len(col) else 0
            live = [key for key in tables if key[1] >= m]
            if not live:
                continue
            json_lines, csv_lines = [], []
            for n1, col in sorted(columns.items()):
                for n2, value in enumerate(col):
                    if value:
                        json_lines.append(f'{{"m": {m}, "n1": {n1}, "n2": {n2}, "F": "{value}"}}\n')
                        csv_lines.append(f"{m},{n1},{n2},{value}\r\n")
            json_chunk = "".join(json_lines).encode()
            csv_chunk = "".join(csv_lines).encode()
            for key in live:
                hashers[key].update(csv_chunk if key[0] == "csv" else json_chunk)
                records[key] += len(json_lines)
        if origin != origin_closed_form(len(origin) - 1):
            raise ArithmeticError("reference recurrence disagrees with the origin closed form")
        self.origin = origin
        for key in tables:
            self.tables[key] = (records[key], hashers[key].hexdigest())

    def count(self, m: int, n1: int, n2: int) -> int:
        return self.counts[(m, n1, n2)]


def rising(q: Fraction | int, n: int) -> Fraction:
    out = Fraction(1)
    for s in range(n):
        out *= Fraction(q) + s
    return out


# Claimed degree of each fitted family member, as stated in the paper.
FIT_DEGREE = {
    "p": lambda k: 2 * k - 2,
    "q": lambda k: 2 * k,
    "r": lambda k: 2 * k - 1,
    "s": lambda k: 2 * k,
    "rt": lambda k: 2 * k + 1,
}


def fit_points(family: str, k: int, n: int) -> list[tuple[int, int, int]]:
    """Targets ``fit_value`` needs for (family, k) at n."""
    if family == "s":
        return [(n + 2 * k, n, 0)]
    if family == "r":
        return [(2 * n + 2 * k, 0, n)]
    if family == "rt":
        m = 2 * n + 2 * k
        return [(m, 0, n)] + ([(m, 0, n - 1)] if n else [])
    return []


def fit_value(ref: Reference, family: str, k: int, n: int) -> Fraction | None:
    """The value the family polynomial must take at n, with the ansatz
    prefactor divided out; None for the jointly fitted p/q pair."""
    if family == "s":
        return Fraction(ref.count(n + 2 * k, n, 0))
    if family == "r":
        return (ref.count(2 * n + 2 * k, 0, n) * rising(k + 2, n)
                / (4**n * rising(Fraction(3, 2), n)))
    if family == "rt":
        m = 2 * n + 2 * k
        boundary = ref.count(m, 0, n) + (ref.count(m, 0, n - 1) if n else 0)
        return boundary * rising(k + 2, n) / (4**n * rising(Fraction(1, 2), n))
    return None
