"""Ground-truth enumeration of quarter-plane walks with steps E, W, NE, SW.

``count_walks`` is the oracle the rest of the package is measured against: a
dynamic program over the step recurrence

    F(m; n1, n2) = F(m-1; n1+1, n2) + F(m-1; n1-1, n2)
                 + F(m-1; n1+1, n2+1) + F(m-1; n1-1, n2-1)

with F(0; n1, n2) = [n1 = n2 = 0] and zero outside the quadrant.  Each layer
packs column n1 into one Python int with F(m; n1, n2) in the W-bit slot at
offset W*n2 (Kronecker substitution); W >= 2*m + 4 exceeds the bit length of
any count of layer m (at most 4^m), so the four-term step becomes four
big-int operations per column with no carry between slots.  Layer m holds
0.75 to 0.95 m^3 bits, as its slots are up to 25% wider than they need.
This module is the one home of that packed-slot codec: columns are decoded
in bulk, by one ``struct.unpack`` and one ``map(int.from_bytes, ...)``
each (``_unpack``), widened by ``_widen``, and packed ints whose slots are
signed, as the series checks build them, are packed by ``_pack_signed``
and decoded by ``_unpack_signed``.

Four shapes of dp share that one step; the first two also share one rule
for widening slots (``_grow``), the last two one statement of the cone of
cells that can still reach a goal (``_cone``).  The memo, ``WalkTable``,
keeps the axis cells of each layer, all its callers read: the one shared
behind ``count_walks``, and the root check's own.  The stream, ``layers``,
holds two layers and yields each one packed, at the widths ``_grow`` picks
or at one fixed width; the kernel and H checks read its packed z-columns
as they are, and ``columns`` unpacks each nonzero column from it for the
whole-table readers (``table`` export, ``build_G``).  The cone,
``counts_along``, follows one target (n1, n2) from two layers at one width
and returns F(t; n1, n2) for every t up to m, for the suites that read
every t.  The meet, ``count_meet``, answers F(m; n1, n2) alone from two
passes of half the depth and half the slot width, one from the origin and
one back from the target.  Also here: the shortest-walk closed forms and
the boundary transform's packed matrix.
"""

from __future__ import annotations

import math
import struct
import threading
from itertools import chain, count, islice, repeat
from operator import mul

TYPE_CHECKING = False  # true to type checkers; set here so a run needs no typing
if TYPE_CHECKING:
    from typing import Iterator

__all__ = [
    "reachable",
    "count_walks",
    "counts_along",
    "count_meet",
    "layers",
    "columns",
    "shortest_walk",
    "f_tilde",
    "f_entry",
    "WalkTable",
    "shared_table",
]

# (slot width W, columns): F(m; n1, n2) is bits [W*n2, W*n2 + W) of column n1
Layer = tuple[int, list[int]]


def reachable(m: int, n1: int, n2: int) -> bool:
    """Support conditions for a nonzero count: parity m = n1 (mod 2),
    0 <= n1 <= m, and the cone bound 2*n2 <= n1 + m.

    These are necessary; within the quadrant they are also sufficient, which
    the test suite checks empirically rather than assuming.
    """
    return (
        m >= 0
        and 0 <= n1 <= m
        and 0 <= n2
        and (m - n1) % 2 == 0
        and 2 * n2 <= n1 + m
    )


def _slot_width(m: int) -> int:
    """Slot width in bits for layers up to m: at least 2*m + 4, rounded up to
    whole bytes so columns unpack through ``int.to_bytes``."""
    return (2 * m + 4 + 7) // 8 * 8


def _chunks(column: int, size: int) -> tuple[bytes, ...]:
    """The slots of a packed column as ``size``-byte little-endian chunks,
    lowest first, up to its top nonzero one: one ``struct.unpack``."""
    n = -(-column.bit_length() // (8 * size))
    return struct.unpack("<" + f"{size}s" * n, column.to_bytes(n * size, "little"))


def _unpack(column: int, width: int) -> list[int]:
    """The slots of a packed column, lowest n2 first, ending at its top
    nonzero slot."""
    return list(map(int.from_bytes, _chunks(column, width // 8), repeat("little")))


def _bias(width: int, n: int) -> int:
    """2^(width-1) in each of n slots: the bias of signed slots."""
    return int.from_bytes((1 << (width - 1)).to_bytes(width // 8, "little") * n, "little")


def _unpack_signed(v: int, width: int, n: int) -> list[int]:
    """Slots 0..n-1 of a packed int whose slots are signed, each within
    +-2^(width-1): every slot is biased by 2^(width-1), so the n slots
    unpack unsigned and none of them is 0, and the bias is taken off again.
    Slots from n up are dropped."""
    half = 1 << (width - 1)
    return [s - half for s in _unpack((v + _bias(width, n)) & ~(-1 << width * n), width)]


def _pack_signed(values: list[int], width: int) -> int:
    """The packed int whose slot i holds values[i], signed, each within
    +-2^(width-1): the inverse of ``_unpack_signed``.  Each slot is packed
    biased, as one chunk of bytes, and the bias is taken off the whole."""
    half = 1 << (width - 1)
    data = b"".join((v + half).to_bytes(width // 8, "little") for v in values)
    return int.from_bytes(data, "little") - _bias(width, len(values))


def _widen(column: int, width: int, wider: int) -> int:
    """A packed column repacked at a width of at least its own: ``struct``
    pads each chunk with zero bytes, so no slot becomes an int."""
    chunks = _chunks(column, width // 8)
    return int.from_bytes(struct.pack("<" + f"{wider // 8}s" * len(chunks), *chunks), "little")


def _step(
    prev: list[int], width: int, columns: range, rows: int | None = None
) -> list[int]:
    """Layer t of the step recurrence from layer t - 1, whose columns are prev.

    Only the columns in ``columns`` are computed and the others are 0; with
    ``rows`` given, each computed column keeps only its slots n2 < rows.
    """
    # cur[n1] = a + (a >> W) + b + (b << W) with a = prev[n1+1], b = prev[n1-1],
    # as x + (x >> W); padded[i] is prev[i - 1], 0 beyond its ends
    padded = [0, *prev, 0, 0]
    cur = [0] * (len(prev) + 1)
    for n1 in columns:
        x = padded[n1 + 2] + (padded[n1] << width)
        cur[n1] = x + (x >> width)
    if rows is not None:
        mask = (1 << (width * rows)) - 1
        for n1 in columns:
            cur[n1] &= mask
    return cur


def _grow(width: int, layer: list[int], m: int) -> Iterator[Layer]:
    """Layers m + 1, m + 2, ... of the step recurrence from layer m, whose
    columns are ``layer`` at slot width ``width``.  A layer t that needs
    wider slots is built on the newest layer repacked to the width of layer
    5t/4, so widths grow geometrically (O(log t) repacks) and each layer is
    at most about 25% wider than it needs."""
    for t in count(m + 1):
        if width < 2 * t + 4:
            wider = _slot_width(t + t // 4)
            layer = [_widen(c, width, wider) for c in layer]
            width = wider
        layer = _step(layer, width, range(t % 2, t + 1, 2))
        yield width, layer


class WalkTable:
    """F(m; n1, 0), slot 0 of each column, and F(m; 0, n2), column 0
    unpacked, for 0 <= m <= m_max: the axis memo behind ``count_walks``;
    ``value`` refuses interior cells.  ``extend`` grows it by ``_grow`` from
    the one live layer kept, recorded after the axes so a cut run regrows it.

    A count of layer m is below 4^m, and layer m has at most m/2 + 1
    nonzero cells on each axis, none in column 0 when m is odd: the axes
    hold at most about m_max^3/2 bits in all (0.37 m_max^3 at m_max = 298).
    The live layer kept besides is layer m_max whole: about 0.75 to 0.95
    m_max^3 bits, as ``_grow`` pads its slots (0.76 m_max^3 at m_max = 298,
    0.93 at 598), more than the axes hold.  ``universal --i`` reads to
    m = 2i - 2, and no bound caps i.

    Construction is single-writer under ``count_walks``'s lock, since the
    library can be called from threads; a built table may be read from any
    number of threads.
    """

    def __init__(self, m_max: int = 0) -> None:
        self._axes: list[tuple[list[int], list[int]]] = [([1], [1])]
        self._top: tuple[int, int, list[int]] = (0, _slot_width(0), [1])
        self.extend(m_max)

    @property
    def m_max(self) -> int:
        return self._top[0]

    def extend(self, m_max: int) -> None:
        """Grow the table to m_max layers; a no-op if it is already there."""
        m, width, layer = self._top
        grown = islice(_grow(width, layer, m), max(0, m_max - m))
        for m, (width, layer) in enumerate(grown, m + 1):
            slot = (1 << width) - 1
            self._axes[m:] = [([c & slot for c in layer], _unpack(layer[0], width))]
            self._top = m, width, layer

    def value(self, m: int, n1: int, n2: int) -> int:
        if not 0 <= m <= self.m_max:
            raise ValueError(f"layer {m} not in table (m_max={self.m_max})")
        if not 0 <= n1 <= m or n2 < 0:
            return 0
        if n1 and n2:
            raise ValueError(f"({n1}, {n2}) is off the axes, which are all the table keeps")
        row, col = self._axes[m]
        return row[n1] if not n2 else col[n2] if n2 < len(col) else 0


def layers(m_max: int, width: int | None = None) -> Iterator[Layer]:
    """Layers 0..m_max of the step recurrence, each packed as (slot width,
    columns), from a pass that holds two layers.

    Without a width the slots widen as ``_grow`` rules.  A width of at
    least ``_slot_width(m_max)`` is never widened, so every layer comes at
    that width.  A negative m_max gives no layer, as ``columns`` gives no
    column.
    """
    if m_max < 0:
        return iter(())
    first = (_slot_width(0) if width is None else width, [1])
    return chain([first], islice(_grow(*first, 0), m_max))


def columns(m_max: int) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (m, n1, counts) for every nonzero column of layers 0..m_max,
    sorted, from a pass that holds two layers: m = n1 (mod 2), and
    counts[n2] = F(m; n1, n2) for n2 = 0..(n1 + m) // 2, every slot nonzero.
    A negative m_max gives no column.
    """
    for m, (width, layer) in enumerate(layers(m_max)):
        for n1, column in enumerate(layer):
            if column:
                yield m, n1, _unpack(column, width)


def _cone(
    m: int, start: tuple[int, int], goal: tuple[int, int], width: int
) -> Iterator[list[int]]:
    """Layers t = 0..m of the step recurrence from one walk at ``start``,
    each computed only on the cells that can still reach ``goal`` by step m.

    A step moves n1 by exactly 1 and n2 by at most 1, and a step down (SW)
    also moves one column left.  So a cell (c, r) of layer t can reach
    (g1, g2) by step m only if |c - g1| <= m - t and
    r - g2 <= (m - t + c - g1) / 2.  Those cells form a cone, and the cells
    any cone cell reads lie in the cone of the layer before.  Each layer
    computes only the columns within m - t of g1 that the start reaches, and
    cuts them all at the row bound of the rightmost one.  Every cone cell is
    then exact; a cell outside the cone is at most its true count, so it is
    nonzero only where the start reaches it.  Walks read backwards are walks
    again (the steps are closed under negation), so the same bounds prune a
    pass from the target toward the origin.
    """
    (s1, s2), (g1, g2) = start, goal
    layer = [0] * s1 + [1 << (width * s2)]
    yield layer
    for t in range(1, m + 1):
        left = m - t
        lo = max(0, s1 - t, g1 - left)
        lo += (lo - s1 - t) % 2  # columns of the wrong parity are 0
        hi = min(s1 + t, g1 + left)
        top = g2 + (left + hi - g1) // 2
        cut = top + 1 if top < s2 + (t + hi - s1) // 2 else None
        layer = _step(layer, width, range(lo, hi + 1, 2), cut)
        yield layer


def counts_along(m: int, n1: int, n2: int) -> list[int]:
    """[F(t; n1, n2) for t = 0..m] from one pass that holds two layers.

    The pass runs from the origin at the slot width of layer m over the
    cells that can still reach (n1, n2) by step m (``_cone``), so the
    target lies in the cone at every t.  Targets no walk of at most m steps
    reaches give zeros without a pass.
    """
    if not (reachable(m, n1, n2) or reachable(m - 1, n1, n2)):
        return [0] * (m + 1)
    width = _slot_width(m)
    slot = (1 << width) - 1
    return [
        (layer[n1] >> (width * n2)) & slot if n1 < len(layer) else 0
        for layer in _cone(m, (0, 0), (n1, n2), width)
    ]


def count_meet(m: int, n1: int, n2: int) -> int:
    """F(m; n1, n2) from two passes of half the depth that meet at layer
    h = m // 2.

    Reading a walk backwards gives a walk again, so
    F(m; T) = sum over c of F(h; c) * R(m - h; c), where R(s; c) counts the
    s-step quadrant walks from T to c, and at the origin
    F(2h; 0, 0) = sum over c of F(h; c)^2.  The forward pass runs h steps
    from the origin over the cells that can still reach T by step m, the
    backward pass m - h steps from T over the cells the origin reaches by
    step m (both ``_cone``), and the count is the per-column dot product of
    their last layers.  Every product is exact: a cell that one pass leaves
    nonzero is reached from its start, so it lies in the other pass's cone,
    where that pass is exact.  Both use the slot width of layer
    max(h, m - h), half that of a one-pass count.  Targets outside the
    support give 0 without a pass.
    """
    if not reachable(m, n1, n2):
        return 0
    h = m // 2
    width = _slot_width(m - h)  # the wider half: m - h >= h
    ahead = next(islice(_cone(m, (0, 0), (n1, n2), width), h, None))
    if n1 == n2 == 0:
        return sum(v * v for column in ahead for v in _unpack(column, width))
    back = next(islice(_cone(m, (n1, n2), (0, 0), width), m - h, None))
    return sum(
        sum(map(mul, _unpack(a, width), _unpack(b, width)))
        for a, b in zip(ahead, back) if a and b
    )


_shared = WalkTable(0)
_shared_lock = threading.Lock()


def count_walks(m: int, n1: int, n2: int) -> int:
    """Number of m-step quarter-plane walks from the origin to (n1, n2).

    Exact; axis cells are memoized, interior ones go to ``count_meet``.
    Arguments outside the support (negative coordinates, parity mismatch,
    points beyond the cone) return 0 without growing the shared table.
    """
    if not reachable(m, n1, n2):
        return 0
    if n1 and n2:
        return count_meet(m, n1, n2)
    if m > _shared.m_max:
        with _shared_lock:
            _shared.extend(m)
    return _shared.value(m, n1, n2)


def shared_table() -> WalkTable:
    """The process-wide axis memo behind ``count_walks``."""
    return _shared


def shortest_walk(n1: int, n2: int) -> tuple[int, int]:
    """Length of the shortest walk to (n1, n2) and the number of walks of
    that length.

    For n1 >= n2 the shortest walks have length n1 and number C(n1, n2);
    for n1 <= n2 they have length 2*n2 - n1 and number
    (n1+1)/(2*n2-n1+1) * C(2*n2-n1+1, n2+1).  The branches agree on the
    diagonal.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("target must lie in the quadrant")
    if n1 >= n2:
        return n1, math.comb(n1, n2)
    length = 2 * n2 - n1
    count, rem = divmod((n1 + 1) * math.comb(length + 1, n2 + 1), length + 1)
    if rem:  # the ballot-style count is always integral
        raise AssertionError("non-integral shortest-walk count")
    return length, count


def f_tilde(m: int, n1: int, n2: int) -> int:
    """Coefficients of the boundary-supported transform of the walk series.

    Zero off the axes; on the axes a one-step shift of the plain counts:
    f_tilde(m, n1, 0) = F(m-1; n1, 0) and
    f_tilde(m, 0, n2) = F(m-1; 0, n2) + F(m-1; 0, n2-1).
    In particular f_tilde(0, ., .) = 0 and f_tilde(2n+1, 0, 0) = F(2n; 0, 0).
    """
    if m < 0 or n1 < 0 or n2 < 0:
        raise ValueError("f_tilde needs nonnegative arguments")
    if n1 and n2:
        return 0
    if n2 == 0:
        return count_walks(m - 1, n1, 0)
    return count_walks(m - 1, 0, n2) + count_walks(m - 1, 0, n2 - 1)


def f_entry(i: int, j: int) -> int:
    """Entry (i, j) of the packed boundary matrix: f_tilde(m; i-m, j-m) with
    m = min(i, j), the axis cell whose unknown is rho(i, j) (the inverse of
    ``triangular.boundary_index``).  Above the diagonal row i holds the
    vertical-axis values, below it column j the horizontal-axis ones.
    """
    if i < 0 or j < 0:
        raise ValueError("f_entry needs nonnegative indices")
    m = min(i, j)
    return f_tilde(m, i - m, j - m)
