"""Truncated trivariate power series over exact integers, and the
functional-equation checks built on them.

A series is a sparse map from exponent triples (ex, ey, ez) to nonzero int
coefficients, truncated at per-variable caps.  x marks the step count, y the
horizontal coordinate, z the vertical coordinate of the walk series.

The kernel and H checks build no series.  They compare their two sides one
(m, n1) z-column at a time, each column one int whose W-bit slot b holds
the coefficient of x^m y^n1 z^b, as the dp packs its layers (``walks``).
A product by z is then a shift by W, so the five kernel terms cost a few
shifts and adds per column, and a column matches when the difference of
its two sides, masked to the window's z slots, is 0.  Slots are signed, so
W must keep every slot of either side within +-2^(W-1), and so of their
difference within +-2^W, which the masked test needs: W =
``walks._slot_width(wx + 1)`` for a window of x extent wx (counts of layer
m are at most 4^m, a slot of K*G at most 2*4^m).  The root check packs the
other way: one row per z exponent ez, whose signed W-bit slot ey holds
y^ey z^ez, at the W that ``verify_root_identity`` proves.

The three checks read only the dp stream (``walks.layers``).  Each returns
a ``pipelines.CheckReport`` of the window's exponents (``compared``), those
where either side is nonzero, and ``caps`` and ``window`` as its detail.
The dict layer above them (``TruncSeries3`` to ``substitute_x``) serves
the tests' references and the benchmark's traced lookups.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping
from itertools import zip_longest

from . import walks
from .pipelines import CheckReport

TYPE_CHECKING = False  # true to type checkers; set here so a run needs no typing
if TYPE_CHECKING:
    from typing import Iterable

__all__ = [
    "TruncSeries3", "make_series", "monomial", "bump_coeff", "series_add",
    "series_mul", "build_G", "build_K", "build_H", "x_of_yz", "substitute_x",
    "verify_kernel_equation", "verify_H_equation", "verify_root_identity",
]

Caps = tuple[int, int, int]
Mono = tuple[int, int, int]


class TruncSeries3(namedtuple("TruncSeries3", "caps coeffs")):
    """Immutable truncated series: its ``caps`` and ``coeffs``, a dict from
    exponent triple to coefficient.  Invariants: every stored exponent is
    within the caps and every stored coefficient is nonzero; construction
    goes through ``make_series`` which enforces both."""

    __slots__ = ()

    def coeff(self, mono: Mono) -> int:
        return self.coeffs.get(mono, 0)


def make_series(
    caps: Caps, items: Mapping[Mono, int] | Iterable[tuple[Mono, int]]
) -> TruncSeries3:
    """Normalize items into a series: accumulate duplicates, drop zeros and
    anything beyond the caps."""
    dx, dy, dz = caps
    if isinstance(items, Mapping):
        items = items.items()
    clean: dict[Mono, int] = {}
    for (ex, ey, ez), c in items:
        if ex < 0 or ey < 0 or ez < 0:
            raise ValueError(f"negative exponent in {(ex, ey, ez)}")
        if not c or ex > dx or ey > dy or ez > dz:
            continue
        key = (ex, ey, ez)
        acc = clean.get(key, 0) + c
        if acc:
            clean[key] = acc
        else:
            del clean[key]
    return TruncSeries3(caps, clean)


def monomial(caps: Caps, ex: int, ey: int, ez: int, coef: int = 1) -> TruncSeries3:
    return make_series(caps, {(ex, ey, ez): coef})


def bump_coeff(series: TruncSeries3, mono: Mono, delta: int = 1) -> TruncSeries3:
    """Copy of the series with one coefficient shifted by delta.  The
    negative controls bump the dp stream; the tests build their dict
    references for the same bump with this."""
    return make_series(series.caps, [*series.coeffs.items(), (mono, delta)])


def series_add(a: TruncSeries3, b: TruncSeries3) -> TruncSeries3:
    """Sum of two series sharing the same caps."""
    if a.caps != b.caps:
        raise ValueError(f"cap mismatch: {a.caps} vs {b.caps}")
    return make_series(a.caps, [*a.coeffs.items(), *b.coeffs.items()])


def series_mul(a: TruncSeries3, b: TruncSeries3) -> TruncSeries3:
    """Truncated product; the result caps are the componentwise minimum.

    Within the shared caps the product coefficients are exact, because a
    contribution to exponent e only involves operand exponents at most e.
    """
    return make_series(tuple(map(min, a.caps, b.caps)), (
        ((ax + bx, ay + by, az + bz), ac * bc)
        for (ax, ay, az), ac in a.coeffs.items() for (bx, by, bz), bc in b.coeffs.items()))


def build_G(caps: Caps) -> TruncSeries3:
    """Walk-count generating series up to the caps, read column by column
    from a dp pass over dx layers, each column cut to n1 <= dy and
    n2 <= dz before it is unpacked; every slot the stream yields is a
    nonzero count within the caps."""
    columns = walks.columns(*caps)
    return TruncSeries3(
        caps,
        {(m, n1, n2): v for m, n1, counts in columns for n2, v in enumerate(counts)},
    )


def build_K(caps: Caps) -> TruncSeries3:
    """Kernel polynomial x(1+z)(1+y^2 z) - yz; five monomials when the caps
    admit them all."""
    return make_series(
        caps,
        {(1, 0, 0): 1, (1, 0, 1): 1, (1, 2, 1): 1, (1, 2, 2): 1, (0, 1, 1): -1},
    )


def build_H(caps: Caps) -> TruncSeries3:
    """Boundary transform K*G + yz, G = ``build_G(caps)``; its coefficients
    vanish off the axes."""
    return series_add(series_mul(build_K(caps), build_G(caps)), monomial(caps, 0, 1, 1))


def _mismatch(mono: Mono, lhs: int, rhs: int) -> dict:
    """A check's first mismatch: its monomial, then both sides as strings."""
    return {"monomial": mono, "lhs": str(lhs), "rhs": str(rhs)}


def _kernel_check(suite: str, caps: Caps, sides) -> CheckReport:
    """Compare the two sides ``sides`` builds over the kernel window, one
    (m, n1) z-column at a time on packed ints.

    The kernel has degree 1 in x and 2 in both y (through y^2) and z, so
    the window drops that much from each cap; inside it both sides are
    determined exactly by the truncated data.  A term of either side
    inside the window reads only terms of G inside it, so the dp stream
    (``walks.layers``) is read to the window alone, at one slot width.  A
    window with a negative extent holds no exponent, so it is reported
    before any dp.

    G(m, n1) below is the packed column of layer m.  Column (m, n1) of
    x(1+z)G is G(m-1, n1)(1+z), and that of K*G adds
    G(m-1, n1-2)(z + z^2) - z G(m, n1-1); a product by z is a shift by one
    slot.  ``sides(n1, xg, kg, yz, axes)`` gets those two columns and that
    of yz (z in column (0, 1), else 0), and returns the column of each
    side; ``axes(n1, v)`` keeps the axis terms of column n1: all of column
    0, slot 0 of the others.
    """
    dx, dy, dz = caps
    window = wx, wy, wz = (dx - 1, dy - 2, dz - 2)
    detail = {"caps": caps, "window": window}
    if min(window) < 0:
        return CheckReport(suite, 0, 0, None, detail)
    width = walks._slot_width(wx + 1)
    z = 1 << width
    slot, half = z - 1, z >> 1
    mask = (1 << width * (wz + 1)) - 1

    def low(v: int) -> int:
        """Slot 0 of v, signed."""
        s = v & slot
        return s - z if s >= half else s

    def axes(n1: int, v: int) -> int:
        return v if n1 == 0 else low(v)

    def values(v: int) -> list[int]:
        """The signed slots of v in the window, up to its top nonzero one."""
        out: list[int] = []
        while v and len(out) <= wz:
            out.append(low(v))
            v = (v - out[-1]) >> width
        return out

    nonzero, first = 0, None
    prev: list[int] = []
    for m, (_, layer) in enumerate(walks.layers(wx, width)):
        for n1 in range(min(wy, len(layer)) + 1):
            g = prev[n1] if n1 < len(prev) else 0
            g2 = prev[n1 - 2] if 2 <= n1 < len(prev) + 2 else 0
            g1 = layer[n1 - 1] if n1 else 0
            xg = g + (g << width)
            kg = xg + ((g2 + (g2 << width) - g1) << width)
            lhs, rhs = sides(n1, xg, kg, z if m == 0 and n1 == 1 else 0, axes)
            if (lhs - rhs) & mask:
                pairs = list(zip_longest(values(lhs), values(rhs), fillvalue=0))
                nonzero += sum(1 for pair in pairs if any(pair))
                if first is None:
                    n2 = next(n2 for n2, (lv, rv) in enumerate(pairs) if lv != rv)
                    first = _mismatch((m, n1, n2), *pairs[n2])
            elif -half < rhs < half:  # slot 0 alone, as off column 0
                nonzero += rhs != 0
            else:
                nonzero += sum(map(bool, values(rhs)))
        prev = layer
    return CheckReport(suite, math.prod(w + 1 for w in window), nonzero, first, detail)


def verify_kernel_equation(caps: Caps) -> CheckReport:
    """Check K*G = x(1+z)G(x,0,z) + xG(x,y,0) - xG(x,0,0) - yz, whose right
    side is the axis terms of x(1+z)G, minus yz, with G read from the dp
    stream up to the caps."""

    def sides(n1, xg, kg, yz, axes):
        return kg, axes(n1, xg) - yz

    return _kernel_check("kernel", caps, sides)


def verify_H_equation(caps: Caps) -> CheckReport:
    """Check H(x,y,z) = H(x,0,z) + H(x,y,0) - H(x,0,0), i.e. that every
    mixed monomial of H = K*G + yz (positive y and z exponents) vanishes,
    with G read from the dp stream up to the caps."""

    def sides(n1, xg, kg, yz, axes):
        h = kg + yz
        return h, axes(n1, h)

    return _kernel_check("hkernel", caps, sides)


def x_of_yz(caps: Caps) -> TruncSeries3:
    """Power-series root of the kernel in x:

        x(y, z) = yz / ((1+z)(1+y^2 z))
                = sum over a, b >= 0 of (-1)^(a+b) y^(2b+1) z^(a+b+1).

    Only odd powers of y occur.  The x cap of the result is 0; the x
    component of ``caps`` is ignored.
    """
    _, dy, dz = caps
    items: dict[Mono, int] = {}
    for b in range((dy + 1) // 2):
        ey = 2 * b + 1
        for a in range(dz - b):
            ez = a + b + 1
            items[(0, ey, ez)] = 1 if (a + b) % 2 == 0 else -1
    return TruncSeries3((0, dy, dz), items)


def substitute_x(series: TruncSeries3, x_series: TruncSeries3) -> TruncSeries3:
    """Substitute x_series (no constant term, no x dependence) for the x
    variable, by Horner over the x-grouped parts of ``series``."""
    if x_series.coeff((0, 0, 0)):
        raise ValueError("substitution needs a series with zero constant term")
    if any(ex for ex, _, _ in x_series.coeffs):
        raise ValueError("substitution needs a series with no x dependence")
    caps: Caps = (0, *x_series.caps[1:])
    acc = TruncSeries3(caps, {})
    for m in range(series.caps[0], -1, -1):
        part = [((0, ey, ez), c) for (ex, ey, ez), c in series.coeffs.items() if ex == m]
        acc = make_series(caps, [*series_mul(acc, x_series).coeffs.items(), *part])
    return acc


def _axis_terms(dy: int, wz: int) -> list[tuple[list[int], list[int]]]:
    """[(G(m; n1, 0) for n1 <= dy, G(m; 0, n2) for n2 <= wz)] for m < wz, as
    lists that may stop short of their caps: slot 0 of each column and
    column 0 of each layer of the dp stream (``walks.layers``), decoded in
    bulk; no other cell is unpacked."""
    return [([c & ~(-1 << width) for c in layer[:dy + 1]],
             walks._unpack(layer[0] & ~(-1 << width * (wz + 1)), width))
            for width, layer in walks.layers(wz - 1)]


def verify_root_identity(caps: Caps) -> CheckReport:
    """Substitute the kernel root for x in the boundary-transform sections
    and check that H(x(y,z),0,z) + H(x(y,z),y,0) - H(x(y,z),0,0) collapses
    to the single monomial yz.  The three sections add up to the axis
    terms of H = K*G + yz, and substitution is linear, so the root is
    substituted once.  G is read from the dp stream up to the caps.

    The axis terms of H are those of K*G (yz is off the axes) and read only
    the axis terms of G (``_axis_terms``): their x^m part A_m is G(m-1; n1, 0)
    at z^0 and G(m-1; 0, ez) + G(m-1; 0, ez-1) at y^0 z^ez.  The root r
    carries z in every term, so the sum of A_m r^m is exact for
    ez <= wz = min(dx, dz), the z window, and needs m <= wz alone.

    The sum is taken by Horner in x over rows: row ez is one int whose W-bit
    slot ey holds the coefficient of y^ey z^ez, signed.  A step times
    yz/((1+z)(1+y^2 z)) shifts row ez up a slot into row ez+1 (yz), divides
    by 1+z by a running subtraction down the rows and by 1+y^2 z by
    subtracting the quotient's row above shifted up two slots; then A_m's
    row z^0 is added whole and its column y^0 into slot 0.  The quotient is
    reduced modulo 2^(W(dy+1)), which drops the terms past y^dy and commutes
    with shifts and sums, so rows are decoded once, at the end, with 2^(W-1)
    added to each slot and taken off again to restore its sign.

    That is exact if every coefficient met is below 2^(W-1) in size.  One of
    A_k is at most 2B, B the largest axis term of G read; that of y^ey z^ez
    in r^j is C(j-1+a, a) C(j-1+b, b) with ey = j+2b and ez = j+a+b, at most
    2^(j+ez-2) <= 2^(dy+wz-2), or 1 for j = 0.  One of the sum adds at most
    N = (wz+1)(dy+wz+1) such products (wz+1 values of k, dy+wz+1 terms of
    A_k), so W = bits(2B) + bits(N) + dy + wz, in whole bytes, holds it.

    Every term of the substituted series has ey >= 1 and ez >= 1, so a
    window whose y or z extent is below 1 holds no nonzero term; it is
    reported before any dp.  The decoded rows are compared with yz term by
    term, in ascending (ey, ez).
    """
    dx, dy, dz = caps
    wz = min(dx, dz)
    detail = {"caps": caps, "window": (0, dy, wz)}
    size = max(0, dy + 1) * max(0, wz + 1)
    if min(dy, wz) < 1:
        return CheckReport("root", size, 0, None, detail)
    terms = _axis_terms(dy, wz)
    big = max((v for row, column in terms for v in (*row, *column)), default=0)
    bits = (2 * big).bit_length() + ((wz + 1) * (dy + wz + 1)).bit_length() + dy + wz
    width = -(-bits // 8) * 8
    nbytes, half = width // 8, 1 << (width - 1)
    mask = (1 << width * (dy + 1)) - 1  # the window's slots
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * (dy + 1), "little")

    rows = [0] * (wz + 1)
    for row, column in [*reversed(terms), ((), ())]:  # A_m for m = wz..0
        data = b"".join((v + half).to_bytes(nbytes, "little") for v in row)
        out = [int.from_bytes(data, "little") - (bias & ~(-1 << 8 * len(data)))]
        over = quotient = 0
        for ez in range(1, wz + 1):
            over = (rows[ez - 1] << width) - over  # yz * acc / (1+z)
            quotient = (over - (quotient << 2 * width)) & mask  # / (1+y^2 z)
            out.append(quotient + sum(column[ez - 1:ez + 1]))
        rows = out
    lhs = {(0, ey, ez): v - half
           for ez, row in enumerate(rows)
           for ey, v in enumerate(walks._unpack((row + bias) & mask, width)) if v != half}
    yz = (0, 1, 1)
    keys = sorted({*lhs, yz})
    first = next((_mismatch(k, lhs.get(k, 0), int(k == yz))
                  for k in keys if lhs.get(k, 0) != (k == yz)), None)
    return CheckReport("root", size, len(keys), first, detail)
