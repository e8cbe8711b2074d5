import math

import pytest
from hypothesis import given, settings, strategies as st

from gesselwalks import walks
from gesselwalks.exact import gessel_closed_form
from gesselwalks.walks import (
    WalkTable,
    _cone,
    _slot_width,
    _unpack,
    _widen,
    columns,
    count_meet,
    count_walks,
    counts_along,
    f_entry,
    f_tilde,
    layers,
    reachable,
    shortest_walk,
)
from oracles import F_MATRIX_14, GESSEL_NUMBERS, brute_count, catalan


def pack(slots, width):
    """Slots packed W bits apart, lowest first, by shifts."""
    column = 0
    for v in reversed(slots):
        column = (column << width) | v
    return column


def axis_cells(m_max):
    """(m, n1, n2) of every axis cell of layers 0..m_max in the support box,
    and of the ones just beyond it on each axis."""
    for m in range(m_max + 1):
        yield from ((m, n1, 0) for n1 in range(m + 2))
        yield from ((m, 0, n2) for n2 in range(1, m // 2 + 2))


def unpack_by_shifts(column, width):
    """The slots of a column up to its top nonzero one, by shift and mask."""
    slots = []
    while column:
        slots.append(column & ((1 << width) - 1))
        column >>= width
    return slots


class TestReachable:
    def test_examples(self):
        assert reachable(3, 1, 0)
        assert not reachable(3, 0, 0)  # parity
        assert not reachable(2, 0, 2)  # cone
        assert not reachable(2, 3, 0)  # too far east
        assert not reachable(1, -1, 0)

    def test_origin(self):
        assert reachable(0, 0, 0)
        assert not reachable(0, 0, 1)


class TestCountWalks:
    def test_base_cases(self):
        assert count_walks(0, 0, 0) == 1
        assert count_walks(0, 1, 0) == 0
        assert count_walks(2, 0, 0) == 2
        assert count_walks(4, 0, 0) == 11
        assert count_walks(2, 0, 1) == 1

    def test_gessel_sequence(self):
        for n, expected in enumerate(GESSEL_NUMBERS):
            assert count_walks(2 * n, 0, 0) == expected

    def test_against_brute_enumeration(self):
        # full check of every endpoint for small m against the step-tree oracle
        for m in range(9):
            for n1 in range(m + 1):
                for n2 in range((n1 + m) // 2 + 1):
                    assert count_walks(m, n1, n2) == brute_count(m, n1, n2)

    def test_brute_spot_check_m10(self):
        assert count_walks(10, 2, 1) == brute_count(10, 2, 1)

    def test_recurrence_holds(self):
        for m in range(1, 16):
            for n1 in range(m + 1):
                for n2 in range((n1 + m) // 2 + 1):
                    assert count_walks(m, n1, n2) == (
                        count_walks(m - 1, n1 + 1, n2)
                        + count_walks(m - 1, n1 - 1, n2)
                        + count_walks(m - 1, n1 + 1, n2 + 1)
                        + count_walks(m - 1, n1 - 1, n2 - 1)
                    )

    def test_support_exactness(self):
        # positivity holds on the entire support box, not just necessity
        for m in range(21):
            for n1 in range(m + 2):
                for n2 in range((n1 + m) // 2 + 2):
                    positive = count_walks(m, n1, n2) > 0
                    assert positive == reachable(m, n1, n2)

    def test_out_of_support_is_zero(self):
        assert count_walks(3, 0, 0) == 0
        assert count_walks(5, 1, 4) == 0
        assert count_walks(2, -1, 0) == 0


class TestWalkTable:
    def test_layer_zero(self):
        t = WalkTable(0)
        assert t.value(0, 0, 0) == 1
        assert t.value(0, 1, 0) == 0

    def test_values_nonnegative(self):
        assert all(v > 0 for _, _, counts in columns(12) for v in counts)

    def test_extend_is_idempotent(self):
        t = WalkTable(6)
        t.extend(6)
        t.extend(4)
        assert t.m_max == 6
        assert t.value(6, 0, 0) == 85

    def test_out_of_range(self):
        t = WalkTable(2)
        with pytest.raises(ValueError):
            t.value(3, 0, 0)

    def test_grown_one_layer_per_call_matches_one_call(self):
        # calls that outgrow the slot width build on a repacked copy
        whole = WalkTable(60)
        grown = WalkTable(0)
        for m in range(1, 61):
            grown.extend(m)
        for m, n1, n2 in axis_cells(60):
            assert grown.value(m, n1, n2) == whole.value(m, n1, n2)
        assert grown._axes == whole._axes

    def test_matches_dict_recurrence(self):
        # the unpacked step recurrence, cell by cell, as the reference
        by_layer: dict[int, dict] = {}
        for m, n1, counts in columns(40):
            for n2, v in enumerate(counts):
                by_layer.setdefault(m, {})[(n1, n2)] = v
        layer = {(0, 0): 1}
        for m in range(1, 41):
            layer = {
                (n1, n2): total
                for n1 in range(m + 1)
                for n2 in range(m + 1)
                if (
                    total := layer.get((n1 + 1, n2), 0)
                    + layer.get((n1 - 1, n2), 0)
                    + layer.get((n1 + 1, n2 + 1), 0)
                    + layer.get((n1 - 1, n2 - 1), 0)
                )
            }
            assert by_layer[m] == layer

    def test_no_carry_between_slots(self):
        # origin counts pass 200 bits by n = 110; a carry would corrupt them
        assert count_walks(220, 0, 0).bit_length() > 200
        for n in range(111):
            assert count_walks(2 * n, 0, 0) == gessel_closed_form(n)

    @pytest.mark.parametrize("m_max", [40, 37])
    def test_columns_hold_every_reachable_cell_and_nothing_else(self, m_max):
        # the whole-table readers print every slot of a column as a record;
        # its axis cells are the memo's
        t = WalkTable(m_max)
        seen = []
        for m, n1, counts in columns(m_max):
            seen.append((m, n1))
            assert (m - n1) % 2 == 0
            assert len(counts) == (n1 + m) // 2 + 1
            assert all(counts)
            assert counts[0] == t.value(m, n1, 0)
            if n1 == 0:
                assert counts == [t.value(m, 0, n2) for n2 in range(len(counts))]
        assert seen == [
            (m, n1) for m in range(m_max + 1) for n1 in range(m % 2, m + 1, 2)
        ]

    def test_stream_equals_memo_across_repacks(self):
        # slots widen at m = 3, 7, 11, 15, 19, 27, 35, 47 and 59 up to m = 60;
        # every axis cell of the support box, and the ones just beyond it, agree
        t = WalkTable(60)
        cells = {(m, n1, n2): v for m, n1, counts in columns(60) for n2, v in enumerate(counts)}
        for m, n1, n2 in axis_cells(60):
            assert cells.get((m, n1, n2), 0) == t.value(m, n1, n2), (m, n1, n2)

    def test_layers_at_one_width_are_the_widening_layers(self):
        # the kernel checks read the stream at the width of the layer after
        # the last; no layer is repacked, and every slot agrees
        m_max = 60
        width = _slot_width(m_max + 1)
        fixed = list(layers(m_max, width))
        assert len(fixed) == m_max + 1
        assert {w for w, _ in fixed} == {width}
        for m, ((w, grown), (_, layer)) in enumerate(zip(layers(m_max), fixed)):
            assert len(grown) == len(layer) == m + 1
            assert [_unpack(c, w) for c in grown] == [_unpack(c, width) for c in layer], m

    @pytest.mark.parametrize("m_max", [-1, -2, -40])
    def test_negative_m_max_gives_no_layer_and_no_column(self, m_max):
        assert list(layers(m_max)) == []
        assert list(layers(m_max, 8)) == []
        assert list(columns(m_max)) == []

    def test_nothing_is_built_up_front(self):
        # a pass to m = 10^6 would not end; its first column comes at once
        assert next(columns(10**6)) == (0, 0, [1])

    @settings(max_examples=80, deadline=None)
    @given(width=st.sampled_from([8, 16, 24, 48, 72]), data=st.data())
    def test_unpack_inverts_pack(self, width, data):
        slots = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=12))
        trimmed = list(slots)
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        assert _unpack(pack(slots, width), width) == trimmed

    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 100).map(lambda b: 8 * b), data=st.data())
    def test_unpack_is_the_shift_and_mask_decode(self, width, data):
        # a column of up to 12 slots, or one whose top slot holds bit 0 alone
        column = data.draw(st.one_of(
            st.integers(0, (1 << width * data.draw(st.integers(0, 12))) - 1),
            st.integers(0, 12).map(lambda k: 1 << width * k),
        ))
        assert _unpack(column, width) == unpack_by_shifts(column, width)

    def test_unpack_at_the_slot_edges(self):
        for width in range(8, 801, 8):
            top = (1 << width) - 1
            assert _unpack(0, width) == []
            assert _unpack(1, width) == [1]
            assert _unpack(1 << width, width) == [0, 1]
            assert _unpack(1 << 3 * width, width) == [0, 0, 0, 1]
            assert _unpack(top | top << 2 * width, width) == [top, 0, top]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_widen_is_pack_of_unpack_at_every_pair_of_widths(self, data):
        widths = range(8, 129, 8)
        for width in widths:
            slots = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=6))
            column = pack(slots, width)
            for wider in widths[width // 8 - 1:]:
                assert _widen(column, width, wider) == pack(_unpack(column, width), wider)

    def test_value_outside_columns_is_zero(self):
        t = WalkTable(6)
        assert t.value(5, -1, 0) == 0
        assert t.value(5, 6, 0) == 0
        assert t.value(5, 1, -1) == 0
        assert t.value(5, 0, 40) == 0
        assert t.value(6, 0, 4) == 0
        assert t.value(6, 7, 3) == 0


class TestAxisRouting:
    def test_interior_read_goes_to_the_meet_and_leaves_the_memo(self, monkeypatch):
        calls = []
        real = walks.count_meet
        monkeypatch.setattr(walks, "count_meet", lambda *t: calls.append(t) or real(*t))
        before = walks.shared_table().m_max
        assert count_walks(30, 4, 6) == counts_along(30, 4, 6)[-1]
        assert calls == [(30, 4, 6)]
        assert walks.shared_table().m_max == before

    def test_axis_read_grows_the_memo_and_calls_no_meet(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("count_meet called")

        monkeypatch.setattr(walks, "count_meet", refuse)
        m = walks.shared_table().m_max // 2 * 2 + 2  # even, past the memo
        assert count_walks(m, 0, 1) == counts_along(m, 0, 1)[-1]
        assert count_walks(m + 1, 3, 0) == counts_along(m + 1, 3, 0)[-1]
        assert walks.shared_table().m_max == m + 1

    def test_growth_cut_short_regrows_from_the_kept_layer(self, monkeypatch):
        # an interrupt inside the step leaves the table at its last whole layer
        real, calls = walks._step, []

        def cut(*args):
            calls.append(args)
            if len(calls) == 20:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(walks, "_step", cut)
        t = WalkTable(0)
        with pytest.raises(KeyboardInterrupt):
            t.extend(30)
        assert t.m_max == 19
        t.extend(30)
        assert t._axes == WalkTable(30)._axes

    def test_value_refuses_an_interior_cell(self):
        with pytest.raises(ValueError):
            WalkTable(10).value(10, 2, 3)


class TestCountsAlong:
    def test_matches_memo_table(self):
        # every target in and beyond the support box for m <= 40, including
        # the unreachable ones, and the whole sequence t = 0..m at each,
        # against the columns of the dp stream
        cells = {(m, n1, n2): v for m, n1, counts in columns(40) for n2, v in enumerate(counts)}
        for m in range(41):
            for n1 in range(m + 2):
                for n2 in range(m + 2):
                    expected = [cells.get((t, n1, n2), 0) for t in range(m + 1)]
                    assert counts_along(m, n1, n2) == expected, (m, n1, n2)

    def test_origin_sequence_against_closed_form(self):
        along = counts_along(240, 0, 0)
        assert along[-1].bit_length() > 400
        for t in range(241):
            assert along[t] == (gessel_closed_form(t // 2) if t % 2 == 0 else 0)

    @pytest.mark.parametrize(
        "n1, n2", [(250, 0), (230, 70), (200, 200), (60, 130), (3000, 0)]
    )
    def test_shortest_walks(self, n1, n2):
        length, ways = shortest_walk(n1, n2)
        assert length >= 200
        along = counts_along(length, n1, n2)
        assert along[-1] == ways
        assert not any(along[:-1])

    def test_out_of_reach_and_negative(self):
        assert counts_along(9, 10, 0) == [0] * 10
        assert counts_along(9, 2, 6) == [0] * 10
        assert counts_along(4, -1, 0) == [0] * 5
        assert counts_along(-1, 0, 0) == []
        assert counts_along(0, 0, 0) == [1]


class TestCountMeet:
    def test_against_brute_enumeration(self):
        # every target in and just beyond the support box for m <= 7, then
        # axis and interior targets up to m = 12 (the origin has its own test)
        for m in range(8):
            for n1 in range(m + 2):
                for n2 in range(m + 2):
                    assert count_meet(m, n1, n2) == brute_count(m, n1, n2), (m, n1, n2)
        for target in ((8, 2, 3), (9, 1, 0), (10, 0, 3), (11, 3, 2), (12, 2, 1)):
            assert count_meet(*target) == brute_count(*target), target

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_cone_pass(self, data):
        # odd and even m, targets of the wrong parity, n1 past m and n2 past
        # the cone bound 2*n2 <= n1 + m
        m = data.draw(st.integers(min_value=0, max_value=40), label="m")
        n1 = data.draw(st.integers(min_value=0, max_value=m + 3), label="n1")
        n2 = data.draw(st.integers(min_value=0, max_value=(n1 + m) // 2 + 3), label="n2")
        assert count_meet(m, n1, n2) == counts_along(m, n1, n2)[-1]

    def test_origin_sum_of_squares_against_closed_form(self):
        for n in range(101):
            assert count_meet(2 * n, 0, 0) == gessel_closed_form(n), n

    def test_out_of_reach(self):
        assert count_meet(9, 10, 0) == 0
        assert count_meet(9, 2, 6) == 0
        assert count_meet(9, 0, 0) == 0
        assert count_meet(0, 0, 0) == 1
        assert count_meet(-1, 0, 0) == 0

    @pytest.mark.parametrize(
        "m, start, goal",
        [
            (41, (0, 0), (13, 4)),  # forward half toward an interior target
            (40, (0, 0), (30, 0)),  # toward a far axis target
            (40, (0, 0), (0, 20)),  # toward the top of the cone
            (41, (13, 4), (0, 0)),  # backward halves toward the origin
            (40, (30, 0), (0, 0)),
            (40, (0, 20), (0, 0)),
        ],
    )
    def test_passes_stay_in_the_goal_cone(self, m, start, goal):
        # a pass computes only the goal's cone: every nonzero column of layer
        # t lies within m - t columns of the goal, and no nonzero slot above
        # the cone's row bound at the layer's rightmost nonzero column
        (g1, g2), width = goal, _slot_width(m)
        for t, layer in enumerate(_cone(m, start, goal, width)):
            nonzero = [c for c, column in enumerate(layer) if column]
            assert nonzero, t
            assert all(abs(c - g1) <= m - t for c in nonzero), t
            top = g2 + (m - t + nonzero[-1] - g1) // 2
            assert all(len(_unpack(layer[c], width)) <= top + 1 for c in nonzero), t


class TestShortestWalk:
    def test_examples(self):
        assert shortest_walk(3, 2) == (3, 3)
        assert shortest_walk(1, 2) == (3, 2)

    def test_horizontal_axis(self):
        for n in range(13):
            assert shortest_walk(n, 0) == (n, 1)
            assert count_walks(n, n, 0) == 1

    def test_vertical_axis_catalan(self):
        for n in range(13):
            assert shortest_walk(0, n) == (2 * n, catalan(n))
            assert count_walks(2 * n, 0, n) == catalan(n)

    def test_against_dp_square(self):
        for n1 in range(13):
            for n2 in range(13):
                length, count = shortest_walk(n1, n2)
                assert count_walks(length, n1, n2) == count
                if length >= 2:
                    assert count_walks(length - 2, n1, n2) == 0

    def test_diagonal_consistency(self):
        # the two branch formulas must agree where both apply
        for n in range(13):
            east_branch = math.comb(n, n)
            vertical_branch = (
                (n + 1) * math.comb(n + 1, n + 1) // (n + 1)
            )
            assert east_branch == vertical_branch == shortest_walk(n, n)[1]
            assert shortest_walk(n, n)[0] == n


class TestFTilde:
    def test_shifted_origin(self):
        for n in range(8):
            assert f_tilde(2 * n + 1, 0, 0) == count_walks(2 * n, 0, 0)

    def test_interior_zero(self):
        assert f_tilde(1, 1, 1) == 0
        assert f_tilde(5, 2, 3) == 0

    def test_vertical_example(self):
        assert f_tilde(3, 0, 1) == 3

    def test_vertical_sum_rule(self):
        for m in range(1, 12):
            for n2 in range(m):
                assert f_tilde(m, 0, n2) == count_walks(m - 1, 0, n2) + count_walks(
                    m - 1, 0, n2 - 1
                )

    def test_horizontal_shift_rule(self):
        for m in range(1, 12):
            for n1 in range(m):
                assert f_tilde(m, n1, 0) == count_walks(m - 1, n1, 0)

    def test_step_zero(self):
        assert f_tilde(0, 0, 0) == 0
        assert f_tilde(0, 2, 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            f_tilde(-1, 0, 0)
        with pytest.raises(ValueError):
            f_tilde(2, -1, 0)


class TestFMatrix:
    def test_f_entry_matches_frozen_block(self):
        for i in range(14):
            for j in range(14):
                assert f_entry(i, j) == F_MATRIX_14[i][j]

    def test_small_block_examples(self):
        assert f_entry(3, 3) == 2
        assert f_entry(5, 5) == 11
        assert all(f_entry(0, j) == 0 for j in range(6))

    def test_even_rows_vanish(self):
        for i in range(0, 17, 2):
            assert all(f_entry(i, j) == 0 for j in range(17))

    def test_packing_definition(self):
        for i in range(12):
            for j in range(12):
                if i <= j:
                    assert f_entry(i, j) == f_tilde(i, 0, j - i)
                if i >= j:
                    assert f_entry(i, j) == f_tilde(j, i - j, 0)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            f_entry(-1, 0)
        with pytest.raises(ValueError):
            f_entry(0, -1)


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=8),
    n1=st.integers(min_value=0, max_value=8),
    n2=st.integers(min_value=0, max_value=8),
)
def test_count_matches_brute_random(m, n1, n2):
    assert count_walks(m, n1, n2) == brute_count(m, n1, n2)
