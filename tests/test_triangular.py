import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from gesselwalks import cli, triangular
from gesselwalks.exact import binom_general, gessel_closed_form
from gesselwalks.triangular import (
    RHS_INDEX,
    _admitted_columns,
    _coefficient_table,
    _kernel,
    _leading_minors,
    boundary_index,
    coefficient_c,
    gessel_via_determinant,
    hessenberg_det,
    hessenberg_for,
    inverse_entry_multisum,
    origin_index,
    rho,
    rho_inv,
    solve_cone,
    solve_forward,
    system_entry,
    system_rhs,
    universal_sequence,
    window_minors,
)
from gesselwalks.walks import count_walks, f_entry, f_tilde, reachable
from oracles import (
    GESSEL_NUMBERS,
    H24_ROWS,
    UNIVERSAL_SEQUENCES,
    catalan,
    cofactor_det,
    dense_rows,
    gauss_det,
    sparse_rows,
    unit_lower_inverse,
    well_formed,
)


class TestRho:
    def test_anchors(self):
        assert rho(1, 1) == 4
        assert rho(3, 3) == 24
        assert RHS_INDEX == 4

    def test_bijection_exhaustive(self):
        seen = {}
        for i in range(61):
            for j in range(61 - i):
                n = rho(i, j)
                assert n not in seen
                seen[n] = (i, j)
                assert rho_inv(n) == (i, j)

    def test_monotone(self):
        for a in range(20):
            for b in range(20):
                assert rho(a + 1, b) > rho(a, b)
                assert rho(a, b + 1) > rho(a, b)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rho_inv(-1)

    def test_origin_index(self):
        assert origin_index(0) == RHS_INDEX
        assert origin_index(1) == 24
        for n in range(5):
            assert origin_index(n) == rho(2 * n + 1, 2 * n + 1)
        with pytest.raises(ValueError):
            origin_index(-1)

    def test_boundary_index_holds_f_tilde(self):
        """Every axis cell with m, n1, n2 < 20 against the solved unknowns."""
        cells = [
            (m, n1, n2)
            for m in range(20)
            for a in range(20)
            for n1, n2 in ((a, 0), (0, a))
        ]
        system = solve_forward(max(boundary_index(*cell) for cell in cells))
        for cell in cells:
            assert system.x[boundary_index(*cell)] == f_tilde(*cell), cell

    def test_boundary_index_refuses_interior_cells(self):
        with pytest.raises(ValueError, match="axis cells"):
            boundary_index(5, 1, 1)


class TestCoefficientC:
    def test_unit_diagonal(self):
        for u in range(8):
            for v in range(8):
                assert coefficient_c(u, v, u, v) == 1

    def test_parity_zero(self):
        assert coefficient_c(1, 1, 2, 0) == 0

    def test_displayed_negative_one(self):
        assert coefficient_c(1, 2, 1, 1) == -1

    def test_vanishes_past_the_equation(self):
        for u in range(6):
            for v in range(6):
                for i in range(8):
                    for j in range(8):
                        if i > u or j > v:
                            assert coefficient_c(u, v, i, j) == 0

    def test_system_matrix_triangular(self):
        for n in range(80):
            assert system_entry(n, n) == 1
            for k in range(n + 1, 80):
                assert system_entry(n, k) == 0

    def test_rhs_single_one(self):
        assert system_rhs(RHS_INDEX) == 1
        assert sum(system_rhs(n) for n in range(100)) == 1


class TestSolveForward:
    def test_anchor_values(self):
        sys = solve_forward(30)
        assert sys.x[4] == 1
        assert sys.x[8] == 1
        assert sys.x[24] == 2
        assert all(sys.x[k] == 0 for k in range(4))

    def test_matches_boundary_matrix(self):
        sys = solve_forward(250)
        for k in range(251):
            assert sys.x[k] == f_entry(*rho_inv(k)), k

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            solve_forward(-1)


class TestHessenberg:
    def test_window_24_matches_frozen(self):
        dense = dense_rows(hessenberg_for(24))
        assert len(dense) == 20
        assert dense == H24_ROWS
        assert well_formed(dense)

    def test_window_24_det(self):
        assert hessenberg_det(hessenberg_for(24)) == 2

    def test_smallest_window(self):
        rows = list(hessenberg_for(5))
        assert len(rows) == 1
        assert hessenberg_det(rows) == dense_rows(rows)[0][0]

    def test_empty_window(self):
        assert list(hessenberg_for(4)) == []
        assert hessenberg_det(hessenberg_for(4)) == 1

    def test_below_smallest_rejected(self):
        with pytest.raises(ValueError, match=r"rho\(1,1\)"):
            hessenberg_for(3)

    def test_one_by_one(self):
        assert hessenberg_det([[(0, 7)]]) == 7

    def test_identity_like(self):
        size = 5
        rows = tuple(
            tuple(1 if c in (r, r + 1) else 0 for c in range(size))
            for r in range(size)
        )
        assert dense_rows([(r, 1)] for r in range(size)) == rows
        assert well_formed(rows)
        assert hessenberg_det(sparse_rows(rows)) == 1
        assert cofactor_det([list(r) for r in rows]) == 1

    def test_against_cofactor_oracle(self):
        rng = random.Random(20260822)
        for _ in range(100):
            size = rng.randint(1, 6)
            rows = []
            for r in range(size):
                row = [0] * size
                for c in range(min(r + 2, size)):
                    row[c] = 1 if c == r + 1 else rng.randint(-4, 4)
                rows.append(tuple(row))
            assert well_formed(rows)
            expected = cofactor_det([list(r) for r in rows])
            assert hessenberg_det(sparse_rows(rows)) == expected
            assert gauss_det([list(r) for r in rows]) == expected

    def test_det_24_against_gauss(self):
        assert gauss_det([list(r) for r in H24_ROWS]) == 2

    def test_minors_of_one_window_hold_every_origin_det(self):
        # origin_index(11) = 1104; every smaller origin window is a leading block
        minors = window_minors(origin_index(11))
        assert len(minors) == origin_index(11) - RHS_INDEX + 1
        for n in range(12):
            assert minors[origin_index(n) - RHS_INDEX] == gessel_via_determinant(n), n
        assert minors[-1] == GESSEL_NUMBERS[11]


class TestGesselViaDeterminant:
    def test_first_values(self):
        assert gessel_via_determinant(0) == 1
        assert gessel_via_determinant(1) == 2
        assert gessel_via_determinant(3) == 85

    def test_matches_dp(self):
        for n in range(5):
            assert gessel_via_determinant(n) == count_walks(2 * n, 0, 0)

    def test_matches_the_dense_window_det(self):
        for n in range(7):
            window = hessenberg_for(origin_index(n))
            assert gessel_via_determinant(n) == hessenberg_det(window), n

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gessel_via_determinant(-1)


def random_unit_lower(rng, size):
    rows = [[0] * size for _ in range(size)]
    for r in range(size):
        rows[r][r] = 1
        for c in range(r):
            rows[r][c] = rng.randint(-3, 3)
    return rows


class TestMultisum:
    def test_single_link(self):
        rows = [[1, 0], [7, 1]]
        assert inverse_entry_multisum(1, 0, lambda r, c: rows[r][c], max_span=16) == -7

    def test_system_anchor(self):
        assert inverse_entry_multisum(24, 4, system_entry, max_span=20) == 2

    def test_small_system_entry(self):
        assert inverse_entry_multisum(8, 4, system_entry, max_span=16) == 1

    def test_matches_forward_substitution(self):
        rng = random.Random(99173)
        for _ in range(100):
            size = rng.randint(2, 10)
            rows = random_unit_lower(rng, size)
            inv = unit_lower_inverse(rows)
            entries = lambda r, c: rows[r][c]
            for k in range(size):
                for m in range(k):
                    assert inverse_entry_multisum(k, m, entries, max_span=16) == inv[k][m]

    def test_span_limit(self):
        with pytest.raises(ValueError, match="chain explosion"):
            inverse_entry_multisum(24, 4, system_entry, max_span=16)
        with pytest.raises(ValueError, match="chain explosion"):
            inverse_entry_multisum(60, 4, system_entry, max_span=30)

    def test_reads_each_entry_once(self):
        # the packed system at m = 6: span 108, value F(6; 0, 0) = 85
        k = origin_index(3)
        span = k - RHS_INDEX
        reads = []

        def entries(r, c):
            reads.append((r, c))
            return system_entry(r, c)

        assert span == 108
        assert inverse_entry_multisum(k, RHS_INDEX, entries, max_span=span) == 85
        assert len(reads) == len(set(reads)) <= span * (span + 1) // 2

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            inverse_entry_multisum(4, 4, system_entry, max_span=16)
        with pytest.raises(ValueError):
            inverse_entry_multisum(3, -1, system_entry, max_span=16)


class TestOneWindowTwoReadings:
    """The chain sum and the Hessenberg determinant read the same window:
    rows m+1..k and columns m..k-1 of a unit-lower matrix, whose
    determinant is (-1)^(k-m) times entry (k, m) of the inverse."""

    @pytest.mark.parametrize("n, span, count", [(1, 20, 2), (2, 56, 11), (3, 108, 85)])
    def test_origin_window(self, n, span, count):
        k = origin_index(n)
        assert k - RHS_INDEX == span
        chains = inverse_entry_multisum(k, RHS_INDEX, system_entry, max_span=span)
        assert chains == hessenberg_det(hessenberg_for(k)) == gessel_closed_form(n) == count

    def test_random_unit_lower(self):
        rng = random.Random(20261022)
        for _ in range(200):
            size = rng.randint(2, 9)
            rows = random_unit_lower(rng, size)
            k = rng.randrange(1, size)
            m = rng.randrange(k)
            window = [row[m:k] for row in rows[m + 1:k + 1]]
            assert well_formed(window)
            det = hessenberg_det(sparse_rows(window))
            chains = inverse_entry_multisum(k, m, lambda r, c: rows[r][c], max_span=16)
            assert chains == (-1) ** (k - m) * det == unit_lower_inverse(rows)[k][m]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=9))
def test_multisum_inverse_property(seed, size):
    rng = random.Random(seed)
    rows = random_unit_lower(rng, size)
    inv = unit_lower_inverse(rows)
    k = rng.randrange(1, size)
    m = rng.randrange(k)
    assert inverse_entry_multisum(k, m, lambda r, c: rows[r][c], max_span=16) == inv[k][m]


class TestUniversalSequences:
    def test_frozen_listing(self):
        for i, expected in UNIVERSAL_SEQUENCES.items():
            assert tuple(universal_sequence(i)) == expected, i

    def test_structure_through_ten(self):
        for i in range(1, 11):
            seq = universal_sequence(i)
            assert len(seq) == 2 * i
            assert seq[0] == 1
            assert seq[-1] == catalan(i - 1)

    def test_matches_row_segment(self):
        for i in range(1, 9):
            row = 2 * i - 1
            seq = universal_sequence(i)
            for offset, value in enumerate(seq):
                assert f_entry(row, i + offset) == value

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            universal_sequence(0)


def dense_solve(k_max):
    """Forward substitution calling coefficient_c against every solved
    nonzero unknown, the reference for the sparse solve."""
    pairs = [rho_inv(n) for n in range(k_max + 1)]
    x, support = [], []
    for n in range(k_max + 1):
        acc = system_rhs(n)
        for k in support:
            acc -= coefficient_c(*pairs[n], *pairs[k]) * x[k]
        x.append(acc)
        if acc:
            support.append(n)
    return tuple(x)


def dense_hessenberg(k):
    """The window of hessenberg_for built cell by cell from coefficient_c."""
    return tuple(
        tuple(
            coefficient_c(*rho_inv(n), *rho_inv(c)) if c <= n else 0
            for c in range(RHS_INDEX, k)
        )
        for n in range(RHS_INDEX + 1, k + 1)
    )


class TestSparseBuilders:
    def test_zero_rule_admits_exactly_the_nonzero_cells(self):
        for u in range(25):
            for v in range(25):
                admitted = {(u, v)}
                for i, j_max in _admitted_columns(u, v):
                    admitted.update((i, j) for j in range(1, j_max + 1))
                nonzero = {
                    (i, j)
                    for i in range(31)
                    for j in range(31)
                    if coefficient_c(u, v, i, j)
                }
                assert admitted == nonzero, (u, v)

    def test_solve_matches_dense_reference(self):
        reference = dense_solve(1500)
        for k_max in (0, 3, 4, 5, 24, 100, 1500):
            assert solve_forward(k_max).x == reference[: k_max + 1], k_max

    def test_origin_windows_match_dense_build(self):
        """Each streamed row holds exactly the nonzero cells of the dense
        window left of its superdiagonal, which is all ones."""
        for n in range(7):
            k = origin_index(n)
            rows = list(hessenberg_for(k))
            reference = dense_hessenberg(k)
            assert len(rows) == k - RHS_INDEX
            assert [sorted(cells) for cells in rows] == sparse_rows(reference), n
            assert dense_rows(rows) == reference, n
            assert well_formed(reference)

    def test_cross_pipeline_at_k_1200(self, capsys):
        code = cli.main(["verify", "--suite", "cross_pipeline", "--k-max", "1200"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["ok"] and report["first_mismatch"] is None
        assert report["entries_checked"] == 1201
        assert [row["n"] for row in report["gessel_indices"]] == list(range(12))


class TestCoefficientKernel:
    def test_table_holds_the_reflected_binomials(self):
        for d in range(31):
            table = _coefficient_table(d)
            assert len(table) == d // 2 + 1
            for a, row in enumerate(table):
                assert len(row) == d + 1
                for t, value in enumerate(row):
                    assert value == (-1) ** t * binom_general(-a, t), (d, a, t)

    def test_kernel_matches_coefficient_c_on_admitted_cells(self):
        """Every admitted cell with u, v <= 40, each row read from a table
        sized to its own u + v, as the builders size it."""
        tables = [_coefficient_table(d) for d in range(81)]
        cells = 0
        for u in range(41):
            for v in range(41):
                for i, j_max in _admitted_columns(u, v):
                    for j in range(1, j_max + 1):
                        expected = coefficient_c(u, v, i, j)
                        assert _kernel(tables[u + v], u, v, i, j) == expected, (u, v, i, j)
                        cells += 1
        assert cells > 200_000


def cone_cells(k):
    """The cone of row k = rho(U, V), from its definition."""
    top_u, top_v = rho_inv(k)
    cells = {(top_u, top_v)}
    for t in range(top_u):
        cells.update((top_u - 2 * t, j) for j in range(1, top_v - t + 1) if top_u - 2 * t >= 1)
    return {rho(i, j) for i, j in cells}


class TestSolveCone:
    def test_holds_exactly_the_cone(self):
        for k in (0, 3, 4, 5, 24, 100, boundary_index(21, 4, 0), boundary_index(21, 0, 6)):
            assert set(solve_cone(k)) == cone_cells(k), k

    def test_matches_solve_forward_on_every_boundary_target(self):
        """Every reachable axis target with m <= 40: the cone of its unknown
        holds the prefix solution's values, and every unknown the solve
        pipeline reads for it."""
        targets = [
            (m, n1, n2)
            for m in range(41)
            for a in range(1, m + 1)
            for n1, n2 in ((a, 0), (0, a))
            if reachable(m, n1, n2)
        ] + [(m, 0, 0) for m in range(0, 41, 2)]
        full = solve_forward(max(boundary_index(m + 1, n1, n2) for m, n1, n2 in targets)).x
        for m, n1, n2 in targets:
            k = boundary_index(m + 1, n1, n2)
            cone = solve_cone(k)
            reads = {boundary_index(m + 1, 0, j) for j in range(n2 + 1)} if n2 else {k}
            assert reads <= set(cone), (m, n1, n2)
            assert all(full[n] == x for n, x in cone.items()), (m, n1, n2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            solve_cone(-1)


class TestSparseWindows:
    def test_minors_match_the_dense_window(self):
        for n in range(12):
            k = origin_index(n)
            assert window_minors(k)[-1] == hessenberg_det(hessenberg_for(k)), n
        dense = dense_hessenberg(origin_index(2))
        blocks = [sparse_rows(row[:size] for row in dense[:size]) for size in range(len(dense) + 1)]
        assert window_minors(origin_index(2)) == [hessenberg_det(b) for b in blocks]

    def test_coefficient_c_is_read_only_under_nonzero_minors(self, monkeypatch):
        """The window reads coefficient_c only at cells that multiply a
        nonzero minor: 10,770 reads at origin n = 11, where every cell of
        the window would be 65,813.  Every minor, zeros included, is the
        one of the Hessenberg recursion over every nonzero cell of the
        streamed window."""
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return coefficient_c(*args)

        monkeypatch.setattr(triangular, "coefficient_c", counted)
        window_minors(origin_index(11))
        assert calls < 15_000
        for n in range(12):
            k = origin_index(n)
            assert window_minors(k) == _leading_minors(hessenberg_for(k)), n

    def test_minors_are_signed_solved_unknowns(self):
        """Cramer's rule, which gessel_via_determinant relies on: minor c of
        a window is (-1)^c x(RHS_INDEX + c), here for all 361 at n = 6 and
        all 1,101 at n = 11."""
        for n, size in ((6, 361), (11, 1101)):
            k = origin_index(n)
            minors = window_minors(k)
            x = solve_forward(k).x
            assert len(minors) == size, n
            for c, minor in enumerate(minors):
                assert minor == (-1) ** c * x[c + RHS_INDEX], (n, c)

    def test_small_and_refused_windows(self):
        assert window_minors(RHS_INDEX) == [1]
        ((entry,),) = dense_rows(hessenberg_for(RHS_INDEX + 1))
        assert window_minors(RHS_INDEX + 1) == [1, entry]
        with pytest.raises(ValueError, match=r"rho\(1,1\)"):
            window_minors(RHS_INDEX - 1)

    @pytest.mark.parametrize("n", range(7))
    def test_dump_prints_the_dense_window(self, capsys, n):
        """``hessenberg --dump`` in each format against the window built cell
        by cell from coefficient_c."""
        k = origin_index(n)
        rows = [[str(e) for e in row] for row in dense_hessenberg(k)]
        csv_text = "".join(",".join(row) + "\r\n" for row in rows)
        expected = {
            "text": csv_text,
            "csv": csv_text,
            "json": json.dumps({"n": n, "k": k, "size": k - RHS_INDEX, "entries": rows}) + "\n",
        }
        for fmt, out in expected.items():
            assert cli.main(["hessenberg", "--n", str(n), "--dump", "--format", fmt]) == 0
            assert capsys.readouterr().out == out, fmt
