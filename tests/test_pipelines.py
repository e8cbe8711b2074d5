"""The counting entry point: every pipeline against the dp, target by target."""

import pytest

from gesselwalks import cli, triangular, walks
from gesselwalks.pipelines import METHODS, NotCovered, count, verify_cross_pipeline
from oracles import GESSEL_NUMBERS


def test_every_method_agrees_with_dp_or_refuses():
    """Exhaustive over 0 <= m <= 12, 0 <= n1, n2 <= m: each method either
    raises NotCovered or returns the dp count."""
    answered = {method: 0 for method in METHODS if method != "dp"}
    for m in range(13):
        for n1 in range(m + 1):
            for n2 in range(m + 1):
                expected = walks.count_walks(m, n1, n2)
                for method in answered:
                    try:
                        value = count(m, n1, n2, method)
                    except NotCovered:
                        continue
                    assert value == expected, (method, m, n1, n2)
                    answered[method] += value != 0
    assert all(answered.values()), answered


@pytest.mark.parametrize(
    "m, n1, n2",
    [
        (400, 0, 0),  # origin return
        (202, 0, 1),  # F(2n; 0, 1)
        (206, 200, 0), (201, 195, 0),  # horizontal family, excess 3
        (206, 0, 100), (202, 0, 101),  # vertical family, excess 3 and 0
        (230, 230, 0), (200, 60, 130),  # shortest walks
    ],
)
def test_dp_cone_pass_against_closed_forms(m, n1, n2):
    """Single dp counts at m >= 200, each against a closed form; none of
    them grows the memo table."""
    before = walks.shared_table().m_max
    assert count(m, n1, n2, "dp") == count(m, n1, n2, "closed")
    assert walks.shared_table().m_max == before


def test_multisum_span_refusal_is_not_covered():
    with pytest.raises(NotCovered, match="chain explosion"):
        count(8, 0, 0, "multisum")


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown method") as info:
        count(4, 0, 0, "magic")
    assert not isinstance(info.value, NotCovered)


@pytest.mark.parametrize("method", METHODS)
def test_negative_targets_refused_alike(method):
    for target in ((-2, 0, 0), (4, -1, 0), (4, 0, -1)):
        with pytest.raises(ValueError, match=r"^m, n1, n2 must be nonnegative$") as info:
            count(*target, method)
        assert not isinstance(info.value, NotCovered)


@pytest.mark.parametrize("method", METHODS)
def test_max_span_below_one_refused_alike(method):
    for span in (0, -7):
        with pytest.raises(ValueError, match=r"^max_span must be at least 1$") as info:
            count(4, 0, 0, method, max_span=span)
        assert not isinstance(info.value, NotCovered)


def test_cross_pipeline_refuses_a_size_that_compares_no_count():
    """Below the origin index of n = 1 only the n = 0 row is compared, where
    dp, det and solve all read 1 by construction, so an "ok" there would
    check nothing."""
    floor = triangular.origin_index(1)
    for k_max in (-1, 0, triangular.origin_index(0), floor - 1):
        with pytest.raises(ValueError, match=f"at least {floor},"):
            verify_cross_pipeline(k_max)
    report = verify_cross_pipeline(floor)
    assert report["ok"]
    assert [row["n"] for row in report["gessel_indices"]] == [0, 1]


def test_solve_at_large_m_against_closed_forms():
    """Single-target solves far past the exhaustive range: the origin,
    F(2n; 0, 1), and the horizontal and vertical families at excess 0-3."""
    m = 60
    targets = [(m, 0, 0), (m + 2, 0, 0), (m, 0, 1)]
    for excess in range(4):
        targets += [(m, m - 2 * excess, 0), (m, 0, m // 2 - excess)]
    for target in targets:
        assert count(*target, "solve") == count(*target, "closed"), target


def test_solve_never_substitutes_the_whole_prefix(monkeypatch):
    def refuse(k_max):
        raise AssertionError("solve_forward called")

    monkeypatch.setattr(triangular, "solve_forward", refuse)
    for target in ((40, 2, 0), (40, 0, 2)):
        assert count(*target, "solve") == count(*target, "dp"), target


def test_det_paths_never_build_the_dense_window(monkeypatch, capsys):
    def refuse(name):
        def call(k):
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr(triangular, "hessenberg_for", refuse("hessenberg_for"))
    report = verify_cross_pipeline(1195)
    assert report["ok"] and report["entries_checked"] == 1196
    assert [row["det"] for row in report["gessel_indices"]] == [
        str(value) for value in GESSEL_NUMBERS[:12]]
    # a det count and hessenberg --n read the determinant from the cone solve
    monkeypatch.setattr(triangular, "window_minors", refuse("window_minors"))
    assert count(16, 0, 0, "det") == GESSEL_NUMBERS[8]
    k = triangular.origin_index(7)
    assert cli.main(["hessenberg", "--n", "7"]) == 0
    assert capsys.readouterr().out == (
        f"det={GESSEL_NUMBERS[7]} size={k - triangular.RHS_INDEX} k={k}\n")


def flipped_at_a_3(coefficient):
    """``coefficient`` with the sign of each cell (i, j), min(i, j) = 3,
    flipped; i and j are its last two arguments."""
    def flipped(*args):
        c = coefficient(*args)
        return -c if min(args[-2:]) == 3 else c
    return flipped


def test_a_kernel_fault_splits_det_from_solve(monkeypatch):
    """The windows read coefficient_c, not the solve's ``_kernel``, so a sign
    fault in the kernel moves solve but not det."""
    monkeypatch.setattr(triangular, "_kernel", flipped_at_a_3(triangular._kernel))
    k = triangular.origin_index(6)
    det, solved = triangular.window_minors(k)[-1], triangular.solve_cone(k)[k]
    assert det == GESSEL_NUMBERS[6]
    assert det != solved
    assert not verify_cross_pipeline(400)["ok"]


def test_a_coefficient_c_fault_fails_the_det_column(monkeypatch):
    """The converse: a fault in the reference definition leaves solve equal
    to the boundary matrix, and cross_pipeline reports det against solve."""
    monkeypatch.setattr(triangular, "coefficient_c",
                        flipped_at_a_3(triangular.coefficient_c))
    report = verify_cross_pipeline(400)
    assert not report["ok"] and report["entries_checked"] == 401
    first = report["first_mismatch"]
    assert first["dp"] == first["solve"] != first["det"]


def test_a_recursion_fault_is_caught_by_the_boundary_matrix(monkeypatch):
    """det and solve share one recursion, so a fault in its zero rule moves
    both alike; the solve against the boundary matrix and dp catch it."""
    admitted = triangular._admitted_columns

    def without_t_1(u, v):
        return ((i, j_max) for i, j_max in admitted(u, v) if u < 5 or i != u - 2)

    monkeypatch.setattr(triangular, "_admitted_columns", without_t_1)
    report = verify_cross_pipeline(400)
    assert not report["ok"] and report["entries_checked"] == 39
    assert report["first_mismatch"] == {"k": 39, "i": 5, "j": 3, "solved": -1, "direct": 1}
    assert count(40, 0, 0, "solve") != count(40, 0, 0, "dp")
    k = triangular.origin_index(6)
    det, solved = triangular.window_minors(k)[-1], triangular.solve_cone(k)[k]
    assert det == solved != GESSEL_NUMBERS[6]
