"""Acceptance suite: one test per deliverable, each with a wall-clock budget.

Every test prints a single PASS or FAIL line with its timing so a plain
``pytest -v -s tests/test_acceptance.py`` doubles as a scorecard.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from faults import bumped_stream
from gesselwalks.conjectures import (
    FitFamily,
    fit_family,
    fit_report,
    recurrence_residual,
    verify_family_claims,
    verify_recurrence_g,
)
from gesselwalks.exact import ClosedFormFamily, catalan, conjectured_value, gessel_closed_form
from gesselwalks.series import (
    verify_H_equation,
    verify_kernel_equation,
    verify_root_identity,
)
from gesselwalks.triangular import (
    gessel_via_determinant,
    hessenberg_det,
    hessenberg_for,
    inverse_entry_multisum,
    rho_inv,
    solve_forward,
    system_entry,
    universal_sequence,
)
from gesselwalks.walks import count_walks, f_entry, shortest_walk
from oracles import (
    F_MATRIX_14,
    GESSEL_NUMBERS,
    H24_ROWS,
    UNIVERSAL_SEQUENCES,
    dense_rows,
    unit_lower_inverse,
)


def run_criterion(label, budget, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"FAIL {label} ({elapsed:.2f}s, budget {budget}s)")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        print(f"FAIL {label} ({elapsed:.2f}s, budget {budget}s)")
        raise AssertionError(f"{label} took {elapsed:.2f}s, budget {budget}s")
    print(f"PASS {label} ({elapsed:.2f}s, budget {budget}s)")


def test_criterion_01_gessel_numbers():
    def body():
        for n, expected in enumerate(GESSEL_NUMBERS):
            assert count_walks(2 * n, 0, 0) == expected, n

    run_criterion("origin return counts", 5, body)


def test_criterion_02_closed_form():
    def body():
        for n in range(26):
            value = gessel_closed_form(n)
            assert value.denominator == 1
            assert value == count_walks(2 * n, 0, 0), n

    run_criterion("hypergeometric closed form", 5, body)


def test_criterion_03_determinant_pipeline():
    def body():
        for n in range(7):
            assert gessel_via_determinant(n) == count_walks(2 * n, 0, 0), n
        dense = dense_rows(hessenberg_for(24))
        assert len(dense) == 20
        assert dense == H24_ROWS
        assert hessenberg_det(hessenberg_for(24)) == 2

    run_criterion("determinant pipeline", 10, body)


def test_criterion_04_f_matrix_display():
    def body():
        grid = tuple(tuple(f_entry(i, j) for j in range(14)) for i in range(14))
        assert grid == F_MATRIX_14

    run_criterion("boundary matrix display", 2, body)


def test_criterion_05_forward_substitution():
    def body():
        system = solve_forward(300)
        for k in range(301):
            i, j = rho_inv(k)
            assert system.x[k] == f_entry(i, j), k

    run_criterion("triangular system solve", 10, body)


def test_criterion_06_functional_equations():
    def body():
        caps = (10, 10, 10)
        for verify in (verify_kernel_equation, verify_H_equation, verify_root_identity):
            report = verify(caps)
            assert report.ok, verify.__name__
            assert report.compared > 0
            assert report.nonzero > 0
        for verify, mono in (
            (verify_kernel_equation, (4, 2, 1)),
            (verify_H_equation, (4, 2, 1)),
            (verify_root_identity, (2, 0, 1)),
        ):
            with bumped_stream({mono: 1}):
                mutated = verify(caps)
            assert not mutated.ok, verify.__name__
            assert mutated.first_mismatch is not None

    run_criterion("functional equations", 30, body)


def test_criterion_07_shortest_walk():
    def body():
        for n1 in range(13):
            for n2 in range(13):
                length, count = shortest_walk(n1, n2)
                assert count_walks(length, n1, n2) == count, (n1, n2)
                assert count > 0
                if length >= 2:
                    assert count_walks(length - 2, n1, n2) == 0, (n1, n2)
        for n in range(13):
            assert shortest_walk(n, n) == (n, 1)

    run_criterion("shortest walk counts", 5, body)


def test_criterion_08_multisum_inversion():
    def body():
        rng = random.Random(20240817)
        for _ in range(100):
            size = rng.randint(2, 10)
            rows = [
                [
                    1 if i == j else (rng.randint(-5, 5) if j < i else 0)
                    for j in range(size)
                ]
                for i in range(size)
            ]
            inverse = unit_lower_inverse(rows)
            for i in range(size):
                for j in range(i):
                    got = inverse_entry_multisum(i, j, lambda r, c: rows[r][c], max_span=16)
                    assert got == inverse[i][j], (i, j)
        assert inverse_entry_multisum(24, 4, system_entry, max_span=20) == 2

    run_criterion("multisum inversion", 30, body)


def test_criterion_09_recurrence():
    def body():
        for n in range(31):
            assert recurrence_residual(n) == 0, n
        assert verify_recurrence_g(31).ok

    run_criterion("second order recurrence", 10, body)


def test_criterion_10_polynomial_fits():
    def scale(coeffs, denom):
        return tuple(Fraction(c, denom) for c in coeffs)

    s_expected = {
        0: (Fraction(1),),
        1: scale((4, 5, 1), 2),
        2: scale((132, 206, 89, 16, 1), 12),
        3: scale((12240, 20844, 11224, 3027, 439, 33, 1), 144),
    }
    r_expected = {
        1: (Fraction(2), Fraction(2)),
        2: scale((33, 65, 40, 8), 3),
        3: scale((3060, 7701, 7289, 3320, 736, 64), 36),
    }

    def held_out(fit):
        return fit_report(fit, verify_family_claims(fit))["held_out_ok"]

    def body():
        for k, coeffs in s_expected.items():
            fit = fit_family(FitFamily.S_K, k)
            assert fit.coeffs == coeffs, k
            assert held_out(fit) >= 5
        for k, coeffs in r_expected.items():
            fit = fit_family(FitFamily.R_K, k)
            assert fit.coeffs == coeffs, k
            assert held_out(fit) >= 5
        with pytest.raises(ValueError, match="closed form"):
            fit_family(FitFamily.R_K, 0)
        for k in range(4):
            for n in range(9):
                assert conjectured_value(
                    ClosedFormFamily.VERT, k, n
                ) == count_walks(2 * n + 2 * k, 0, n), (k, n)
        p = fit_family(FitFamily.P_K, 1)
        q = fit_family(FitFamily.Q_K, 1)
        assert p.coeffs == (Fraction(5, 27),)
        assert q.coeffs == (Fraction(-50, 270), Fraction(183, 270), Fraction(111, 270))
        assert held_out(p) >= 5 and held_out(q) >= 5

    run_criterion("polynomial family fits", 20, body)


def test_criterion_11_universal_sequences():
    def body():
        for i, expected in UNIVERSAL_SEQUENCES.items():
            assert tuple(universal_sequence(i)) == expected, i
        for i in range(1, 11):
            seq = universal_sequence(i)
            assert len(seq) == 2 * i
            assert seq[0] == 1
            assert seq[-1] == catalan(i - 1)

    run_criterion("universal sequences", 5, body)
