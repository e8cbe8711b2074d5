import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gesselwalks import cli, conjectures, exact, walks
from gesselwalks.conjectures import (
    FitError,
    FitFamily,
    G_RECURRENCE_POLYS,
    claimed_degree,
    failed_claim,
    family_target,
    fit_family,
    fit_report,
    solve_linear_exact,
    verify_family_claims,
    verify_gessel,
    verify_recurrence_g,
)
from gesselwalks.exact import gessel_closed_form
from gesselwalks.walks import count_meet, count_walks
from oracles import coeffs, pochhammer, prefactor


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    return out


def scaled(coeffs, denom):
    return tuple(Fraction(c, denom) for c in coeffs)


# printed polynomial families, expanded exactly from their factored forms
S_EXPECTED = {
    0: (Fraction(1),),
    1: scaled(poly_mul([1, 1], [4, 1]), 2),
    2: scaled(poly_mul([1, 1], [132, 74, 15, 1]), 12),
    3: scaled(poly_mul([1, 1], [12240, 8604, 2620, 407, 32, 1]), 144),
}
R_EXPECTED = {
    1: (Fraction(2), Fraction(2)),
    2: scaled(poly_mul([1, 1], [33, 32, 8]), 3),
    3: scaled(poly_mul([1, 1], [3060, 4641, 2648, 672, 64]), 36),
}
P1_EXPECTED = (Fraction(5, 27),)
Q1_EXPECTED = (Fraction(-50, 270), Fraction(183, 270), Fraction(111, 270))


def reference_solve(rows, rhs):
    """Gaussian elimination over Fraction, the fits' solver before they
    became integer-only; the reference the integer elimination must match."""
    n = len(rows)
    m = [list(row) + [rhs[r]] for r, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] / m[col][col]
                for c in range(col, n + 1):
                    m[r][c] -= f * m[col][c]
    out = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n]
        for c in range(r + 1, n):
            acc -= m[r][c] * out[c]
        out[r] = acc / m[r][r]
    return out


def reference_target(family, k, n):
    """The fit target over Fraction, each prefactor c^n (q)_n / (k+2)_n by
    its definition and each count read from walks."""
    if family is FitFamily.S_K:
        return Fraction(walks.count_walks(n + 2 * k, n, 0))
    if family is FitFamily.R_K:
        return walks.count_walks(2 * n + 2 * k, 0, n) / prefactor(4, Fraction(3, 2), k, n)
    if family is FitFamily.RT_K:
        return walks.f_tilde(2 * n + 2 * k + 1, 0, n) / prefactor(4, Fraction(1, 2), k, n)
    return walks.count_walks(2 * n, 0, k) / prefactor(16, Fraction(1, 2), k, n)


def reference_row(family, k, n):
    """The ansatz row over Fraction: powers of n, weighted by (7/6)_n /
    (k+4/3)_n for p and (5/6)_n / (k+5/3)_n for q in the joint P/Q ansatz."""
    if family in (FitFamily.P_K, FitFamily.Q_K):
        parts = (
            (pochhammer(Fraction(7, 6), n) / pochhammer(k + Fraction(4, 3), n), FitFamily.P_K),
            (pochhammer(Fraction(5, 6), n) / pochhammer(k + Fraction(5, 3), n), FitFamily.Q_K))
    else:
        parts = ((Fraction(1), family),)
    return [w * n**a for w, f in parts for a in range(claimed_degree(f, k) + 1)]


def reference_fit(family, k, held_out=5):
    """The coefficients fitted over Fraction, each held-out point checked."""
    size = len(reference_row(family, k, 0))
    sol = reference_solve([reference_row(family, k, n) for n in range(size)],
                          [reference_target(family, k, n) for n in range(size)])
    for n in range(size, size + held_out):
        row = reference_row(family, k, n)
        assert sum(c * w for c, w in zip(sol, row)) == reference_target(family, k, n), n
    if family in (FitFamily.P_K, FitFamily.Q_K):
        n_p = claimed_degree(FitFamily.P_K, k) + 1
        sol = sol[:n_p] if family is FitFamily.P_K else sol[n_p:]
    return tuple(sol)


def reference_claims(family, k, coeffs):
    """Degree, leading coefficient, (n+1) divisibility and printed row, over
    Fraction: the degree of the coefficients, and the claims as printed."""
    degree = max((d for d, c in enumerate(coeffs) if c), default=0)
    leading = leading_ok = divisible = printed = None
    if family is FitFamily.S_K:
        leading = Fraction(1, math.factorial(k) * math.factorial(k + 1))
        leading_ok = coeffs[degree] == leading
    if family in (FitFamily.S_K, FitFamily.R_K) and k >= 1:
        divisible = sum(c * (-1) ** a for a, c in enumerate(coeffs)) == 0
    rows = {FitFamily.S_K: S_EXPECTED, FitFamily.R_K: R_EXPECTED}
    if family in rows and k in rows[family] and (family, k) != (FitFamily.S_K, 0):
        printed = coeffs == rows[family][k]
    elif k == 1 and family in (FitFamily.P_K, FitFamily.Q_K):
        printed = coeffs == (P1_EXPECTED if family is FitFamily.P_K else Q1_EXPECTED)
    return degree, {
        "degree_expected": claimed_degree(family, k),
        "degree_ok": degree == claimed_degree(family, k),
        "leading_expected": None if leading is None else str(leading),
        "leading_ok": leading_ok,
        "divisible_by_n_plus_1": divisible,
        "printed_ok": printed,
    }


# FAMILY_PLAN, and each (family, k) the verify-export benchmark draws
DIFFERENTIAL = sorted({
    *conjectures.FAMILY_PLAN,
    *((FitFamily.S_K, k) for k in range(5)), *((FitFamily.R_K, k) for k in range(1, 5)),
    *((FitFamily.RT_K, k) for k in range(4)), *((FitFamily.P_K, k) for k in range(1, 4)),
    *((FitFamily.Q_K, k) for k in range(1, 4)),
}, key=lambda member: (member[0].value, member[1]))


class TestVerifyGessel:
    def test_printed_range(self):
        assert verify_gessel(16).ok

    def test_rejects_zero(self):
        # F(0; 0, 0) = 1 and the closed form's empty products are 1 by construction
        with pytest.raises(ValueError, match="at least 1"):
            verify_gessel(0)

    def test_beyond_printed_range(self):
        assert verify_gessel(20).ok

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            verify_gessel(-1)

    def test_off_by_one_dp_is_caught(self, monkeypatch):
        # the dp sequence is off by one at F(14; 0, 0), that is at n = 7
        real = conjectures.counts_along

        def bumped(m, n1, n2):
            along = real(m, n1, n2)
            along[14] += 1
            return along

        monkeypatch.setattr(conjectures, "counts_along", bumped)
        check = verify_gessel(16)
        assert not check.ok
        cf = gessel_closed_form(7)
        assert check.first_mismatch == {"n": 7, "dp": str(cf + 1), "closed": str(cf)}
        assert (check.compared, check.nonzero) == (8, 8)


class TestRecurrence:
    def test_coefficient_polynomials_factored(self):
        # ascending-coefficient tuples expand the stated factored forms
        for n in range(10):
            assert sum(
                c * n**e for e, c in enumerate(G_RECURRENCE_POLYS[0])
            ) == (n + 3) * (3 * n + 7) * (3 * n + 8)
            assert sum(
                c * n**e for e, c in enumerate(G_RECURRENCE_POLYS[1])
            ) == -8 * (2 * n + 3) * (18 * n**2 + 54 * n + 35)
            assert sum(
                c * n**e for e, c in enumerate(G_RECURRENCE_POLYS[2])
            ) == 256 * n * (3 * n + 1) * (3 * n + 2)

    def test_boundary_instance(self):
        # at n = 0 the residual is 168 g(1) - 840 g(0), and g(-1) is never read
        def g(n):
            assert n >= 0
            return count_meet(2 * n + 1, 1, 0)

        assert (g(0), g(1)) == (1, 5)
        assert conjectures._recurrence_terms(0, g) == [168 * 5, -840 * 1]
        assert verify_recurrence_g(1, g) == verify_recurrence_g(1)
        assert verify_recurrence_g(1, g).ok

    def test_holds_to_thirty(self):
        check = verify_recurrence_g(30)
        assert check.ok
        assert check.first_mismatch is None
        assert check.detail == {"range_checked": 29}
        assert check.compared == check.nonzero == 30

    def test_perturbed_fails(self):
        bad = lambda n: count_meet(2 * n + 1, 1, 0) + (1 if n == 5 else 0)
        check = verify_recurrence_g(10, bad)
        assert not check.ok
        assert check.first_mismatch is not None
        assert check.first_mismatch["n"] in (4, 5, 6)

    def test_default_g_reads_one_pass(self, monkeypatch):
        # without an injected g the values come from the cone pass; bumping
        # g(5) = F(11; 1, 0) there first breaks the residual at n = 4
        real = conjectures.counts_along
        calls = []

        def bumped(m, n1, n2):
            calls.append((m, n1, n2))
            along = real(m, n1, n2)
            along[11] += 1
            return along

        monkeypatch.setattr(conjectures, "counts_along", bumped)
        check = verify_recurrence_g(10)
        assert calls == [(21, 1, 0)]
        # the same bump of g(5) through an injected g gives the same counterexample
        bad = lambda n: count_meet(2 * n + 1, 1, 0) + (n == 5)
        assert check.first_mismatch["n"] == 4
        assert check == verify_recurrence_g(10, bad)

    def test_rejects_zero_range(self):
        with pytest.raises(ValueError):
            verify_recurrence_g(0)

    def test_neither_reading_of_g_uses_the_memo(self, monkeypatch):
        # the cone pass and a meet count per g(n) both keep no memo
        def refuse(m, n1, n2):
            raise AssertionError("count_walks called")

        monkeypatch.setattr(conjectures, "count_walks", refuse)
        monkeypatch.setattr(walks, "count_walks", refuse)
        before = walks.shared_table().m_max
        assert verify_recurrence_g(41).ok
        assert verify_recurrence_g(41, lambda n: walks.count_meet(2 * n + 1, 1, 0)).ok
        assert walks.shared_table().m_max == before


class TestSolveLinearExact:
    def test_simple_system(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        assert solve_linear_exact(rows, [Fraction(3), Fraction(1)]) == [
            Fraction(2),
            Fraction(1),
        ]

    def test_singular_returns_none(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert solve_linear_exact(rows, [Fraction(0), Fraction(0)]) is None

    @pytest.mark.parametrize("equations", [
        [[1, 2, 0], [2, 4, 0]],
        [[0, 0, 1], [0, 3, 2]],
        # the first column has pivots; the second runs out of them only after it
        [[1, 2, 3, 1], [2, 4, 7, 1], [3, 6, 10, 2]],
    ])
    def test_singular_integer_system_gives_none(self, equations):
        assert conjectures._solve_integer(equations) is None

    @given(st.integers(min_value=1, max_value=5).flatmap(lambda n: st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=n + 1, max_size=n + 1),
        min_size=n, max_size=n)))
    def test_integer_elimination_matches_the_fraction_reference(self, equations):
        # small entries make singular systems common, so both outcomes are drawn
        want = reference_solve([[Fraction(v) for v in eq[:-1]] for eq in equations],
                               [Fraction(eq[-1]) for eq in equations])
        got = conjectures._solve_integer([list(eq) for eq in equations])
        if want is None:
            assert got is None
        else:
            assert got is not None and [Fraction(v, got[1]) for v in got[0]] == want

    @given(st.lists(st.lists(st.builds(Fraction, st.integers(-8, 8), st.integers(1, 9)),
                             min_size=3, max_size=3), min_size=2, max_size=2))
    def test_fraction_view_matches_the_reference(self, equations):
        rows, rhs = [eq[:2] for eq in equations], [eq[2] for eq in equations]
        assert solve_linear_exact(rows, rhs) == reference_solve(rows, rhs)


class TestFits:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_s_family_printed(self, k):
        fit = fit_family(FitFamily.S_K, k)
        assert coeffs(fit) == S_EXPECTED[k]
        assert fit_report(fit, verify_family_claims(fit))["held_out_ok"] >= 5

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_r_family_printed(self, k):
        fit = fit_family(FitFamily.R_K, k)
        assert coeffs(fit) == R_EXPECTED[k]
        assert fit_report(fit, verify_family_claims(fit))["held_out_ok"] >= 5

    def test_pq_printed(self):
        p = fit_family(FitFamily.P_K, 1)
        q = fit_family(FitFamily.Q_K, 1)
        assert coeffs(p) == P1_EXPECTED
        assert coeffs(q) == Q1_EXPECTED

    def test_rt_zero(self):
        fit = fit_family(FitFamily.RT_K, 0)
        assert coeffs(fit) == (Fraction(1), Fraction(2))
        assert fit.degree == 1

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_rt_degree(self, k):
        fit = fit_family(FitFamily.RT_K, k)
        assert fit.degree == 2 * k + 1
        assert fit_report(fit, verify_family_claims(fit))["held_out_ok"] >= 5

    def test_r_zero_refused(self):
        with pytest.raises(ValueError, match="closed form"):
            fit_family(FitFamily.R_K, 0)

    def test_pq_zero_refused(self):
        with pytest.raises(ValueError):
            fit_family(FitFamily.P_K, 0)

    def test_negative_k_refused(self):
        with pytest.raises(ValueError):
            fit_family(FitFamily.S_K, -1)

    def test_s_value_at_zero_is_gessel(self):
        for k in range(9):
            fit = fit_family(FitFamily.S_K, k)
            assert coeffs(fit)[0] == gessel_closed_form(k)

    def test_fit_reproduces_oracle_inside_ansatz(self):
        fit = fit_family(FitFamily.S_K, 2)
        for n in range(12):
            value = sum(c * n**e for e, c in enumerate(coeffs(fit)))
            assert value == count_walks(n + 4, n, 0)

    def test_broken_target_raises_fit_error(self):
        # an off-by-one oracle must be caught at held-out validation
        real = family_target(FitFamily.S_K, 1, 7)
        assert real == count_walks(9, 7, 0)
        bad_targets = {
            n: family_target(FitFamily.S_K, 1, n) + (1 if n == 7 else 0)
            for n in range(20)
        }
        deg = claimed_degree(FitFamily.S_K, 1)
        rows = [[Fraction(n) ** a for a in range(deg + 1)] for n in range(deg + 1)]
        sol = solve_linear_exact(rows, [bad_targets[n] for n in range(deg + 1)])
        assert sol is not None
        fitted = sum(sol[a] * Fraction(7) ** a for a in range(deg + 1))
        assert fitted != bad_targets[7]

    @pytest.mark.parametrize(
        "family, walk, message",
        [
            (FitFamily.S_K, (7, 5, 0), r"conjecture fails at n=5 for \(s, 1\)"),
            (FitFamily.P_K, (12, 0, 1), r"conjecture fails at n=6 for \(p/q, 1\)"),
            (FitFamily.Q_K, (12, 0, 1), r"conjecture fails at n=6 for \(p/q, 1\)"),
            # the last held-out point of r_1 (samples 0..1)
            (FitFamily.R_K, (14, 0, 6), r"conjecture fails at n=6 for \(r, 1\)$"),
            # a sample point: s_1's fit is wrong from the first held-out point on
            (FitFamily.S_K, (3, 1, 0), r"conjecture fails at n=3 for \(s, 1\)$"),
        ],
    )
    def test_held_out_check_in_fit_family(self, monkeypatch, family, walk, message):
        # the oracle is off by one at a single held-out point: F(m; n1, n2)
        # for s_1 at n = 5 (samples 0..2), for the p/q pair at n = 6 (0..3)
        real = conjectures.count_walks
        monkeypatch.setattr(
            conjectures, "count_walks", lambda *t: real(*t) + (t == walk)
        )
        with pytest.raises(FitError, match=message):
            fit_family(family, 1)

    def test_points_past_held_out_are_not_checked(self, monkeypatch):
        # r_1 solves samples 0..1 and checks n = 2..6; F(16; 0, 7) is n = 7
        assert conjectures.HELD_OUT == 5
        real = conjectures.count_walks
        monkeypatch.setattr(
            conjectures, "count_walks", lambda *t: real(*t) + (t == (16, 0, 7))
        )
        assert coeffs(fit_family(FitFamily.R_K, 1)) == R_EXPECTED[1]

    def test_held_out_check_reads_f_tilde(self, monkeypatch):
        # rt_1 solves samples 0..3; f_tilde(13; 0, 5) is its value at n = 5
        real = conjectures.f_tilde
        monkeypatch.setattr(conjectures, "f_tilde", lambda *t: real(*t) + (t == (13, 0, 5)))
        with pytest.raises(FitError, match=r"conjecture fails at n=5 for \(rt, 1\)$"):
            fit_family(FitFamily.RT_K, 1)


@pytest.mark.parametrize("family, k", DIFFERENTIAL, ids=lambda v: getattr(v, "value", v))
def test_integer_fit_equals_the_fraction_reference(family, k):
    """Coefficients and every claim of the integer fit, against the fit
    and claims recomputed over Fraction."""
    want = reference_fit(family, k)
    fit = fit_family(family, k)
    assert coeffs(fit) == want
    assert all(type(a) is int for a in fit.numerators)
    assert fit.denominator > 0 and math.gcd(fit.denominator, *fit.numerators) == 1
    claims = verify_family_claims(fit)
    degree, want_claims = reference_claims(family, k, want)
    assert fit.degree == degree
    assert list(claims.items()) == list(want_claims.items())
    report = fit_report(fit, claims)
    assert report["coeffs"] == [str(c) for c in want]
    assert report["claims"] is claims


class TestClaims:
    def test_s_leading_coefficients(self):
        for k in range(4):
            claims = verify_family_claims(fit_family(FitFamily.S_K, k))
            assert claims["leading_expected"] == str(Fraction(
                1, math.factorial(k) * math.factorial(k + 1)
            ))
            assert claims["leading_ok"] is True
            # s_0 claims degree 0, a value equal to False, and fails no claim
            assert failed_claim(claims) is None

    def test_s2_leading_is_one_twelfth(self):
        fit = fit_family(FitFamily.S_K, 2)
        assert coeffs(fit)[fit.degree] == Fraction(1, 12)

    def test_r_divisibility(self):
        for k in (1, 2, 3):
            fit = fit_family(FitFamily.R_K, k)
            claims = verify_family_claims(fit)
            assert claims["divisible_by_n_plus_1"] is True
            assert fit.degree == 2 * k - 1
            assert failed_claim(claims) is None

    def test_r3_shape(self):
        assert fit_family(FitFamily.R_K, 3).degree == 5

    def test_rt0_degree(self):
        claims = verify_family_claims(fit_family(FitFamily.RT_K, 0))
        assert claims["degree_expected"] == 1
        assert claims["degree_ok"] is True

    def test_failed_claim_names_the_first_false(self):
        claims = {"degree_expected": 2, "degree_ok": True, "leading_expected": None,
                  "leading_ok": False, "divisible_by_n_plus_1": None, "printed_ok": False}
        assert failed_claim(claims) == "leading_ok"

    def test_report_shape(self):
        fit = fit_family(FitFamily.S_K, 1)
        report = fit_report(fit, verify_family_claims(fit))
        assert report["family"] == "s"
        assert report["k"] == 1
        assert report["degree"] == 2
        assert report["coeffs"] == ["2", "5/2", "1/2"]
        assert report["claims"]["degree_ok"] is True
        assert report["claims"]["leading_ok"] is True
        assert report["held_out_ok"] == 5


def printed(source):
    """A printed row: a (family, k) of ``exact.printed_row``, or F201's p or q."""
    return exact.F201_ROWS[source] if isinstance(source, str) else exact.printed_row(*source)


class TestFamiliesAgainstThePrintedTable:
    @pytest.mark.parametrize("family, k, source", [
        *((FitFamily.S_K, k, (exact.ClosedFormFamily.HOR, k)) for k in (1, 2, 3)),
        *((FitFamily.R_K, k, (exact.ClosedFormFamily.VERT, k)) for k in (1, 2, 3)),
        (FitFamily.P_K, 1, "p"),
        (FitFamily.Q_K, 1, "q"),
    ])
    def test_fit_equals_its_printed_row(self, family, k, source):
        row, c = printed(source)
        assert coeffs(fit_family(family, k)) == tuple(Fraction(a, c) for a in row)

    def test_mutated_printed_coefficient_fails_that_fit(self, monkeypatch, capsys):
        poly, c = exact._PRINTED[exact.ClosedFormFamily.VERT, 2]
        monkeypatch.setitem(exact._PRINTED, (exact.ClosedFormFamily.VERT, 2),
                            ((poly[0] + 1, *poly[1:]), c))
        assert cli.main(["verify", "--suite", "families"]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = [(f["family"], f["k"]) for f in report["fits"] if not f["ok"]]
        assert failed == [("r", 2)]
        assert report["ok"] is False

    @pytest.mark.parametrize("family, argv, value", [
        # (n+1) (P_2(n) + 1) / 12 at n = 15, HOR k = 2
        (exact.ClosedFormFamily.HOR, ["--m", "19", "--n1", "15"],
         Fraction(16 * (133 + 74 * 15 + 15 * 15**2 + 15**3), 12)),
        # (n+1) (P_2(n) + 1) / 3 times 4^n (3/2)_n / (4)_n at n = 12, VERT k = 2
        (exact.ClosedFormFamily.VERT, ["--m", "28", "--n2", "12"],
         Fraction(13 * (34 + 32 * 12 + 8 * 12**2), 3) * 4**12 * pochhammer(Fraction(3, 2), 12)
         / pochhammer(4, 12)),
    ])
    def test_printed_row_with_a_remainder_fails_the_closed_count(self, monkeypatch, family,
                                                                 argv, value):
        poly, c = exact._PRINTED[family, 2]
        monkeypatch.setitem(exact._PRINTED, (family, 2), ((poly[0] + 1, *poly[1:]), c))
        assert value.denominator != 1
        message = f"the {family.value} closed form evaluated to the non-integer {value}"
        with pytest.raises(ArithmeticError, match=f"^{message}$"):
            cli.main(["count", *argv, "--method", "closed"])

    def test_dp_count_past_the_fit_points_fails_the_closed_forms(self, monkeypatch):
        # VERT k = 1 at n = 9 is F(20; 0, 9); r_1's points stop at n = 6
        real = conjectures.count_walks
        monkeypatch.setattr(
            conjectures, "count_walks", lambda *t: real(*t) + (t == (20, 0, 9))
        )
        report = conjectures.verify_families()
        assert all(f["ok"] for f in report.detail["fits"])
        assert {name: block["ok"] for name, block in report.detail["closed_forms"].items()} == {
            "f201": True, "vert": False, "hor": True}
        assert report.ok is False
        # the first cell that fails names itself, the counts as strings
        closed = real(20, 0, 9)
        assert report.first_mismatch == {"family": "vert", "k": 1, "n": 9,
                                         "closed": str(closed), "dp": str(closed + 1)}
