import math

import pytest
from hypothesis import given, settings, strategies as st

from faults import bumped_stream
from gesselwalks.pipelines import CheckReport
from gesselwalks.series import (
    TruncSeries3,
    build_G,
    build_H,
    build_K,
    bump_coeff,
    make_series,
    monomial,
    series_add,
    series_mul,
    substitute_x,
    verify_H_equation,
    verify_kernel_equation,
    verify_root_identity,
    x_of_yz,
)
from gesselwalks import cli, series, walks
from gesselwalks.walks import columns, count_walks, f_tilde

CAPS = (6, 6, 6)

# Negative controls for the functional-equation checks: the dp stream with
# one count bumped by 1 (``faults.bumped_stream``), inside the quarter plane
# or on an axis.  The root identity only reads the axis terms of H, so it is
# blind to the interior bump by design.
INTERIOR_BUMP = (4, 2, 1)
AXIS_BUMPS = [(2, 0, 1), (3, 1, 0), (0, 0, 0)]  # y = 0, z = 0, origin


def bump_id(mono):
    return "-".join(map(str, mono))


def bumped_G(caps, bumps):
    """build_G(caps) with each (m, n1, n2): d of ``bumps`` added: the dict
    reference for the same bumps of the dp stream."""
    G = build_G(caps)
    for mono, delta in bumps.items():
        G = bump_coeff(G, mono, delta)
    return G


@st.composite
def stream_bumps(draw, cap, axes=False):
    """Caps up to ``cap`` and one to four distinct reachable cells of layers
    up to ``cap``, each with a bump d from -F(m; n1, n2) to 9; with
    ``axes``, a cell lands on the y = 0 or the z = 0 axis two times in
    three."""
    caps = draw(st.tuples(*[st.integers(0, cap)] * 3))
    bumps = {}
    for _ in range(draw(st.integers(1, 4))):
        axis = draw(st.sampled_from([None, 1, 2])) if axes else None
        if axis == 1:
            m, n1 = 2 * draw(st.integers(0, cap // 2)), 0
        else:
            m = draw(st.integers(0, cap))
            n1 = m % 2 + 2 * draw(st.integers(0, m // 2))
        n2 = 0 if axis == 2 else draw(st.integers(0, (m + n1) // 2))
        bumps[m, n1, n2] = draw(st.integers(-count_walks(m, n1, n2), 9))
    return caps, bumps


def _compare(suite, caps, lhs, rhs, window):
    """The report of comparing two series term by term over the window, in
    ascending exponent order: the reference the packed checks must equal."""
    wx, wy, wz = window
    keys = sorted(
        k
        for k in set(lhs.coeffs) | set(rhs.coeffs)
        if k[0] <= wx and k[1] <= wy and k[2] <= wz
    )
    size = math.prod(max(0, w + 1) for w in window)
    detail = {"caps": caps, "window": window}
    for k in keys:
        lv = lhs.coeffs.get(k, 0)
        rv = rhs.coeffs.get(k, 0)
        if lv != rv:
            first = {"monomial": k, "lhs": str(lv), "rhs": str(rv)}
            return CheckReport(suite, size, len(keys), first, detail)
    return CheckReport(suite, size, len(keys), None, detail)


monos = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
series_st = st.dictionaries(monos, st.integers(min_value=-9, max_value=9), max_size=8).map(
    lambda d: make_series((3, 3, 3), d)
)


@st.composite
def yz_series_st(draw):
    """A series with x cap 0 and random y and z caps up to 8."""
    dy = draw(st.integers(min_value=0, max_value=8))
    dz = draw(st.integers(min_value=0, max_value=8))
    yz = st.tuples(st.just(0), st.integers(0, dy), st.integers(0, dz))
    terms = draw(st.dictionaries(yz, st.integers(min_value=-9, max_value=9), max_size=20))
    return make_series((0, dy, dz), terms)


def on_axes(a):
    """The terms with ey = 0 or ez = 0: a(x,0,z) + a(x,y,0) - a(x,0,0), as a
    series built without make_series."""
    return TruncSeries3(a.caps, {k: c for k, c in a.coeffs.items() if 0 in k[1:]})


def series_sub(a, b):
    """a - b, term by term, for series sharing their caps."""
    return series_add(a, TruncSeries3(b.caps, {k: -c for k, c in b.coeffs.items()}))


def times_root(acc):
    """acc times the kernel root yz/((1+z)(1+y^2 z)) in acc's caps, term by
    term: a shift by yz, then one running division per unit."""
    _, dy, dz = acc.caps
    c = [[0] * (dz + 1) for _ in range(dy + 1)]
    for (_, ey, ez), v in acc.coeffs.items():
        if ey < dy and ez < dz:
            c[ey + 1][ez + 1] = v
    for ey, row in enumerate(c):  # after the shift, row 0 and column 0 are zero
        for ez in range(2, dz + 1):
            row[ez] -= row[ez - 1]  # divide by 1+z
        for ez in range(2, dz + 1) if ey >= 2 else ():
            row[ez] -= c[ey - 2][ez - 1]  # divide by 1+y^2 z
    out = {(0, ey, ez): v for ey, row in enumerate(c) for ez, v in enumerate(row) if v}
    return TruncSeries3(acc.caps, out)


def reference_root(caps, G=None):
    """The root check as a series computation: the axis terms of K times the
    axis terms of G, with the root substituted by Horner in x over dict
    series, one ``times_root`` per step, from the x cap down."""
    G = build_G(caps) if G is None else G
    dx, dy, dz = G.caps
    window = (0, dy, min(dx, dz))
    axes = on_axes(naive_mul(build_K(G.caps), on_axes(G)))
    acc = make_series(window, {})
    for m in range(dx, -1, -1):
        part = [((0, ey, ez), c) for (ex, ey, ez), c in axes.coeffs.items() if ex == m]
        acc = make_series(window, [*times_root(acc).coeffs.items(), *part])
    return _compare("root", caps, acc, monomial(window, 0, 1, 1), window)


def naive_mul(a, b):
    """The truncated product term by term over exponent triples."""
    caps = tuple(map(min, a.caps, b.caps))
    out = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            e = tuple(map(sum, zip(ea, eb)))
            if all(v <= cap for v, cap in zip(e, caps)):
                out[e] = out.get(e, 0) + ca * cb
    return TruncSeries3(caps, {e: c for e, c in out.items() if c})


@st.composite
def capped_series_st(draw):
    """A sparse series with its own caps, each 0 to 4, and coefficients of
    either sign."""
    caps = draw(st.tuples(*[st.integers(0, 4)] * 3))
    terms = st.tuples(*[st.integers(0, cap) for cap in caps])
    return make_series(caps, draw(st.dictionaries(terms, st.integers(-9, 9), max_size=12)))


class TestSeriesRing:
    def test_storage_invariants(self):
        s = make_series((2, 2, 2), {(0, 0, 0): 3, (1, 1, 1): 0, (5, 0, 0): 7})
        assert (1, 1, 1) not in s.coeffs  # zero dropped
        assert (5, 0, 0) not in s.coeffs  # beyond cap dropped
        assert s.coeff((0, 0, 0)) == 3

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            make_series((2, 2, 2), {(-1, 0, 0): 1})

    def test_difference_of_squares(self):
        caps = (2, 0, 0)
        one_plus = make_series(caps, {(0, 0, 0): 1, (1, 0, 0): 1})
        one_minus = make_series(caps, {(0, 0, 0): 1, (1, 0, 0): -1})
        prod = series_mul(one_plus, one_minus)
        assert prod.coeffs == {(0, 0, 0): 1, (2, 0, 0): -1}

    def test_multiplication_by_zero(self):
        zero = make_series(CAPS, {})
        G = build_G(CAPS)
        assert series_mul(G, zero).coeffs == {}

    def test_multiplication_by_one(self):
        one = monomial(CAPS, 0, 0, 0)
        G = build_G(CAPS)
        assert series_mul(G, one).coeff((2, 0, 0)) == 2

    def test_cap_mismatch_rejected(self):
        a = make_series((2, 2, 2), {})
        b = make_series((3, 2, 2), {})
        with pytest.raises(ValueError):
            series_add(a, b)

    @settings(max_examples=40, deadline=None)
    @given(a=series_st, b=series_st, c=series_st)
    def test_addition_associative(self, a, b, c):
        assert series_add(series_add(a, b), c) == series_add(a, series_add(b, c))

    @settings(max_examples=40, deadline=None)
    @given(a=series_st, b=series_st)
    def test_multiplication_commutative(self, a, b):
        assert series_mul(a, b) == series_mul(b, a)

    @settings(max_examples=200, deadline=None)
    @given(a=capped_series_st(), b=capped_series_st())
    def test_product_matches_the_naive_product(self, a, b):
        assert series_mul(a, b) == naive_mul(a, b)

    def test_product_keeps_sums_on_the_caps_and_drops_sums_past_them(self):
        # a sum one past a cap must not carry into the next exponent
        caps = (3, 2, 4)
        a = make_series(caps, {(1, 1, 2): 2, (1, 0, 3): -3, (0, 2, 4): 5, (3, 0, 0): 1})
        b = make_series(caps, {(2, 1, 2): 7, (2, 0, 2): 1, (1, 1, 0): -1, (0, 0, 1): 4})
        prod = series_mul(a, b)
        assert prod.coeff((3, 2, 4)) == 2 * 7  # lands exactly on every cap
        assert prod.coeff((3, 1, 0)) == 0  # (1,0,3)*(2,0,2) lands at ez = 5
        assert prod == naive_mul(a, b)

    @pytest.mark.parametrize("caps", [(6, 6, 6), (9, 3, 5), (4, 0, 4), (0, 4, 4)])
    def test_product_with_a_bare_operand(self, caps):
        # on_axes builds its series without make_series
        K, axes = build_K(caps), on_axes(build_G(caps))
        assert series_mul(K, axes) == series_mul(axes, K) == naive_mul(K, axes)

    @settings(max_examples=40, deadline=None)
    @given(a=series_st, b=series_st, c=series_st)
    def test_distributive(self, a, b, c):
        lhs = series_mul(a, series_add(b, c))
        rhs = series_add(series_mul(a, b), series_mul(a, c))
        assert lhs == rhs


class TestBuildG:
    def test_constant_term(self):
        assert build_G(CAPS).coeff((0, 0, 0)) == 1

    def test_single_east_step(self):
        assert build_G(CAPS).coeff((1, 1, 0)) == 1

    def test_two_step_vertical(self):
        assert build_G(CAPS).coeff((2, 0, 1)) == 1

    def test_every_coefficient_is_a_count(self):
        G = build_G((5, 5, 5))
        for m in range(6):
            for n1 in range(6):
                for n2 in range(6):
                    assert G.coeff((m, n1, n2)) == count_walks(m, n1, n2)

    def test_unequal_caps_cut_each_axis(self):
        caps = (9, 3, 5)
        expected = {
            (m, n1, n2): count_walks(m, n1, n2)
            for m in range(10)
            for n1 in range(4)
            for n2 in range(6)
            if count_walks(m, n1, n2)
        }
        assert build_G(caps) == make_series(caps, expected)

    @pytest.mark.parametrize("caps", [(80, 10, 10), (12, 20, 6), (20, 6, 12), (5, 5, 30)])
    def test_unequal_caps_equal_the_full_build_cut(self, caps):
        """build_G cuts each column before it unpacks it; the full table's
        records, cut by make_series, are the reference."""
        full = columns(caps[0])
        assert build_G(caps) == make_series(
            caps, (((m, n1, n2), v) for m, n1, counts in full for n2, v in enumerate(counts))
        )

    @pytest.mark.parametrize("caps", [(-1, 3, 3), (3, -1, 3), (3, 3, -1)])
    def test_negative_cap_gives_the_empty_series(self, caps):
        assert build_G(caps) == make_series(caps, {})


class TestKernel:
    def test_K_has_five_monomials(self):
        K = build_K(CAPS)
        assert K.coeffs == {
            (1, 0, 0): 1,
            (1, 0, 1): 1,
            (1, 2, 1): 1,
            (1, 2, 2): 1,
            (0, 1, 1): -1,
        }

    def test_kernel_equation_holds(self):
        report = verify_kernel_equation((8, 8, 8))
        assert report
        assert report.detail == {"caps": (8, 8, 8), "window": (7, 6, 6)}
        assert report.compared == 8 * 7 * 7 == 392
        assert report.nonzero > 0
        assert report.first_mismatch is None

    def test_kernel_equation_degenerate_caps(self):
        # nothing lies in the window, so the check must not pass
        report = verify_kernel_equation((1, 1, 1))
        assert not report
        assert report.compared == report.nonzero == 0
        assert report.first_mismatch is None

    @pytest.mark.parametrize("mono", [INTERIOR_BUMP, *AXIS_BUMPS], ids=bump_id)
    def test_kernel_equation_mutated_fails(self, mono):
        with bumped_stream({mono: 1}):
            report = verify_kernel_equation((8, 8, 8))
        assert not report
        assert report.first_mismatch is not None
        assert report.first_mismatch["lhs"] != report.first_mismatch["rhs"]


class TestBuildH:
    def test_origin_diagonal(self):
        H = build_H((9, 4, 4))
        for n in range(4):
            assert H.coeff((2 * n + 1, 0, 0)) == count_walks(2 * n, 0, 0)

    def test_mixed_monomials_vanish(self):
        H = build_H((7, 7, 7))
        # mixed terms determined by the truncation: ey <= dy-2, ez <= dz-2
        for (ex, ey, ez), c in H.coeffs.items():
            if ey >= 1 and ez >= 1 and ex <= 6 and ey <= 5 and ez <= 5:
                assert c == 0

    def test_vertical_example(self):
        assert build_H((4, 4, 4)).coeff((3, 0, 1)) == 3

    def test_sections_match_f_tilde(self):
        H = build_H((7, 7, 7))
        for m in range(7):
            for n2 in range(6):
                assert H.coeff((m, 0, n2)) == f_tilde(m, 0, n2)
            for n1 in range(6):
                assert H.coeff((m, n1, 0)) == f_tilde(m, n1, 0)

    def test_H_equation_holds(self):
        report = verify_H_equation((8, 8, 8))
        assert report
        assert report.detail["window"] == (7, 6, 6)

    @pytest.mark.parametrize("mono", [INTERIOR_BUMP, *AXIS_BUMPS], ids=bump_id)
    def test_H_equation_mutated_fails(self, mono):
        with bumped_stream({mono: 1}):
            assert not verify_H_equation((8, 8, 8))


class TestPackedChecks:
    """The kernel and H checks compare packed z-columns; the reference here
    builds both sides term by term with ``naive_mul`` and compares them with
    ``_compare``, over the same window."""

    @staticmethod
    def reference(check, caps, G=None):
        dx, dy, dz = caps
        window = (dx - 1, dy - 2, dz - 2)
        suite = "kernel" if check is verify_kernel_equation else "hkernel"
        if min(window) < 0:
            empty = make_series(window, {})
            return _compare(suite, caps, empty, empty, window)
        G = build_G(window) if G is None else make_series(window, G.coeffs)
        K, yz = build_K(window), monomial(window, 0, 1, 1)
        if check is verify_kernel_equation:
            x_1z = make_series(window, {(1, 0, 0): 1, (1, 0, 1): 1})
            rhs = series_sub(on_axes(naive_mul(x_1z, G)), yz)
            return _compare(suite, caps, naive_mul(K, G), rhs, window)
        H = series_add(naive_mul(K, G), yz)
        return _compare(suite, caps, H, on_axes(H), window)

    CHECKS = [verify_kernel_equation, verify_H_equation]

    @pytest.mark.parametrize("check", CHECKS)
    def test_equal_caps(self, check):
        for c in range(15):
            assert check((c, c, c)) == self.reference(check, (c, c, c)), c

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize(
        "caps", [(9, 3, 5), (12, 20, 6), (20, 6, 12), (5, 5, 30), (3, 9, 2), (14, 2, 2),
                 (2, 14, 14), (1, 2, 2), (30, 2, 3)]
    )
    def test_unequal_caps(self, check, caps):
        assert check(caps) == self.reference(check, caps)

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("mono", [INTERIOR_BUMP, *AXIS_BUMPS], ids=bump_id)
    def test_bumps_give_the_reference_mismatch(self, check, mono):
        for caps in ((8, 8, 8), (24, 24, 24)):
            expected = self.reference(check, caps, bumped_G(caps, {mono: 1}))
            with bumped_stream({mono: 1}):
                report = check(caps)
            assert report == expected, caps
            assert report.first_mismatch is not None

    @settings(max_examples=150, deadline=None)
    @given(case=stream_bumps(9))
    def test_signed_bumps_give_the_reference_report(self, case):
        caps, bumps = case
        G = bumped_G(caps, bumps)
        expected = [self.reference(check, caps, G) for check in self.CHECKS]
        with bumped_stream(bumps):
            assert [check(caps) for check in self.CHECKS] == expected


class TestRoot:
    def test_expansion_coefficients(self):
        X = x_of_yz((0, 6, 6))
        assert X.coeff((0, 1, 1)) == 1
        assert X.coeff((0, 2, 1)) == 0
        assert X.coeff((0, 1, 2)) == -1
        assert X.coeff((0, 0, 0)) == 0

    def test_only_odd_y_powers(self):
        X = x_of_yz((0, 8, 8))
        assert all(ey % 2 == 1 for (_, ey, _) in X.coeffs)

    def test_kills_the_kernel(self):
        # K(x(y,z), y, z) vanishes; the cancellation is exact on the full box
        X = x_of_yz((0, 8, 8))
        K = build_K((8, 8, 8))
        composed = substitute_x(K, X)
        assert composed.coeffs == {}

    def test_substitution_into_geometric_series(self):
        caps = (6, 6, 6)
        X = x_of_yz((0, 6, 6))
        geom = make_series(caps, {(m, 0, 0): 1 for m in range(1, 7)})
        via_compose = substitute_x(geom, X)
        acc = make_series((0, 6, 6), {})
        power = monomial((0, 6, 6), 0, 0, 0)
        for _ in range(1, 7):
            power = series_mul(power, X)
            acc = series_add(acc, power)
        assert via_compose == acc

    def test_root_identity_holds(self):
        for c in (10, 40):
            report = verify_root_identity((c, c, c))
            assert report
            assert report.detail["window"] == (0, c, c)

    def test_root_identity_compares_the_whole_window(self):
        # every exponent of the window is compared; only yz is nonzero
        report = verify_root_identity((24, 24, 24))
        assert report
        assert report.detail["window"] == (0, 24, 24)
        assert report.compared == 625
        assert report.nonzero == 1

    def test_root_identity_lhs_coefficients(self):
        # passing means the left side is exactly the monomial y*z
        report = verify_root_identity((8, 8, 8))
        assert report.ok
        assert report.first_mismatch is None

    @pytest.mark.parametrize(
        "caps", [(6, 6, 6), (24, 24, 24), (10, 4, 7), (3, 9, 2), (12, 20, 6), (1, 5, 3)]
    )
    def test_axis_terms_of_H_read_only_the_axis_terms_of_G(self, caps):
        # what the root check builds in place of all of H
        G = build_G(caps)
        axes = on_axes(series_mul(build_K(caps), on_axes(G)))
        assert axes == on_axes(build_H(caps))
        assert axes.coeffs

    def test_axis_terms_of_G_read_off_the_layer_stream(self):
        def trimmed(terms):
            return [[v[:max((i + 1 for i, c in enumerate(v) if c), default=0)] for v in pair]
                    for pair in terms]

        # the root check reads them only for a z window of at least 1
        for caps in [*((c, c, c) for c in range(1, 41, 4)), (10, 4, 7), (3, 9, 2),
                     (12, 20, 6), (30, 0, 5), (30, 5, 1)]:
            dx, dy, dz = caps
            wz = min(dx, dz)
            G = build_G(caps)
            whole = [([G.coeff((m, n1, 0)) for n1 in range(dy + 1)],
                      [G.coeff((m, 0, n2)) for n2 in range(wz + 1)]) for m in range(wz)]
            stream = series._axis_terms(dy, wz)
            assert len(stream) == wz, caps
            assert trimmed(stream) == trimmed(whole), caps

    @pytest.mark.parametrize("mono", AXIS_BUMPS, ids=bump_id)
    def test_root_identity_mutated_fails(self, mono):
        for caps in ((8, 8, 8), (24, 24, 24)):
            expected = reference_root(caps, bumped_G(caps, {mono: 1}))
            with bumped_stream({mono: 1}):
                report = verify_root_identity(caps)
            assert report == expected
            assert not report
            assert report.first_mismatch is not None

    def test_root_identity_is_blind_to_the_interior_bump(self):
        # it reads only the axis terms of G, and (4, 2, 1) is on neither axis
        for caps in ((8, 8, 8), (24, 24, 24)):
            expected = reference_root(caps, bumped_G(caps, {INTERIOR_BUMP: 1}))
            with bumped_stream({INTERIOR_BUMP: 1}):
                report = verify_root_identity(caps)
            assert report == expected == verify_root_identity(caps)
            assert report

    @pytest.mark.parametrize("caps", [(0, 0, 0), (5, 0, 5), (5, 5, 0), (0, 5, 5), (8, 0, 8)])
    def test_root_window_without_yz_is_reported_before_g_is_built(self, monkeypatch, caps):
        dx, dy, dz = caps
        window = (0, dy, min(dx, dz))
        H = build_H(caps)
        lhs = substitute_x(on_axes(H), x_of_yz(window))
        computed = _compare("root", caps, lhs, monomial(window, 0, 1, 1), window)
        assert computed == CheckReport("root", (dy + 1) * (min(dx, dz) + 1), 0, None,
                                       {"caps": caps, "window": window})
        assert not computed

        def refuse(*args):
            raise AssertionError("dp started")

        monkeypatch.setattr(series, "build_G", refuse)
        monkeypatch.setattr(walks, "layers", refuse)
        assert verify_root_identity(caps) == computed

    def test_substitution_requires_zero_constant(self):
        with pytest.raises(ValueError):
            substitute_x(build_G(CAPS), monomial((0, 2, 2), 0, 0, 0))

    def test_substitution_requires_no_x_dependence(self):
        # the product's x cap 0 would otherwise drop the x term silently
        x_series = make_series((1, 3, 3), {(0, 1, 1): 1, (1, 1, 1): 5})
        with pytest.raises(ValueError, match="no x dependence"):
            substitute_x(make_series((3, 3, 3), {(1, 0, 0): 1}), x_series)

    @settings(max_examples=60, deadline=None)
    @given(acc=yz_series_st())
    def test_root_step_is_product_with_expansion(self, acc):
        assert times_root(acc) == series_mul(acc, x_of_yz(acc.caps))

    def test_expansion_is_the_rational_form(self):
        # x_of_yz * (1+z)(1+y^2 z) == yz ties the expansion to the form the
        # root step divides by
        caps = (0, 12, 12)
        units = make_series(caps, {(0, 0, 0): 1, (0, 0, 1): 1, (0, 2, 1): 1, (0, 2, 2): 1})
        assert series_mul(x_of_yz(caps), units) == monomial(caps, 0, 1, 1)


class TestPackedRoot:
    """The root check substitutes the root over packed rows; ``reference_root``
    does it over dict series, and every report field must agree."""

    def test_equal_caps(self):
        for c in range(21):
            assert verify_root_identity((c, c, c)) == reference_root((c, c, c)), c

    @pytest.mark.parametrize(
        "caps", [(9, 3, 5), (12, 20, 6), (20, 6, 12), (5, 5, 30), (3, 9, 2), (14, 1, 1),
                 (2, 14, 14), (1, 2, 2), (30, 2, 3), (0, 6, 6), (6, 0, 6), (6, 6, 0),
                 (0, 0, 0), (17, 11, 1), (1, 17, 11)]
    )
    def test_unequal_and_zero_caps(self, caps):
        assert verify_root_identity(caps) == reference_root(caps)

    @settings(max_examples=150, deadline=None)
    @given(case=stream_bumps(14, axes=True))
    def test_signed_bumps_give_the_reference_report(self, case):
        caps, bumps = case
        expected = reference_root(caps, bumped_G(caps, bumps))
        with bumped_stream(bumps):
            assert verify_root_identity(caps) == expected

    def test_axis_bumps_change_the_report(self):
        # x^(m+1) r^(m+1) carries y^(m+1) z^(m+1), so each bump lands in the window
        caps = (20, 20, 20)
        for mono in [(0, 0, 0), (18, 0, 0), (3, 1, 0), (4, 0, 2), (5, 5, 0), (17, 1, 0)]:
            for delta in (9, -count_walks(*mono)):
                expected = reference_root(caps, bumped_G(caps, {mono: delta}))
                with bumped_stream({mono: delta}):
                    report = verify_root_identity(caps)
                assert report == expected
                assert not report and report.first_mismatch is not None

    def test_cli_root_reads_the_dp_stream_alone(self, monkeypatch, capsys):
        # the packed root check builds no series, G or table columns, also
        # when it refuses a window without yz
        def refuse(*args, **kwargs):
            raise AssertionError("series path used")

        for name in ("TruncSeries3", "make_series", "monomial", "series_mul", "build_G"):
            monkeypatch.setattr(series, name, refuse)
        monkeypatch.setattr(walks, "columns", refuse)
        for caps in ("20,20,20", "1,1,1"):
            assert cli.main(["verify", "--suite", "root", "--caps", caps]) == 0
            assert '"ok": true' in capsys.readouterr().out
        for caps in ("0,0,0", "5,0,5"):
            assert cli.main(["verify", "--suite", "root", "--caps", caps]) == 2
            assert "nothing to compare" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bumps", [{(3, 0, 0): 1}, {(4, 2, 4): 1}, {(2, 0, 1): 10}, {(2, 0, 1): -2}],
    ids=["parity", "cone", "above-9", "below-zero"],
)
def test_a_bump_outside_the_stream_domain_is_refused(bumps):
    # an unreachable cell, or a bumped count below 0 or more than 9 above F
    layers = walks.layers
    with pytest.raises(ValueError, match="outside the stream's domain"):
        with bumped_stream(bumps):
            pass
    assert walks.layers is layers
