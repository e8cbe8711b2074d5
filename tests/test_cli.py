"""End-to-end checks of the gessel-walks command line, run in process."""

import csv
import importlib
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from faults import bumped_stream
from gesselwalks import cli, conjectures, exact, triangular, walks
from oracles import H24_ROWS, dense_rows


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_dp_text(self, capsys):
        code, out, err = run_cli(capsys, "count", "--m", "4")
        assert code == 0
        assert out == "11  method=dp\n"

    def test_unreachable_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "3")
        assert code == 0
        assert out == "0  method=dp\n"

    def test_methods_agree(self, capsys):
        results = []
        for method in ("dp", "closed", "det", "solve"):
            code, out, _ = run_cli(capsys, "count", "--m", "6", "--method", method)
            assert code == 0
            results.append(out.split()[0])
        assert results == ["85"] * 4

    def test_multisum(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "2", "--method", "multisum")
        assert code == 0
        assert out.split()[0] == "2"

    def test_multisum_zero_steps(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "0", "--method", "multisum")
        assert code == 0
        assert out.split()[0] == "1"

    def test_multisum_span_refusal(self, capsys):
        code, _, err = run_cli(capsys, "count", "--m", "8", "--method", "multisum")
        assert code == 2
        assert "chain explosion" in err

    def test_multisum_wider_span(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--m", "8", "--method", "multisum", "--max-span", "4"
        )
        assert code == 2
        assert "limit 4" in err

    def test_max_span_below_one_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "count", "--m", "0", "--method", "multisum", "--max-span", "-1"
        )
        assert code == 2
        assert out == ""
        assert err == "error: max_span must be at least 1\n"

    def test_solve_boundary(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--m", "9", "--n1", "3", "--method", "solve"
        )
        assert code == 0
        assert out.split()[0] == "2096"

    def test_solve_vertical(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--m", "8", "--n2", "2", "--method", "solve"
        )
        assert code == 0
        assert out.split()[0] == "387"

    def test_solve_interior_refused(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--m", "6", "--n1", "2", "--n2", "1", "--method", "solve"
        )
        assert code == 2
        assert "error:" in err

    def test_closed_axis(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--m", "5", "--n1", "1", "--method", "closed"
        )
        assert code == 0
        dp = walks.count_walks(5, 1, 0)
        assert out.split()[0] == str(dp)

    def test_closed_uncovered(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--m", "6", "--n1", "2", "--n2", "1", "--method", "closed"
        )
        assert code == 2
        assert "no closed form" in err

    def test_det_requires_origin(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--m", "4", "--n1", "2", "--method", "det"
        )
        assert code == 2
        assert "error:" in err

    def test_negative_m(self, capsys):
        code, _, err = run_cli(capsys, "count", "--m", "-2")
        assert code == 2
        assert "nonnegative" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"m": 8, "n1": 0, "n2": 0, "method": "dp", "F": "782"}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "8", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["m", "n1", "n2", "method", "F"]
        assert rows[1] == ["8", "0", "0", "dp", "782"]

    def test_unknown_method_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["count", "--m", "4", "--method", "magic"])
        capsys.readouterr()


class TestVerify:
    def test_gessel(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "gessel", "--N", "8")
        assert code == 0
        report = json.loads(out)
        assert report["suite"] == "gessel"
        assert report["ok"] is True
        assert report["first_mismatch"] is None

    def test_kernel(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "kernel", "--caps", "6,6,6"
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["window"] == [5, 4, 4]
        assert report["compared"] == 6 * 5 * 5
        assert report["nonzero"] > 0

    def test_hkernel(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "hkernel", "--caps", "6,6,6"
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_root(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "root", "--caps", "6,6,6")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["window"] == [0, 6, 6]

    def test_recurrence(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "recurrence_g", "--N", "10"
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["range_checked"] == 9

    def test_cross_pipeline(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "cross_pipeline", "--k-max", "60"
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["entries_checked"] == 61
        assert [row["n"] for row in report["gessel_indices"]] == [0, 1, 2]

    def test_families(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "families")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert len(report["fits"]) == 12
        assert all(entry["ok"] for entry in report["fits"])
        assert all(block["ok"] for block in report["closed_forms"].values())

    @pytest.mark.parametrize("suite", sorted(cli._SUITES))
    def test_one_layout_and_one_vacuity_rule(self, capsys, monkeypatch, suite):
        # every suite, at its default size, prints the one layout and passes
        # on a nonzero count; the same record with nonzero = 0 is refused
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        report = json.loads(out)
        assert code == 0
        assert list(report)[0] == "suite"
        assert list(report)[-4:] == ["ok", "compared", "nonzero", "first_mismatch"]
        assert report["ok"] is True and report["first_mismatch"] is None
        assert report["compared"] >= report["nonzero"] > 0
        *_, home, name = cli._SUITES[suite]
        module = importlib.import_module(f"gesselwalks.{home}")
        real = getattr(module, name)
        records = []

        def vacuous(*size):
            records.append(real(*size)._replace(nonzero=0))
            return records[-1]

        monkeypatch.setattr(module, name, vacuous)
        err = self.refused(capsys, "--suite", suite)
        assert f"leave the {suite} check nothing to compare" in err
        [record] = records
        assert record.suite == suite
        assert not record.ok and not record
        assert record._replace(nonzero=1).ok

    @pytest.mark.parametrize("suite, sized", [
        ("gessel", "--N 16"), ("kernel", "--caps 10,10,10"), ("hkernel", "--caps 10,10,10"),
        ("root", "--caps 10,10,10"), ("cross_pipeline", "--k-max 200"),
        ("recurrence_g", "--N 30"), ("families", "the defaults"),
    ])
    def test_a_suite_refusing_its_size_is_a_usage_error(self, capsys, monkeypatch, suite, sized):
        *_, home, name = cli._SUITES[suite]

        def refuse(*size):
            raise ValueError("no such size")

        monkeypatch.setattr(importlib.import_module(f"gesselwalks.{home}"), name, refuse)
        assert self.refused(capsys, "--suite", suite) == f"error: {sized} refused: no such size\n"

    def test_bad_caps(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--suite", "kernel", "--caps", "6,6"
        )
        assert code == 2
        assert "comma-separated" in err

    def refused(self, capsys, *argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        return err

    def test_gessel_negative_n_refused(self, capsys):
        assert "--N" in self.refused(capsys, "--suite", "gessel", "--N", "-1")

    def test_gessel_zero_n_refused(self, capsys):
        # at n = 0 the dp and the closed form are both 1 by construction
        err = self.refused(capsys, "--suite", "gessel", "--N", "0")
        assert err == "error: --N must be at least 1 for suite gessel\n"

    def test_recurrence_zero_n_refused(self, capsys):
        assert "--N" in self.refused(capsys, "--suite", "recurrence_g", "--N", "0")

    def test_cross_pipeline_negative_k_refused(self, capsys):
        err = self.refused(capsys, "--suite", "cross_pipeline", "--k-max", "-1")
        assert "--k-max" in err

    @pytest.mark.parametrize("k_max", ["0", "3", "23"])
    def test_cross_pipeline_k_below_first_origin_refused(self, capsys, k_max):
        # the n = 0 row alone reads 1 in every pipeline by construction
        err = self.refused(capsys, "--suite", "cross_pipeline", "--k-max", k_max)
        assert "--k-max" in err
        assert f"at least {triangular.origin_index(1)}," in err

    def test_cross_pipeline_at_its_floor_compares_n_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "cross_pipeline", "--k-max", "24"
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert [(row["n"], row["det"]) for row in report["gessel_indices"]] == [
            (0, "1"), (1, "2")]

    def test_kernel_empty_window_refused(self, capsys):
        err = self.refused(capsys, "--suite", "kernel", "--caps", "1,1,1")
        assert "nothing to compare" in err

    @staticmethod
    def refuse_dp(monkeypatch):
        """Make ``series.build_G`` and the dp's layer stream raise when called."""
        from gesselwalks import series

        def refuse(*args):
            raise AssertionError("dp started")

        monkeypatch.setattr(series, "build_G", refuse)
        monkeypatch.setattr(walks, "layers", refuse)

    @pytest.mark.parametrize("suite", ["kernel", "hkernel"])
    def test_negative_window_refused_before_g_is_built(self, capsys, monkeypatch, suite):
        self.refuse_dp(monkeypatch)
        err = self.refused(capsys, "--suite", suite, "--caps", "600,1,1")
        assert err == (f"error: --caps 600,1,1 leave the {suite} check nothing "
                       "to compare (window 599,-1,-1)\n")

    @pytest.mark.parametrize("suite", ["kernel", "hkernel"])
    def test_kernel_checks_build_no_series(self, capsys, monkeypatch, suite):
        # the packed z-columns come from walks.layers, which stays live here;
        # an empty window is refused without a series too
        from gesselwalks import series

        def refuse(*args):
            raise AssertionError("series built")

        for name in ("TruncSeries3", "make_series", "monomial", "series_mul", "build_G"):
            monkeypatch.setattr(series, name, refuse)
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--caps", "20,20,20")
        assert code == 0
        assert json.loads(out)["ok"] is True
        for caps in ("1,1,1", "0,0,0"):
            assert "nothing to compare" in self.refused(capsys, "--suite", suite, "--caps", caps)

    @pytest.mark.parametrize(
        "suite, cell, monomial",
        [("kernel", (4, 2, 1), [4, 3, 2]), ("hkernel", (4, 2, 1), [4, 3, 2]),
         ("root", (2, 0, 1), [0, 3, 4])],
    )
    def test_a_bumped_dp_stream_fails_the_suite(self, capsys, suite, cell, monomial):
        # the negative control bumps the stream the CLI reads, by 1 at one cell
        with bumped_stream({cell: 1}):
            code, out, err = run_cli(capsys, "verify", "--suite", suite, "--caps", "10,10,10")
        report = json.loads(out)
        assert (code, err, report["ok"]) == (1, "", False)
        assert report["first_mismatch"]["monomial"] == monomial

    def test_root_empty_window_refused(self, capsys):
        err = self.refused(capsys, "--suite", "root", "--caps", "0,0,0")
        assert "nothing to compare" in err

    def test_root_window_without_yz_refused_before_g_is_built(self, capsys, monkeypatch):
        self.refuse_dp(monkeypatch)
        err = self.refused(capsys, "--suite", "root", "--caps", "600,0,0")
        assert err == ("error: --caps 600,0,0 leave the root check nothing "
                       "to compare (window 0,0,0)\n")

    def test_n_refused_outside_gessel_and_recurrence(self, capsys):
        err = self.refused(capsys, "--suite", "kernel", "--N", "100")
        assert "--N does not apply to suite kernel" in err

    def test_k_max_refused_outside_cross_pipeline(self, capsys):
        err = self.refused(capsys, "--suite", "families", "--k-max", "5")
        assert "--k-max does not apply to suite families" in err

    def test_format_refused(self, capsys):
        # the report is always JSON, so --format is not a verify option
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "gessel", "--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["kernel", "hkernel", "root"])
    def test_empty_caps_is_malformed_for_series_suites(self, capsys, suite):
        err = self.refused(capsys, "--suite", suite, "--caps", "")
        assert "--caps wants three comma-separated integers" in err

    def test_empty_caps_refused_outside_series_suites(self, capsys):
        err = self.refused(capsys, "--suite", "gessel", "--caps", "")
        assert "--caps does not apply to suite gessel" in err

    def test_caps_refused_outside_series_suites(self, capsys):
        err = self.refused(capsys, "--suite", "gessel", "--caps", "1,1,1")
        assert "--caps does not apply to suite gessel" in err


class TestUniversal:
    def test_third_row(self, capsys):
        code, out, _ = run_cli(capsys, "universal", "--i", "3")
        assert code == 0
        assert out == "1, 5, 11, 19, 10, 2\n"

    def test_first_row(self, capsys):
        code, out, _ = run_cli(capsys, "universal", "--i", "1")
        assert code == 0
        assert out == "1, 1\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "universal", "--i", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["length"] == 8
        assert payload["values"][0] == 1
        assert payload["values"][-1] == 5

    def test_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "universal", "--i", "0")
        assert code == 2
        assert "at least 1" in err


class TestFit:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--family", "s", "--k", "1")
        assert code == 0
        assert "degree 2" in out
        assert "[2, 5/2, 1/2]" in out
        assert "claims_ok=True" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--family", "r", "--k", "1", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["coeffs"] == ["2", "2"]
        assert report["claims"]["divisible_by_n_plus_1"] is True

    def test_r_zero_refused(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--family", "r", "--k", "0")
        assert code == 2
        assert "closed form" in err

    def test_unknown_family_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fit", "--family", "z", "--k", "1"])
        capsys.readouterr()


class TestTable:
    def test_jsonl(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--m-max", "4")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert all(rec["m"] <= 4 for rec in records)
        by_key = {(r["m"], r["n1"], r["n2"]): r["F"] for r in records}
        assert by_key[(0, 0, 0)] == "1"
        assert by_key[(4, 0, 0)] == "11"
        assert by_key[(2, 2, 1)] == "2"
        assert (3, 0, 0) not in by_key

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--m-max", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["m", "n1", "n2", "F"]
        assert ["2", "0", "0", "2"] in rows

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_bytes_match_json_dumps_and_csv_writer(self, capsys, fmt):
        # the expected records come from the single-target pass, not from the
        # table the export reads
        records = sorted(
            (m, n1, n2, v)
            for n1 in range(31)
            for n2 in range(31)
            for m, v in enumerate(walks.counts_along(30, n1, n2))
            if walks.reachable(m, n1, n2)
        )
        if fmt == "csv":
            expected = io.StringIO()
            w = csv.writer(expected)
            w.writerow(["m", "n1", "n2", "F"])
            w.writerows(records)
            expected = expected.getvalue()
        else:
            expected = "".join(
                json.dumps({"m": m, "n1": n1, "n2": n2, "F": str(v)}) + "\n"
                for m, n1, n2, v in records
            )
        code, out, _ = run_cli(capsys, "table", "--m-max", "30", "--format", fmt)
        assert code == 0
        assert out == expected


class TestHessenberg:
    def test_det_text(self, capsys):
        code, out, _ = run_cli(capsys, "hessenberg", "--n", "1")
        assert code == 0
        assert out == "det=2 size=20 k=24\n"

    def test_empty_window(self, capsys):
        code, out, _ = run_cli(capsys, "hessenberg", "--n", "0")
        assert code == 0
        assert out == "det=1 size=0 k=4\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "hessenberg", "--n", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["det"] == "11"
        assert payload["k"] == 60

    def test_dump_matches_frozen_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "hessenberg", "--n", "1", "--dump")
        assert code == 0
        rows = [
            tuple(int(v) for v in row)
            for row in csv.reader(io.StringIO(out))
            if row
        ]
        assert tuple(rows) == H24_ROWS

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_dump_writes_each_row_before_the_next_is_built(self, monkeypatch, fmt):
        """The dump holds one row at a time: row r is on stdout before the
        window yields row r + 1."""
        events = []
        stream = triangular.hessenberg_for

        def logged_rows(k):
            for r, cells in enumerate(stream(k)):
                events.append(("row", r))
                yield cells

        class LoggedStdout:
            def write(self, text):
                events.append(("write", text))
                return len(text)

        monkeypatch.setattr(triangular, "hessenberg_for", logged_rows)
        monkeypatch.setattr(sys, "stdout", LoggedStdout())
        assert cli.main(["hessenberg", "--n", "2", "--dump", "--format", fmt]) == 0
        monkeypatch.undo()
        k = triangular.origin_index(2)
        dense = [[str(v) for v in row] for row in dense_rows(stream(k))]
        starts = [i for i, (kind, _) in enumerate(events) if kind == "row"]
        assert len(starts) == len(dense) == k - triangular.RHS_INDEX
        # what is written between row r and row r + 1 holds row r
        for r, (i, j) in enumerate(zip(starts, starts[1:] + [len(events)])):
            written = "".join(text for _, text in events[i + 1:j])
            line = json.dumps(dense[r]) if fmt == "json" else ",".join(dense[r]) + "\r\n"
            assert line in written, r


# One wrong coefficient in a printed row, and the fit that row belongs to:
# VERT k = 2's P_2 with 33 -> 34, F201's p_1 = 6/27, q_1 with 111 -> 112.
WRONG_ROWS = {
    "vert-2": (exact._PRINTED, (exact.ClosedFormFamily.VERT, 2), ((34, 32, 8), 3), ("r", 2)),
    "p-1": (exact.F201_ROWS, "p", ((6,), 27), ("p", 1)),
    "q-1": (exact.F201_ROWS, "q", ((-50, 183, 112), 270), ("q", 1)),
}


class TestOneVerdictPerFit:
    @pytest.mark.parametrize("mutant", WRONG_ROWS)
    def test_wrong_row_fails_its_fit(self, capsys, monkeypatch, mutant):
        table, key, row, (family, k) = WRONG_ROWS[mutant]
        monkeypatch.setitem(table, key, row)
        code, out, _ = run_cli(capsys, "fit", "--family", family, "--k", str(k))
        assert code == 1
        assert out.endswith(", claims_ok=False\n")

    @pytest.mark.parametrize("mutant", [None, *WRONG_ROWS])
    def test_fit_exit_agrees_with_its_families_entry(self, capsys, monkeypatch, mutant):
        if mutant is not None:
            table, key, row, _ = WRONG_ROWS[mutant]
            monkeypatch.setitem(table, key, row)
        code, out, _ = run_cli(capsys, "verify", "--suite", "families")
        fits = json.loads(out)["fits"]
        entries = {(f["family"], f["k"]): f["ok"] for f in fits}
        assert list(entries) == [(f.value, k) for f, k in conjectures.FAMILY_PLAN]
        # a wrong row fails its own fit, whose printed_ok reads False
        failed = [] if mutant is None else [(*WRONG_ROWS[mutant][3], False)]
        assert [(f["family"], f["k"], f["claims"]["printed_ok"])
                for f in fits if not f["ok"]] == failed
        assert code == (1 if failed else 0)
        for (family, k), ok in entries.items():
            fit_code, _, _ = run_cli(capsys, "fit", "--family", family, "--k", str(k))
            assert fit_code == (0 if ok else 1), (family, k)


# the characters json escapes, DEL, non-ASCII, astral and a lone surrogate
JSON_TEXT = st.text(st.characters() | st.sampled_from(
    '"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xe9\u2028\ud800\U0001d11e'))
JSON_VALUES = st.recursive(
    JSON_TEXT | st.integers() | st.integers(-2**300, 2**300) | st.booleans() | st.none(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=20)


class TestJsonWriter:
    """``cli._dumps``, which prints every report without the json module,
    against ``json.dumps`` at the two indents the CLI uses."""

    @settings(max_examples=200, deadline=None)
    @given(value=JSON_VALUES, indent=st.sampled_from([None, 2]))
    def test_matches_json_dumps(self, value, indent):
        assert cli._dumps(value, indent) == json.dumps(value, indent=indent)

    @pytest.mark.parametrize("value", [
        {}, [], (), [[], {}, ()], {"a": {}, "b": [()]}, {"": [{"": None}]},
        ["\"\\\x00\x1f\x7f é \U0001d11e"], [10**40, -10**40, 0, -1, True, False, None],
    ])
    @pytest.mark.parametrize("indent", [None, 2])
    def test_matches_json_dumps_at_the_edges(self, value, indent):
        assert cli._dumps(value, indent) == json.dumps(value, indent=indent)

    @pytest.mark.parametrize("value", [
        1.5, {1, 2}, {1: "a"}, {None: 1}, {("k",): 1}, [0.0], {"a": [b"x"]},
    ])
    @pytest.mark.parametrize("indent", [None, 2])
    def test_refuses_what_it_does_not_write(self, value, indent):
        with pytest.raises(TypeError):
            cli._dumps(value, indent)


# Exit code, stdout and stderr of a fixed set of invocations, recorded byte
# for byte from the command line before counting and the verify suites moved
# into the library.  Moving math must leave every byte of these unchanged.
FROZEN = json.loads(Path(__file__).with_name("cli_frozen.json").read_text())


@pytest.mark.parametrize("case", FROZEN, ids=lambda case: " ".join(case["argv"]))
def test_frozen_output(capsys, case):
    code, out, err = run_cli(capsys, *case["argv"])
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


# Exit code, stdout and stderr of every help text and of argv that argparse
# alone answers (a bad choice, a missing or unknown flag, an abbreviation, an
# = joined value, a negative value), recorded byte for byte at COLUMNS=80
# while argparse read every command line.
PINNED = json.loads(Path(__file__).with_name("cli_usage_frozen.json").read_text())


@pytest.mark.parametrize("case", PINNED, ids=lambda case: " ".join(case["argv"]))
def test_help_and_usage_bytes(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])


class TestReader:
    """``cli.read_args`` against argparse: where the reader accepts an argv it
    gives argparse's namespace, and it accepts every well-formed one."""

    PARSER = cli.build_parser()
    FLAGS = sorted({flag[0] for _, _, flags in cli.GRAMMAR.values() for flag in flags})
    # values the reader must leave to argparse, or pass on as argparse does
    ODD = ["", "-4", "-1", "-0", "4.5", "x", " 4", "4_0", "+3", "--", "-", "-h",
           "1,2,3", "-1,2,3", "count", "=4", "٣"]

    @classmethod
    @st.composite
    def value(draw, cls, kind):
        """A value for a flag of this kind, one in five of them odd."""
        if draw(st.integers(0, 4)) == 4:
            return draw(st.sampled_from(cls.ODD + cls.FLAGS) | st.text(max_size=3))
        if kind is int:
            return str(draw(st.integers(0, 300)))
        if kind is str:
            return draw(st.sampled_from(["6,6,6", "1,1", "a,b,c", "10,10,10"]))
        return draw(st.sampled_from(list(kind)))

    @classmethod
    @st.composite
    def argvs(draw, cls):
        command = draw(st.sampled_from([*cli.GRAMMAR, *cli.GRAMMAR, "cou", "", "-h", "--help"]))
        flags = cli.GRAMMAR[command][2] if command in cli.GRAMMAR else ()

        def given_flag(name, kind):
            return [name] if kind == "store_true" else [name, draw(cls.value(kind))]

        chunks = []
        if flags and draw(st.integers(0, 3)):
            # every flag with a value, so that most such argv are well formed
            chunks.append([t for name, kind, _, _ in flags for t in given_flag(name, kind)])
        for _ in range(draw(st.integers(0, 3))):
            shape = draw(st.sampled_from(["exact"] * 6 + ["other", "prefix", "joined", "stray"]))
            if shape == "exact" and flags:
                name, kind, _, _ = draw(st.sampled_from(flags))
                chunks.append(given_flag(name, kind))
            elif shape == "stray":
                chunks.append([draw(st.sampled_from(cls.ODD + ["--help", "verify"]))])
            else:
                name = draw(st.sampled_from(cls.FLAGS))
                value = draw(cls.value(draw(st.sampled_from([int, ("dp", "text", "r")]))))
                if shape == "prefix":
                    name = name[:draw(st.integers(2, len(name) - 1))]
                chunks.append([f"{name}={value}"] if shape == "joined" else [name, value])
        return [command, *(t for chunk in draw(st.permutations(chunks)) for t in chunk)]

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_accepted_argv_reads_as_argparse_parses(self, data):
        argv = data.draw(self.argvs())
        args = cli.read_args(argv)
        if args is not None:
            assert vars(args) == vars(self.PARSER.parse_args(argv))

    @pytest.mark.parametrize("case", FROZEN, ids=lambda case: " ".join(case["argv"]))
    def test_frozen_argv_without_negative_values_is_read(self, case):
        argv = case["argv"]
        args = cli.read_args(argv)
        if any(t[:1] == "-" and t[1:2].isdigit() for t in argv):
            assert args is None
        else:
            assert args is not None
            assert vars(args) == vars(self.PARSER.parse_args(argv))

    @pytest.mark.parametrize("case", PINNED, ids=lambda case: " ".join(case["argv"]))
    def test_help_and_usage_argv_are_left_to_argparse(self, case):
        assert cli.read_args(case["argv"]) is None

    @pytest.mark.parametrize("argv", [
        [], ["cou", "--m", "4"], ["count", "-h"], ["count", "--m", "4", "--help"],
        ["count", "--m", "4", "--n1"], ["count", "--m", "4", "x"], ["count", "--m", "4", "--"],
        ["count", "--m", "4", "--dump"], ["count", "--m", "4.0"], ["count", "--m", ""],
        ["count", "--n1", "2"],
        ["verify", "--suite", "kernel", "--caps", "-1,2,3"],
        ["verify", "--suite", "kernel", "--caps", "--N"],
        ["verify", "--suite", "kernel", "--caps", "-"],
        ["verify", "--suite", "gessel", "--format", "json"],
        ["hessenberg", "--n", "1", "--dump", "x"],
    ])
    def test_malformed_argv_are_left_to_argparse(self, argv):
        assert cli.read_args(argv) is None


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out, _ = run_cli(capsys, "verify", "--suite", "gessel", "--N", "10")
            outputs.add(out)
        assert len(outputs) == 1
