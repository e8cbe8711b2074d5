"""What each subcommand imports, and the package's lazily resolved names.

Each case runs in a fresh interpreter, since this test session has already
imported every module of the package.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gesselwalks

SRC = Path(__file__).resolve().parents[1] / "src"

SUBMODULES = ("walks", "exact", "series", "triangular", "conjectures", "pipelines")

# rationals: only the library's Fraction views (conjectured_value,
# family_target, solve_linear_exact) load them; every subcommand computes with
# integer pairs
RATIONALS = {"fractions", "decimal", "numbers"}
# modules that only other subcommands need
BEYOND_DP = RATIONALS | {
    "dataclasses", "inspect", "gesselwalks.exact",
    "gesselwalks.triangular", "gesselwalks.series", "gesselwalks.conjectures",
}
# the integer pipelines: det, solve, multisum and the windows
BEYOND_INTEGER = RATIONALS | {
    "dataclasses", "gesselwalks.series", "gesselwalks.conjectures",
}
# the parser: argparse loads only for help and usage errors, and its first
# message loads gettext and locale
PARSER = {"argparse", "gettext", "locale"}


def run_fresh(code: str, *flags: str):
    """Run code in a new interpreter, given these flags, with only src on
    PYTHONPATH; return the JSON value it prints last."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["count", "--m", "40", "--n1", "2"], BEYOND_DP),
        (["count", "--m", "40", "--n1", "2", "--format", "csv"], BEYOND_DP),
        (["count", "--m", "6", "--method", "det"], BEYOND_INTEGER),
        (["count", "--m", "12", "--method", "det", "--format", "json"], BEYOND_INTEGER),
        (["hessenberg", "--n", "1"], BEYOND_INTEGER),
        (["hessenberg", "--n", "1", "--format", "csv"], BEYOND_INTEGER),
        (["hessenberg", "--n", "1", "--dump"], BEYOND_INTEGER),
        (["hessenberg", "--n", "1", "--dump", "--format", "csv"], BEYOND_INTEGER),
        (["hessenberg", "--n", "1", "--dump", "--format", "json"], BEYOND_INTEGER),
        # the origin's closed form is an integer quotient
        (["count", "--m", "6", "--method", "closed"], RATIONALS | {"dataclasses"}),
        (["count", "--m", "6", "--method", "solve"], BEYOND_INTEGER),
        (["verify", "--suite", "gessel", "--N", "5"], RATIONALS | {"dataclasses"}),
        (["verify", "--suite", "kernel", "--caps", "4,4,4"], RATIONALS | {"dataclasses"}),
        (["verify", "--suite", "cross_pipeline", "--k-max", "24"], BEYOND_INTEGER),
        (["verify", "--suite", "families"], RATIONALS | {"dataclasses"}),
        (["universal", "--i", "2"], {"dataclasses"}),
        (["universal", "--i", "2", "--format", "csv"], {"dataclasses"}),
        # a fit is an integer elimination, printed as reduced integer ratios
        (["fit", "--family", "r", "--k", "1"], RATIONALS | {"dataclasses"}),
        (["fit", "--family", "r", "--k", "1", "--format", "csv"], RATIONALS | {"dataclasses"}),
        (["fit", "--family", "s", "--k", "2"], RATIONALS | {"dataclasses"}),
        (["fit", "--family", "rt", "--k", "1"], RATIONALS | {"dataclasses"}),
        (["fit", "--family", "p", "--k", "3"], RATIONALS | {"dataclasses"}),
        (["fit", "--family", "q", "--k", "2"], RATIONALS | {"dataclasses"}),
        (["table", "--m-max", "3"], RATIONALS | {"dataclasses"}),
        (["table", "--m-max", "3", "--format", "csv"], RATIONALS),
        (["count", "--m", "24", "--n2", "1", "--method", "solve"], BEYOND_INTEGER),
        (["count", "--m", "4", "--method", "multisum", "--max-span", "56"],
         BEYOND_INTEGER),
        # the closed forms off the origin: F201, VERT and HOR, each an integer
        # numerator divided by its denominator with a remainder check
        (["count", "--m", "30", "--n2", "1", "--method", "closed"], RATIONALS | {"dataclasses"}),
        (["count", "--m", "34", "--n2", "15", "--method", "closed"], RATIONALS | {"dataclasses"}),
        (["count", "--m", "19", "--n1", "15", "--method", "closed"], RATIONALS | {"dataclasses"}),
        # a target at its shortest walk is answered without a closed form
        (["count", "--m", "15", "--n1", "15", "--method", "closed"],
         RATIONALS | {"dataclasses", "gesselwalks.exact"}),
        (["verify", "--suite", "hkernel", "--caps", "4,4,4"], RATIONALS | {"dataclasses"}),
        (["verify", "--suite", "root", "--caps", "4,4,4"], RATIONALS | {"dataclasses"}),
    ],
)
def test_subcommand_loads_only_what_it_runs(argv, absent):
    """Modules loaded by the package are those of the subcommand, and a
    well-formed command line loads no parser, no json module, which only
    prints the result here, and no csv module, since every format writes
    its own rows; a module already loaded at interpreter start-up is not
    the package's doing."""
    absent = absent | PARSER | {"json", "csv"}
    loaded = run_fresh(f"""
        import contextlib, io, sys
        before = set(sys.modules)
        from gesselwalks import cli
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main({argv!r})
        new = sorted(set(sys.modules) - before)
        import json
        print(json.dumps([status, new]))
    """)
    status, new = loaded
    assert status == 0
    assert "gesselwalks.cli" in new
    assert absent.isdisjoint(new), sorted(absent.intersection(new))


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--m", "40", "--n1", "2"],
        ["count", "--m", "6", "--method", "det"],
        ["verify", "--suite", "root", "--caps", "6,6,6"],
        ["fit", "--family", "r", "--k", "1"],
        ["verify", "--suite", "families"],
    ],
)
def test_child_loads_no_typing_without_site(argv):
    """Each module names its annotation-only imports under a guard that does
    not import ``typing``, and builds its records on ``collections``'
    namedtuple: a dp, det, root, fit or families child loads no ``typing``.
    Under ``-S``, since a site hook may import ``typing`` before the package
    does, and then this case would prove nothing."""
    status, at_start, loaded = run_fresh(f"""
        import contextlib, io, json, sys
        at_start = "typing" in sys.modules
        from gesselwalks import cli
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main({argv!r})
        print(json.dumps([status, at_start, "typing" in sys.modules]))
    """, "-S")
    assert (status, at_start, loaded) == (0, False, False)


def test_usage_error_loads_argparse():
    """A command line the reader declines goes to argparse, which prints its
    own message and exits 2."""
    status, err, new = run_fresh("""
        import contextlib, io, json, sys
        before = set(sys.modules)
        from gesselwalks import cli
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                cli.main(["count", "--m", "4", "--method", "magic"])
            except SystemExit as exc:
                status = exc.code
        print(json.dumps([status, err.getvalue(), sorted(set(sys.modules) - before)]))
    """)
    assert status == 2
    assert err.startswith("usage: gessel-walks count [-h]")
    assert err.endswith(
        "gessel-walks count: error: argument --method: invalid choice: 'magic' "
        "(choose from 'dp', 'closed', 'det', 'multisum', 'solve')\n"
    )
    assert "argparse" in new


def test_solve_refusal_loads_no_triangular():
    """``count --method solve`` refuses an interior target before it imports
    ``triangular``, and so ``exact``: the run exits 2, with the refusal's
    frozen stderr bytes, and loads neither module nor the parser."""
    argv = ["count", "--m", "11", "--n1", "3", "--n2", "2", "--method", "solve"]
    frozen = json.loads((SRC.parent / "tests" / "cli_frozen.json").read_text())
    case = next(case for case in frozen if case["argv"] == argv)
    status, err, new = run_fresh(f"""
        import contextlib, io, json, sys
        before = set(sys.modules)
        from gesselwalks import cli
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = cli.main({argv!r})
        print(json.dumps([status, err.getvalue(), sorted(set(sys.modules) - before)]))
    """)
    assert case["exit"] == 2
    assert (status, err) == (case["exit"], case["stderr"])
    assert "gesselwalks.pipelines" in new
    assert ({"gesselwalks.triangular", "gesselwalks.exact"} | PARSER).isdisjoint(new)


def test_library_integer_calls_load_no_rationals():
    """The library's integer entry points, the origin's closed form among
    them, and a fit with its claims start without ``fractions``; the views
    a caller asks a rational of import it and return ``Fraction`` values."""
    integers, loaded, rationals = run_fresh(f"""
        import json, sys
        import gesselwalks as g
        from gesselwalks.conjectures import failed_claim, family_target, solve_linear_exact
        fit = g.fit_family(g.FitFamily.S_K, 1)
        claims = g.verify_family_claims(fit)
        integers = [g.gessel_via_determinant(3), g.binom_general(-3, 4), g.gessel_closed_form(4),
                    [*fit.numerators, fit.denominator], failed_claim(claims),
                    claims["leading_expected"]]
        loaded = sorted({sorted(RATIONALS)!r} & sys.modules.keys())
        from fractions import Fraction
        rationals = [g.conjectured_value(g.ClosedFormFamily.HOR, 1, 2),
                     family_target(fit.family, fit.k, 2),
                     *solve_linear_exact([[2, 0], [0, 4]], [5, 2])]
        print(json.dumps([integers, loaded, [[type(v) is Fraction, str(v)] for v in rationals]]))
    """)
    assert integers == [85, 15, 782, [4, 5, 1, 2], None, "1/2"]
    assert loaded == []
    assert rationals == [[True, "9"], [True, "9"], [True, "5/2"], [True, "1/2"]]


def test_star_import_binds_each_name_to_its_home():
    """A public name's home is the one submodule whose ``__all__`` lists it."""
    version, homes = run_fresh(f"""
        import importlib, json
        namespace = {{}}
        exec("from gesselwalks import *", namespace)
        import gesselwalks
        modules = [importlib.import_module("gesselwalks." + sub) for sub in {SUBMODULES!r}]
        homes = {{
            name: [
                m.__name__ for m in modules
                if name in m.__all__ and getattr(m, name) is namespace[name]
            ]
            for name in gesselwalks.__all__ if name != "__version__"
        }}
        print(json.dumps([namespace["__version__"], homes]))
    """)
    assert version == gesselwalks.__version__
    assert {name: subs for name, subs in homes.items() if len(subs) != 1} == {}


def test_dir_lists_public_names_and_unknown_names_raise():
    result = run_fresh("""
        import json, sys
        import gesselwalks
        listed = set(gesselwalks.__all__) <= set(dir(gesselwalks))
        loaded_by_dir = sorted(m for m in sys.modules if m.startswith("gesselwalks."))
        try:
            gesselwalks.no_such_name
        except AttributeError as exc:
            message = str(exc)
        else:
            message = None
        print(json.dumps([listed, loaded_by_dir, message]))
    """)
    listed, loaded_by_dir, message = result
    assert listed
    assert loaded_by_dir == []
    assert message == "module 'gesselwalks' has no attribute 'no_such_name'"


def test_benchmark_tracer_finds_every_traced_name():
    """``bench/trace_child.py`` looks up the functions it wraps by name, so a
    renamed or deleted one makes ``install`` raise and every traced benchmark
    run fail.  Installed in a fresh child, it returns, and a fit run through
    the wrappers is counted."""
    bench = SRC.parent / "bench"
    calls = run_fresh(f"""
        import contextlib, io, json, sys
        sys.path.insert(0, {str(bench)!r})
        import trace_child
        tracer = trace_child.Tracer("t")
        trace_child.install(tracer)
        from gesselwalks import cli
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["fit", "--family", "s", "--k", "1"])
        print(json.dumps([status, tracer.sums["conjectures.fit_family.calls"],
                          tracer.sums["conjectures.verify_family_claims.calls"]]))
    """)
    assert calls == [0, 1, 1]
