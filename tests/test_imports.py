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

# rationals: only the closed forms, fits and families build them
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
        (["count", "--m", "40", "--n1", "2"], BEYOND_DP | {"csv"}),
        (["count", "--m", "6", "--method", "det"], BEYOND_INTEGER),
        (["hessenberg", "--n", "1"], BEYOND_INTEGER),
        (["count", "--m", "6", "--method", "closed"], {"dataclasses"}),
        (["count", "--m", "6", "--method", "solve"], BEYOND_INTEGER),
        (["verify", "--suite", "gessel", "--N", "5"], {"dataclasses"}),
        (["verify", "--suite", "kernel", "--caps", "4,4,4"], RATIONALS | {"dataclasses"}),
        (["verify", "--suite", "cross_pipeline", "--k-max", "24"], BEYOND_INTEGER),
        (["verify", "--suite", "families"], {"dataclasses"}),
        (["universal", "--i", "2"], {"dataclasses"}),
        (["fit", "--family", "r", "--k", "1"], {"dataclasses", "csv"}),
        (["table", "--m-max", "3"], RATIONALS | {"dataclasses", "csv"}),
        (["table", "--m-max", "3", "--format", "csv"], RATIONALS | {"csv"}),
        (["count", "--m", "24", "--n2", "1", "--method", "solve"], BEYOND_INTEGER),
        (["count", "--m", "4", "--method", "multisum", "--max-span", "56"],
         BEYOND_INTEGER),
        # a target at its shortest walk is answered without a closed form
        (["count", "--m", "15", "--n1", "15", "--method", "closed"],
         RATIONALS | {"dataclasses", "gesselwalks.exact"}),
        (["verify", "--suite", "hkernel", "--caps", "4,4,4"], RATIONALS | {"dataclasses"}),
        (["verify", "--suite", "root", "--caps", "4,4,4"], RATIONALS | {"dataclasses"}),
    ],
)
def test_subcommand_loads_only_what_it_runs(argv, absent):
    """Modules loaded by the package are those of the subcommand, and a
    well-formed command line loads no parser; a module already loaded at
    interpreter start-up is not the package's doing."""
    absent = absent | PARSER
    loaded = run_fresh(f"""
        import contextlib, io, json, sys
        before = set(sys.modules)
        from gesselwalks import cli
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main({argv!r})
        print(json.dumps([status, sorted(set(sys.modules) - before)]))
    """)
    status, new = loaded
    assert status == 0
    assert "gesselwalks.cli" in new
    assert absent.isdisjoint(new), sorted(absent.intersection(new))


def test_dp_count_loads_no_typing_without_site():
    """The dp child names its annotation-only imports under a guard that does
    not import ``typing``.  Under ``-S``, since a site hook may import
    ``typing`` before the package does, and then this case would prove
    nothing."""
    status, at_start, loaded = run_fresh("""
        import contextlib, io, json, sys
        at_start = "typing" in sys.modules
        from gesselwalks import cli
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["count", "--m", "40", "--n1", "2"])
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


def test_library_integer_calls_load_no_rationals():
    """The library's integer entry points start without ``fractions``; the
    closed forms still import it and return ``Fraction`` values."""
    integers, loaded, rationals = run_fresh(f"""
        import json, sys
        import gesselwalks as g
        integers = [g.gessel_via_determinant(3), g.binom_general(-3, 4)]
        loaded = sorted({sorted(RATIONALS)!r} & sys.modules.keys())
        from fractions import Fraction
        rationals = [
            g.pochhammer(3, 2), g.gessel_closed_form(4),
            g.conjectured_value(g.ClosedFormFamily.HOR, 1, 2),
        ]
        print(json.dumps([integers, loaded, [[type(v) is Fraction, str(v)] for v in rationals]]))
    """)
    assert integers == [85, 15]
    assert loaded == []
    assert rationals == [[True, "12"], [True, "782"], [True, "9"]]


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
