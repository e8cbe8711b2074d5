"""Every ``def`` in the package is reached by a command line run, or named in
``UNREACHED`` with its reason.

The gate replays every case of ``cli_frozen.json`` and
``cli_usage_frozen.json`` through ``cli.main``, in process, under a
``sys.setprofile`` hook that collects the code objects called, and compares
those of the package with every ``def`` that ``ast`` finds in it.  A code
object and a ``def`` match by file and first line, the first decorator's
line where there is one, since Python 3.10 has no ``co_qualname``.  The
replay starts from an empty axis memo, so that a memo grown by an earlier
test cannot hide ``WalkTable.extend``, and after every module is imported,
so that the package's lazy imports do not show as calls.

A ``def`` that no case reaches needs one entry in ``UNREACHED``: its dotted
name (module, then the qualified name) maps to one reason of ``REASONS``
and the evidence for it.
- ``library API``: the README's Library section names it in backticks, and
  the evidence is a test that calls it.
- ``bench``: the evidence is a name that a file under ``bench/`` mentions,
  the def's own or that of the traced function that calls it
  (``bench/trace_child.py`` looks its functions up by name).
- ``failure path``: it runs only when a check fails; the evidence is the
  test that drives it.
- ``entry point`` or ``import time``: the replay cannot see it, as it calls
  ``cli.main`` on modules already imported; the evidence says why.
To add an entry, run this file: the failure lists each unreached ``def``
with no entry, by its dotted name.  A def that no reason covers is deleted,
or moved into the tests that need it as a reference.  An entry for a def
that a case reaches, or that no longer exists, fails the gate too.
"""

import ast
import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

import gesselwalks
# every module imported before the replay, so that none is first imported inside it
from gesselwalks import cli, conjectures, exact, pipelines, series, triangular, walks

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(gesselwalks.__file__).resolve().parent
CASES = [case for name in ("cli_frozen.json", "cli_usage_frozen.json")
         for case in json.loads((ROOT / "tests" / name).read_text())]

REASONS = ("library API", "bench", "failure path", "entry point", "import time")

UNREACHED = {
    "pipelines.CheckReport.__bool__": (
        "library API", "tests/test_pipelines.py::test_a_report_is_true_only_when_ok"),
    "series.TruncSeries3.coeff": ("bench", "substitute_x"),
    "series.make_series": ("bench", "series_mul"),
    "series.monomial": ("bench", "build_H"),
    "series.series_add": ("bench", "build_H"),
    "series.series_mul": ("bench", "series_mul"),
    "series.build_G": ("bench", "build_G"),
    "series.build_K": ("bench", "build_H"),
    "series.build_H": ("bench", "build_H"),
    "series.substitute_x": ("bench", "substitute_x"),
    "triangular.hessenberg_det": ("bench", "hessenberg_det"),
    "triangular._leading_minors": ("bench", "hessenberg_det"),
    "exact.conjectured_value": ("bench", "conjectured_value"),
    "conjectures.solve_linear_exact": ("bench", "solve_linear_exact"),
    "conjectures.family_target": ("bench", "family_target"),
    "walks.shared_table": ("bench", "shared_table"),
    "series._mismatch": (
        "failure path", "tests/test_series.py::TestPackedChecks::test_bumps_give_the_reference_mismatch"),
    "cli.console_main": ("entry point", "gessel-walks and python -m gesselwalks.cli run it"),
    "cli._observed": ("entry point", "only console_main calls it"),
    "cli._flush": ("entry point", "only console_main calls it"),
    "__init__.__dir__": ("entry point", "dir(gesselwalks) calls it"),
    "__init__.__getattr__": ("import time", "a submodule's first import asks the package for it"),
}


def package_defs() -> dict[str, tuple[str, int]]:
    """Dotted name -> (file, first line) of every def in the package."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                assert name not in defs, f"two defs named {name}"
                defs[name] = (str(path), min(d.lineno for d in [child, *child.decorator_list]))
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix + child.name + "." if isinstance(child, ast.ClassDef)
                      else prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem + ".")
    return defs


def replay() -> set[tuple[str, int]]:
    """(file, first line) of each package code object that the cases call."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    shared, walks._shared = walks._shared, walks.WalkTable(0)
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for case in CASES:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    status = cli.main(case["argv"])
                except SystemExit as exc:
                    status = exc.code
            assert status == case["exit"], case["argv"]
    finally:
        sys.setprofile(previous)
        walks._shared = shared
    files = {str(path) for path in PACKAGE.glob("*.py")}
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in codes}
    return {key for key in reached if key[0] in files}


@pytest.fixture(scope="module")
def reach():
    defs = package_defs()
    reached = replay()
    return defs, {name for name, key in defs.items() if key in reached}


def test_every_unreached_def_has_an_entry(reach):
    defs, reached = reach
    missing = sorted(set(defs) - reached - set(UNREACHED))
    assert missing == [], "no case reaches these, and UNREACHED names none of them"


def test_no_entry_names_a_reached_or_missing_def(reach):
    defs, reached = reach
    assert sorted(set(UNREACHED) & reached) == [], "a case reaches these"
    assert sorted(set(UNREACHED) - set(defs)) == [], "no such def"


def library_section() -> str:
    readme = (ROOT / "README.md").read_text()
    return readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def bench_words() -> set[str]:
    return {word for path in (ROOT / "bench").glob("*.*") if path.suffix in (".py", ".md")
            for word in re.findall(r"\w+", path.read_text())}


def names_a_test(test_id: str) -> bool:
    """Whether tests/FILE.py::[Class::]test names a test function."""
    path, *names = test_id.split("::")
    node = ast.parse((ROOT / path).read_text())
    for name in names:
        node = next((child for child in node.body if getattr(child, "name", None) == name), None)
        if node is None:
            return False
    return isinstance(node, ast.FunctionDef)


@pytest.mark.parametrize("name", sorted(UNREACHED))
def test_each_entry_gives_one_reason_and_its_evidence(name):
    reason, evidence = UNREACHED[name]
    assert reason in REASONS
    if reason == "library API":
        assert f"`{name.split('.', 1)[1]}`" in library_section()
    if reason in ("library API", "failure path"):
        assert names_a_test(evidence), f"no test {evidence}"
    if reason == "bench":
        assert evidence in bench_words(), f"no file under bench/ mentions {evidence}"
