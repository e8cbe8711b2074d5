"""The command examples of the README's "Command line" section, run in process.

Each ``$ gessel-walks ...`` line followed by printed output is run through
``cli.main``; the printed lines must be its stdout, or its stderr for a
refusal.  A command with no printed output is not run.
"""

import re
import shlex
from pathlib import Path

import pytest

from gesselwalks import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def examples() -> list[tuple[str, str]]:
    """(command, printed text) for each example that shows its output."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    found = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        command, printed = None, ""
        for line in block.splitlines() + ["$"]:
            if not line.startswith("$"):
                printed += line + "\n"
                continue
            if command and printed:
                found.append((command, printed))
            command, printed = line[2:].split("#")[0].strip(), ""
    return found


EXAMPLES = examples()


def test_examples_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("command, printed", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_prints_what_readme_shows(capsys, command, printed):
    program, *argv = shlex.split(command)
    assert program == "gessel-walks"
    code = cli.main(argv)
    out, err = capsys.readouterr()
    refused = printed.startswith("error: ")
    assert code == (2 if refused else 0)
    assert (err if refused else out) == printed
    assert (out if refused else err) == ""
