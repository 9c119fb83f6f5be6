"""Every CLI example in the docs parses against the real parser.

A deleted subcommand or flag must not linger in README.md, docs/*.md or
the ``repro.cli`` module docstring: each ``repro-noc …`` /
``python -m repro.cli …`` line of a fenced code block (and of the
docstring's example block) goes through ``build_parser().parse_args``.
Nothing is simulated.
"""

from __future__ import annotations

import pathlib
import re
import shlex

import pytest

import repro.cli
from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

#: Where an invocation starts on a line.
INVOCATION = re.compile(r"(?:^|\s)(?:repro-noc|python3? -m repro\.cli)\s+(.*)$")
#: Where the shell takes over from the argument list: a comment, a pipe,
#: a redirect, backgrounding or a command separator.
SHELL_TAIL = re.compile(r"\s(?:#|\||>|2>|&|;).*$")


def _fenced_lines(text: str):
    """Logical lines (``\\`` continuations joined) of fenced code blocks."""
    inside = False
    pending = ""
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            inside = not inside
            pending = ""
            continue
        if not inside:
            continue
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield pending + line
        pending = ""


def _docstring_lines(text: str):
    """The indented example block of a module docstring."""
    for line in text.splitlines():
        if line.startswith("    "):
            yield line


def _examples():
    sources = [(path.name, _fenced_lines(path.read_text())) for path in DOCS]
    sources.append(("repro/cli.py", _docstring_lines(repro.cli.__doc__)))
    for name, lines in sources:
        for line in lines:
            match = INVOCATION.search(line)
            if match is None:
                continue
            argv = shlex.split(SHELL_TAIL.sub("", match.group(1)))
            yield name, [arg for arg in argv if arg != "..."]


EXAMPLES = list(_examples())


def test_examples_were_found():
    names = {name for name, _ in EXAMPLES}
    assert {"README.md", "DSE.md", "RESILIENCE.md", "repro/cli.py"} <= names
    assert len(EXAMPLES) >= 40


@pytest.mark.parametrize(
    "argv", [argv for _, argv in EXAMPLES],
    ids=[f"{name}:{' '.join(argv)}" for name, argv in EXAMPLES],
)
def test_doc_example_parses(argv):
    build_parser().parse_args(argv)
