import re
import shlex
from pathlib import Path

import pytest

from mdscosets.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _command_lines():
    """The `mdscosets ...` lines of the fenced block under README's
    "## Command line" heading, each split as a shell would."""
    text = README.read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.S | re.M).group(1)
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


COMMANDS = _command_lines()


def test_the_command_line_block_is_read():
    # an empty parse would leave the test below with no cases
    assert ["mdscosets", "verify"] in COMMANDS
    assert all(argv[0] == "mdscosets" for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: "_".join(argv[1:]))
def test_each_readme_command_exits_as_documented(capsys, argv):
    # the bare `verify` exits 1: criterion 7's deep-hole equality is
    # refuted, as README says; every other line passes
    expected = 1 if argv[1:] == ["verify"] else 0
    assert main(argv[1:]) == expected
    assert capsys.readouterr().err == ""
