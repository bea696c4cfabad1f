"""Golden CLI transcripts: every command of ``tests/golden/record.py`` prints what
``tests/golden/transcripts.json`` holds, exit code and stderr included; and the README's
command examples are golden commands that print the numbers their comments quote."""

from __future__ import annotations

import importlib.util
import json
import os
import re

TESTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS, "golden")
README = os.path.join(os.path.dirname(TESTS), "README.md")


def _load_record():
    spec = importlib.util.spec_from_file_location("golden_record",
                                                  os.path.join(GOLDEN, "record.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_transcripts_match_the_golden_ones():
    record = _load_record()
    with open(record.TRANSCRIPTS) as fh:
        golden = json.load(fh)
    assert list(golden) == record.COMMANDS, "re-record: python tests/golden/record.py"
    changed = [command for command, transcript in record.record().items()
               if transcript != golden[command]]
    assert not changed, f"{len(changed)} transcripts changed, first {changed[0]!r}"


def _readme_commands():
    """(command without ``pfikit``, its ``#`` comment) of each ``pfikit ...`` line of the
    README's "Command line" example block, but those that write files with ``--out``; a
    line that holds only a comment continues the comment of the command above it."""
    with open(README) as fh:
        section = fh.read().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    pairs = []
    for line in section.split("\n```\n", 2)[1].splitlines():
        command, _, comment = line.partition("#")
        words = command.split()
        if words[:1] == ["pfikit"]:
            pairs.append((words[1:], comment))
        elif not words and pairs:
            pairs[-1] = (pairs[-1][0], pairs[-1][1] + comment)
    return [(" ".join(words), comment) for words, comment in pairs if "--out" not in words]


def test_every_readme_command_is_a_golden_command():
    pairs, golden = _readme_commands(), _load_record().COMMANDS
    assert pairs
    missing = [command for command, _ in pairs if command not in golden]
    assert not missing, f"README commands with no golden transcript: {missing}"


def test_every_readme_number_is_printed_by_its_command():
    # a decimal in a command's comment is a number of its golden stdout, rounded to the
    # decimals quoted
    with open(_load_record().TRANSCRIPTS) as fh:
        golden = json.load(fh)
    quoted = 0
    for command, comment in _readme_commands():
        printed = [float(x) for x in re.findall(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?",
                                                golden[command]["stdout"])]
        for number in re.findall(r"(?<![\w.])-?\d+\.\d+", comment):
            decimals = len(number.split(".")[1])
            assert any(f"{x:.{decimals}f}" == number for x in printed), (command, number)
            quoted += 1
    assert quoted
