"""Golden CLI transcripts: every command of ``tests/golden/record.py`` prints what
``tests/golden/transcripts.json`` holds, exit code and stderr included."""

from __future__ import annotations

import importlib.util
import json
import os

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


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
