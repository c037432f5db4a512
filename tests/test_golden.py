"""Replay the recorded CLI commands of tests/golden/ and compare stdout
bytes and exit codes with the recording (see tests/golden/record.py)."""

import json

import pytest

from conftest import REPO_ROOT
from fusionring.cli import main

GOLDEN = REPO_ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(case["argv"])
    out, _ = capsys.readouterr()
    assert code == EXIT_CODES[case["name"]]
    assert out.encode() == (GOLDEN / f"{case['name']}.out").read_bytes()
