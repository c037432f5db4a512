"""Replay the recorded CLI commands of tests/golden/ and compare stdout
and stderr bytes and exit codes with the recording (see
tests/golden/record.py); a case without a .err file writes no stderr."""

import json
from fractions import Fraction

import pytest

from conftest import REPO_ROOT, on_isolation_grid
from fusionring.cli import main

GOLDEN = REPO_ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert code == EXIT_CODES[case["name"]]
    assert out.encode() == (GOLDEN / f"{case['name']}.out").read_bytes()
    err_file = GOLDEN / f"{case['name']}.err"
    assert err.encode() == (err_file.read_bytes() if err_file.exists() else b"")


def _isolated_values(doc):
    """Every printed isolated root (a dict with poly, lo and hi) in a JSON document."""
    if isinstance(doc, dict):
        if "poly" in doc:
            yield doc
        else:
            for value in doc.values():
                yield from _isolated_values(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _isolated_values(value)


def test_golden_isolated_roots_are_cells_of_the_isolation_grid():
    """Every interval a recorded --json output prints is a cell of the dyadic
    grid of (-B, B) that isolate_real_roots bisects for its polynomial."""
    roots = []
    for case in CASES:
        if "--json" in case["argv"]:
            roots += _isolated_values(json.loads((GOLDEN / f"{case['name']}.out").read_text()))
    assert len(roots) > 50
    for root in roots:
        assert on_isolation_grid(root["poly"], Fraction(root["lo"]), Fraction(root["hi"])), root
