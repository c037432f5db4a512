"""Replay the recorded CLI commands of tests/golden/ and compare stdout
and stderr bytes and exit codes with the recording (see
tests/golden/record.py); a case without a .err file writes no stderr."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import REPO_ROOT, cli_env, on_isolation_grid
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


# Replays every case of the golden directory argv[1] in this process, as
# test_golden_output does, and prints a JSON summary of the run.
REPLAY = """
import io, json, os, sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from fusionring.cli import main

golden = Path(sys.argv[1])
cases = json.loads((golden / "cases.json").read_text())
codes = json.loads((golden / "exit_codes.json").read_text())
os.chdir(golden)
differ = []
for case in cases:
    name = case["name"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(case["argv"])
    err_file = golden / f"{name}.err"
    if (
        code != codes[name]
        or out.getvalue().encode() != (golden / f"{name}.out").read_bytes()
        or err.getvalue().encode() != (err_file.read_bytes() if err_file.exists() else b"")
    ):
        differ.append(name)
summary = {"optimize": sys.flags.optimize, "hash_seed": os.environ.get("PYTHONHASHSEED")}
print(json.dumps({**summary, "replayed": len(cases), "differ": differ}))
"""


def test_goldens_replay_under_python_O_and_another_hash_seed():
    # invariant checks do not rest on assert, and no output depends on the
    # order of a set or dict of str: one `python -O` child with a fixed hash
    # seed replays every case byte for byte
    env = dict(cli_env(), PYTHONHASHSEED="2718")
    proc = subprocess.run([sys.executable, "-O", "-c", REPLAY, str(GOLDEN)], capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"optimize": 1, "hash_seed": "2718", "replayed": len(CASES), "differ": []}


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
