"""Record the golden CLI outputs replayed by tests/test_golden.py.

Runs every command of cases.json as `python -m fusionring.cli` from this
directory (so the ring file names resolve) and writes its stdout to
<name>.out, its stderr to <name>.err when there is any, and every exit code
to exit_codes.json.  Only re-record when an
output change is intended, and say why in the commit:

    python tests/golden/record.py [--src PATH_TO_SRC]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(HERE.parents[1] / "src"), help="package source to run")
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    codes = {}
    for case in json.loads((HERE / "cases.json").read_text()):
        proc = subprocess.run(
            [sys.executable, "-m", "fusionring.cli", *case["argv"]],
            cwd=HERE,
            env=env,
            capture_output=True,
        )
        (HERE / f"{case['name']}.out").write_bytes(proc.stdout)
        err = HERE / f"{case['name']}.err"
        if proc.stderr:
            err.write_bytes(proc.stderr)
        else:
            err.unlink(missing_ok=True)
        codes[case["name"]] = proc.returncode
    (HERE / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
