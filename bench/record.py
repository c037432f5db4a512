"""Record the expected outputs that the benchmark's checks compare against.

    python3 bench/record.py [workload ...]

Runs every input any seed can draw, once, and writes a summary of each
output (exact values, candidate levels, verdicts, row counts) to
``bench/expected.json``, keyed by workload and job.  Run it only on a commit
whose outputs are known to be right, and review the diff it makes: after
that, a run whose output differs from these values counts the job as failed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys

import workloads as W


def main(argv: list) -> int:
    names = argv or list(W.JOB_LISTS)
    path = W.BENCH / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    work_dir = W.ROOT / ".bench_work" / f"record-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        ctx = W.Context(work_dir)
        for name in names:
            table = {}
            for job in W.make_jobs(name, random.Random(0), ctx, every=True):
                output = job.run()
                problems = job.invariants(output)
                if problems:
                    print(f"{job.key}: {problems}", file=sys.stderr)
                    return 1
                table[job.key] = job.summary(output)
                print(f"recorded {name}: {job.key}", file=sys.stderr, flush=True)
            expected[name] = table
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
