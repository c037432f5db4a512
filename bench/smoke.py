"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 bench/smoke.py

For every workload in BENCHMARK.json it runs ``run.py --tiny`` untraced and
traced, and fails (exit 1) when a run exits non-zero, reports a failed job,
or leaves out a metric that BENCHMARK.json names or reports it without that
unit.  It also copies only BENCHMARK.json and the benchmark's files into an
empty directory and requires the run there to fail without printing a
result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable,
        str(root / "bench" / "run.py"),
        "--workload", workload,
        "--seed", "0",
        "--seconds", "1",
        "--trace", str(trace),
        "--tiny",
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_problems(proc: subprocess.CompletedProcess, wanted: list) -> list:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-1000:]}"]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return ["no result line"]
    res = json.loads(lines[-1])
    bad = []
    if set(res) != RESULT_KEYS:
        bad.append(f"result keys {sorted(res)}")
    if not res.get("correct") or res.get("failed") != 0 or res.get("attempted", 0) < 1:
        bad.append(f"correct={res.get('correct')} attempted={res.get('attempted')} failed={res.get('failed')}")
    metrics = res.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            bad.append(f"missing metric {m['name']}")
        elif got.get("unit") != m["unit"]:
            bad.append(f"{m['name']}: unit {got.get('unit')!r}, want {m['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)) or isinstance(got.get("value"), bool):
            bad.append(f"{m['name']}: value {got.get('value')!r} is not a number")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        bad.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return bad


def bare_copy_problems(spec: dict) -> list:
    """The benchmark alone, without the library, must refuse to run."""
    bare = ROOT / ".bench_work" / f"smoke-bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare copy: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            bad = result_problems(run(ROOT, w["name"], trace), spec[group])
            problems += [f"{w['name']} --trace {trace}: {b}" for b in bad]
            print(f"{w['name']} --trace {trace}: {'ok' if not bad else 'FAILED'}", flush=True)
    problems += bare_copy_problems(spec)
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
