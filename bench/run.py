"""fusionring benchmark: one command, four workloads, one client in a closed loop.

    python3 bench/run.py --workload {prime-scan,spectra,verlinde,cli} \
        --seed N --seconds S --trace {0,1} [--tiny]

Run it from anywhere; the repository root is found from this file's location
and the library is imported from ``<root>/src``.  Jobs run back to back in
this process (``cli`` starts one child process at a time); nothing runs in
parallel.

``--trace 0`` runs the workload's job list once to warm up and then in
whole rounds for the rest of about ``--seconds`` of wall time (at least
three timed rounds), and reports the end-to-end metrics from per-job
medians.  ``--trace 1`` runs an untraced
warm-up round, an untraced round to compare with and one traced round, and reports
the per-layer metrics of the traced round, including the tracing overhead.
``--tiny`` shrinks every input, for the smoke check.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Progress and per-job times go to stderr.  Exit code 2 means the
library could not be found or the run could not start.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("prime-scan", "spectra", "verlinde", "cli")
# setup_s is the median over fresh interpreters timed in three batches (at
# the start, after the warm-up round, at the end), so that one run samples
# the machine at more than one moment
PROBES_PER_BATCH = 2
MIN_ROUNDS = 3  # every job is timed at least this often, whatever --seconds says

# The host's speed shifts by up to about 45% for seconds to minutes at a
# time (other tenants share its cores and memory), which moves every wall
# time with it.  So each timed job and set-up probe is paired with a fixed
# reference timed just before and just after it: a pure-Python loop for an
# in-process job, a bare interpreter start for a child process.  End-to-end
# times are reported in reference seconds, measured seconds times REF_S over
# the paired reference's time: seconds on a host where the loop takes 25 ms
# and a bare interpreter starts in 50 ms.
REF_S = {False: 0.025, True: 0.050}  # keyed by "the job is a child process"

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("classify.scan_prime_levels.s", "s"),
    ("classify.scan.m_x_pairs", "count"),
    ("classify.scan.hits", "count"),
    ("classify.scan.survivors", "count"),
    ("classify.scan.useful_ratio", "ratio"),
    ("obstruct.prime_xbound.calls", "count"),
    ("obstruct.prime_xbound.s", "s"),
    ("numtheory.factorize.calls", "count"),
    ("numtheory.factorize.s", "s"),
    ("numtheory.factorize.bits_max", "bits"),
    ("numtheory.squarefree_part.calls", "count"),
    ("numtheory.totient.calls", "count"),
    ("algebraic.Quadratic.calls", "count"),
    ("construct.build.calls", "count"),
    ("construct.build.s", "s"),
    ("ring.verify_axioms.calls", "count"),
    ("ring.verify_axioms.s", "s"),
    ("ring.verify_axioms.cells", "count"),
    ("ring.fpdim_basis.calls", "count"),
    ("ring.fpdim_basis.s", "s"),
    ("ring.fpdim_total.s", "s"),
    ("ring.structure.s", "s"),
    ("intpoly.charpoly.calls", "count"),
    ("intpoly.charpoly.s", "s"),
    ("intpoly.charpoly.dim_sum", "count"),
    ("intpoly.bareiss_det.calls", "count"),
    ("intpoly.isolate_real_roots.calls", "count"),
    ("intpoly.isolate_real_roots.s", "s"),
    ("intpoly.sturm_chain.calls", "count"),
    ("intpoly.sign_variations_at.calls", "count"),
    ("intpoly.refine_interval.calls", "count"),
    ("intpoly.refine_interval.s", "s"),
    ("intpoly.poly_eval.calls", "count"),
    ("intpoly.poly_divmod.calls", "count"),
    ("algebraic.promote.attempts", "count"),
    ("algebraic.promote.hits", "count"),
    ("algebraic.alg_cmp.calls", "count"),
    ("algebraic.alg_cmp.s", "s"),
    ("algebraic.largest_real_root.s", "s"),
    ("algebraic.all_real_roots.s", "s"),
    ("represent.codegree_spectrum.s", "s"),
    ("represent.uniform_irreps.s", "s"),
    ("represent.verify_irrep.calls", "count"),
    ("represent.verify_irrep.s", "s"),
    ("obstruct.run_all.calls", "count"),
    ("obstruct.run_all.s", "s"),
    ("classify.classify_elementary2.s", "s"),
    ("classify.elementary2.rows", "count"),
    ("ringfile.report_to_dict.s", "s"),
    ("ringfile.dumps_report.s", "s"),
    ("ringfile.dumps_report.bytes", "bytes"),
    ("ringfile.loads_ring.s", "s"),
    ("cli.main.s", "s"),
    ("cli.stdout.bytes", "bytes"),
    ("cli.import.s", "s"),
    ("cli.process.s", "s"),
    ("bench.trace.overhead_s", "s"),
    ("bench.round.jobs", "count"),
    ("bench.largest_job.s", "s"),
]


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


@dataclass
class Round:
    times: dict = field(default_factory=dict)  # job key -> seconds, passing jobs only
    scale: dict = field(default_factory=dict)  # job key -> REF_S / its reference's seconds
    attempted: int = 0
    failed: int = 0
    child_maxrss_kb: int = 0
    stdout_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def run_round(W, jobs: list, ctx, expected: dict, tracer=None) -> Round:
    """The given jobs once each, back to back; only a job's run() is timed.
    The reference runs before the first job and after every job."""
    rnd = Round()
    child = any(job.child for job in jobs)
    gc.collect()
    ref_before = W.reference_time(child, ctx)
    for job in jobs:
        rnd.attempted += 1
        ctx.traced = tracer is not None and job.child
        in_process_trace = tracer is not None and not job.child
        output = None
        problems = []
        if in_process_trace:
            tracer.install()
        t0 = time.perf_counter()
        try:
            output = job.run()
        except Exception as exc:  # a failing job is counted, the run goes on
            problems = [f"raised {type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
        finally:
            dt = time.perf_counter() - t0
            if in_process_trace:
                tracer.uninstall()
        if output is not None:
            if job.child:
                rnd.child_maxrss_kb = max(rnd.child_maxrss_kb, output.maxrss_kb)
                rnd.stdout_bytes += len(output.stdout)
                if tracer is not None:
                    if output.trace is not None:
                        tracer.merge(output.trace)
            problems = W.check(job, output, expected)
            if tracer is not None and job.child and output.trace is None:
                problems.append("traced child printed no trace")
        elif not problems:
            problems = ["job returned no output"]
        del output
        gc.collect()
        ref_after = W.reference_time(child, ctx)
        rnd.scale[job.key] = REF_S[child] * 2 / (ref_before + ref_after)
        ref_before = ref_after
        if problems:
            rnd.failed += 1
            log(f"FAIL {job.key}: " + "; ".join(problems)[:2000])
        else:
            rnd.times[job.key] = dt
    return rnd


def timed_run(W, jobs, ctx, expected, seconds: float, take_probes) -> tuple[dict, list]:
    """A warm-up round, then whole rounds of the job list, all within about
    --seconds of wall time counted from the first set-up probe.

    The warm-up round is checked but not timed.  At least MIN_ROUNDS rounds
    are timed; after that another round starts only if it and the last probe
    batch are expected to end within --seconds.  Every job gets one sample
    per round, so each job's median is taken over the same number of samples,
    spread over the whole run.
    """
    start = time.perf_counter()
    take_probes()
    probe_s = time.perf_counter() - start
    rounds = [run_round(W, jobs, ctx, expected)]
    warm_s = time.perf_counter() - start - probe_s
    take_probes()
    timed, timed_s = [], []
    while len(timed) < MIN_ROUNDS or time.perf_counter() + statistics.median(timed_s or [warm_s]) + probe_s <= start + seconds:
        t0 = time.perf_counter()
        timed.append(run_round(W, jobs, ctx, expected))
        timed_s.append(time.perf_counter() - t0)
    take_probes()
    rounds += timed
    per_job = {}
    log("  ref. s  measured s  samples  job")
    for job in jobs:
        passed = [r for r in timed if job.key in r.times]
        if passed:
            per_job[job.key] = statistics.median(r.times[job.key] * r.scale[job.key] for r in passed)
            raw = statistics.median(r.times[job.key] for r in passed)
            log(f"  {per_job[job.key]:7.4f}  {raw:10.4f}  {len(passed):7d}  {job.key}")
    scale = statistics.median(s for r in rounds for s in r.scale.values())
    log(f"reference seconds per measured second: {scale:.3f} (median)")
    if any(job.child for job in jobs):
        peak_kb = max(r.child_maxrss_kb for r in rounds)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        # a job that never passed adds no time; the run is then marked incorrect
        "wall_s": sum(per_job.values()),
        "peak_rss_mb": peak_kb / 1024,
    }
    log(f"{len(jobs)} jobs, 1 warm-up + {len(timed)} timed rounds, {time.perf_counter() - start:.1f} s")
    return values, rounds


def traced_run(W, jobs, ctx, expected, take_probes) -> tuple[dict, list]:
    from tracer import Tracer

    take_probes()
    warm = run_round(W, jobs, ctx, expected)
    take_probes()
    base = run_round(W, jobs, ctx, expected)
    tracer = Tracer()
    traced = run_round(W, jobs, ctx, expected, tracer)
    take_probes()
    if tracer.absent:
        log("absent trace targets (reported as 0): " + ", ".join(tracer.absent))
    values = {}
    for group, stat in tracer.stats.items():
        values[f"{group}.calls"] = stat.calls
        values[f"{group}.s"] = stat.self_ns / 1e9
    values.update(tracer.counters)
    values["algebraic.promote.attempts"] = tracer.calls("algebraic.promote")
    hits = values["classify.scan.hits"]
    values["classify.scan.useful_ratio"] = values["classify.scan.survivors"] / hits if hits else 0.0
    values["cli.stdout.bytes"] = traced.stdout_bytes
    values["bench.trace.overhead_s"] = traced.wall - base.wall
    values["bench.round.jobs"] = len(jobs)
    largest = next(job.key for job in jobs if job.largest)
    # in reference seconds, from the untraced round; 0 if the job failed
    values["bench.largest_job.s"] = base.times.get(largest, 0.0) * base.scale[largest]
    log(f"untraced round {base.wall:.3f} s, traced round {traced.wall:.3f} s")
    for group, stat in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_ns):
        if stat.calls:
            log(f"  {stat.self_ns / 1e9:9.4f} s self  {stat.calls:10d} calls  {group}")
    return values, [warm, base, traced]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke check")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fusionring" / "__init__.py").is_file():
        log(f"error: fusionring sources not found under {SRC}")
        return 2
    import workloads as W

    if not W.library_origin_ok():
        log(f"error: fusionring was imported from outside {SRC}")
        return 2

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        ctx = W.Context(work_dir, tiny=args.tiny)
        probes = []

        def take_probes():
            # (wall, import, reference): a probe is paired like a child job
            for _ in range(PROBES_PER_BATCH):
                before = W.reference_time(True, ctx)
                wall, imp = W.probe_import(ctx)
                probes.append((wall, imp, (before + W.reference_time(True, ctx)) / 2))

        rng = random.Random(f"{args.workload}/{args.seed}")
        jobs = W.make_jobs(args.workload, rng, ctx)
        expected = W.load_expected().get(args.workload, {})
        if args.trace:
            values, rounds = traced_run(W, jobs, ctx, expected, take_probes)
            values["cli.import.s"] = statistics.median(imp for _, imp, _ in probes)
            values["cli.process.s"] = statistics.median(wall - imp for wall, imp, _ in probes)
            wanted = PER_LAYER
        else:
            values, rounds = timed_run(W, jobs, ctx, expected, args.seconds, take_probes)
            values["setup_s"] = statistics.median(wall * REF_S[True] / ref for wall, _, ref in probes)
            log(f"setup: {values['setup_s']:.4f} ref. s, {statistics.median(w for w, _, _ in probes):.4f} s measured")
            wanted = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
