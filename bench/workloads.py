"""Seeded inputs, job lists and output checks for the benchmark workloads.

Every workload is a fixed list of jobs.  A seed picks among inputs of (near)
equal cost; the library only ever sees the generated inputs.  A job is timed
around its ``run`` call only; its output is checked afterwards, outside the
timed region and with tracing removed.

Checks compare parsed content, never raw bytes, so an additive output change
(an extra key, an extra column, an extra obstruction test) is not a failure.
Three kinds of check apply:

* exact invariants that hold for any input (d(unit) = 1, d(i*) = d(i),
  d_i d_j = sum_k c_ijk d_k, codegree multiplicities summing to the rank,
  ``verify_irrep`` returning no failures, integer re-checks of every
  prime-scan survivor);
* closed forms where the benchmark knows the answer (SU(2)_k dimensions, the
  paper's eight p = 7 levels, near-group dimensions, the ring a CLI build
  should print);
* values recorded in ``expected.json`` by ``record.py`` for every input a
  seed can draw.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import math
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import fusionring  # noqa: E402
import fusionring.cli  # noqa: E402,F401  (so the tracer finds cli.main)
from fusionring import algebraic, classify, construct, obstruct, represent, ring, ringfile  # noqa: E402

import tracer  # noqa: E402

# the paper's eight candidate levels for p = 7 with the default residue filter
P7_FILTER = (2, 3, 5, 13)
PAPER_P7_LEVELS = [7, 42, 70, 672, 10710, 49210, 170688, 2720298]

CHILD_TIMEOUT_S = 120
REL_TOL = 1e-9


@dataclass
class Context:
    """Run-wide state the jobs need: where to write, how to start children."""

    work_dir: Path
    tiny: bool = False
    traced: bool = False

    def child_env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "FUSIONRING_JOBS")}
        env["PYTHONPATH"] = str(SRC)
        return env


@dataclass
class Job:
    key: str
    run: Callable[[], object]
    summary: Callable[[object], dict]
    invariants: Callable[[object], list]
    largest: bool = False
    child: bool = False


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    wall_s: float
    timed_out: bool = False
    trace: dict | None = field(default=None, repr=False)
    parsed: dict = field(default_factory=dict, repr=False)  # stdout parsed once per format


# ---------------------------------------------------------------------------
# child processes


def run_child(argv: list, ctx: Context) -> ChildResult:
    """Run one child to completion, reading both pipes, and reap it with
    os.wait4 so its own peak RSS is known."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=str(ctx.work_dir),
        env=ctx.child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            for f in chunks:
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + CHILD_TIMEOUT_S - time.perf_counter()
                if remaining <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        raise
    finally:
        # reap here, not through Popen, to get the child's own rusage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    return ChildResult(
        proc.returncode,
        b"".join(chunks[proc.stdout]),
        b"".join(chunks[proc.stderr]),
        usage.ru_maxrss,
        wall,
        timed_out,
    )


PROBE = "import time; t = time.perf_counter(); import fusionring; print(time.perf_counter() - t)"


def probe_import(ctx: Context) -> tuple[float, float]:
    """(process wall time, in-process import time) of a fresh interpreter
    that only imports fusionring."""
    res = run_child([sys.executable, "-c", PROBE], ctx)
    if res.code != 0:
        raise RuntimeError(f"import probe failed: {res.stderr.decode(errors='replace')[-500:]}")
    return res.wall_s, float(res.stdout.decode().strip())


REF_LOOP_ITERS = 70_000  # about 25 ms on a quiet 2.1 GHz Xeon vCPU


def reference_time(child: bool, ctx: Context) -> float:
    """Seconds taken by a fixed reference that runs no library code: a bare
    interpreter start (child=True), or a pure-Python loop in this process
    made of the prime scan's primitive operations (integer multiply,
    divmod, isqrt, dict store)."""
    if child:
        res = run_child([sys.executable, "-c", "pass"], ctx)
        if res.code != 0:
            raise RuntimeError(f"bare interpreter failed: {res.stderr.decode(errors='replace')[-500:]}")
        return res.wall_s
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for m in range(REF_LOOP_ITERS):
            q, rem = divmod(m * m * 7 + 1, 3)
            table[m & 1023] = math.isqrt(q) + rem
        return time.perf_counter() - t0
    finally:
        gc.enable()


def cli_job(key: str, args: list, ctx: Context, summarize, invariants, ok_codes=(0,), largest=False) -> Job:
    """A CLI invocation; traced rounds run it through cli_child.py."""

    def run():
        if ctx.traced:
            argv = [sys.executable, str(BENCH / "cli_child.py"), *args]
        else:
            argv = [sys.executable, "-m", "fusionring.cli", *args]
        res = run_child(argv, ctx)
        if ctx.traced:
            lines = res.stderr.decode(errors="replace").splitlines()
            marks = [ln for ln in lines if ln.startswith(tracer.TRACE_PREFIX)]
            res.trace = json.loads(marks[-1][len(tracer.TRACE_PREFIX):]) if marks else None
        return res

    def check(res: ChildResult) -> list:
        if res.timed_out:
            return [f"timed out after {CHILD_TIMEOUT_S} s"]
        if res.code not in ok_codes:
            tail = res.stderr.decode(errors="replace")[-400:]
            return [f"exit code {res.code} not in {ok_codes}: {tail}"]
        return invariants(res)

    return Job(key, run, summarize, check, largest=largest, child=True)


# ---------------------------------------------------------------------------
# value encoding and comparison


def value_key(x) -> dict:
    """Exact values stay exact; isolated roots are compared numerically,
    since their defining polynomial need not be minimal."""
    if isinstance(x, algebraic.Quadratic):
        return {"q": [str(x.a), str(x.b), int(x.D)]}
    return {"r": float(x)}


def json_value_key(doc: dict) -> dict:
    """The same encoding for a value as the CLI prints it."""
    if "D" in doc:
        q = algebraic.Quadratic(Fraction(doc["a"]), Fraction(doc["b"]), int(doc["D"]))
        return value_key(q)
    return {"r": float((Fraction(doc["lo"]) + Fraction(doc["hi"])) / 2)}


def float_of(key: dict) -> float:
    if "q" in key:
        a, b, D = key["q"]
        return float(Fraction(a)) + float(Fraction(b)) * math.sqrt(D)
    return key["r"]


def mismatches(actual, recorded, path: str = "") -> list:
    """Differences between a summary and its recorded value.  Keys missing
    from the recorded dict are ignored, so outputs may gain fields."""
    if isinstance(recorded, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        out = []
        for k, v in recorded.items():
            if k not in actual:
                out.append(f"{path}.{k}: missing")
            else:
                out += mismatches(actual[k], v, f"{path}.{k}")
        return out
    if isinstance(recorded, list):
        if not isinstance(actual, list) or len(actual) != len(recorded):
            return [f"{path}: {str(actual)[:200]} != {str(recorded)[:200]}"]
        out = []
        for i, (a, r) in enumerate(zip(actual, recorded)):
            out += mismatches(a, r, f"{path}[{i}]")
        return out
    if isinstance(recorded, float) and isinstance(actual, (int, float)):
        return [] if close(actual, recorded) else [f"{path}: {actual!r} != {recorded!r}"]
    return [] if actual == recorded else [f"{path}: {actual!r} != {recorded!r}"]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# prime-scan


# k_max per prime, scaled so that k_max times the scan's work per level is
# the same for every prime: each scan costs about as much as any other
OTHER_PRIME_K_MAX = {11: 515_000, 19: 545_000, 23: 590_000, 31: 625_000, 43: 705_000, 47: 475_000}
OTHER_PRIMES_DRAWN = 2


# p = 7 ladder: (k_max, residue filter); the last rung is the largest input.
# It stops at 5e6 (2e7 takes about 3.5 s) so that a run times every rung
# several times.
P7_LADDER = [(200_000, P7_FILTER), (2_000_000, P7_FILTER), (2_000_000, None), (5_000_000, P7_FILTER)]


def _scan_job(p: int, k_max: int, flt, largest: bool = False) -> Job:
    key = f"scan p={p} k_max={k_max} filter={','.join(map(str, flt)) if flt else 'none'}"

    def run():
        return classify.scan_prime_levels(p, k_max, residue_filter=flt)

    def summary(report) -> dict:
        levels = report.to_dict()["levels"]
        return {
            "candidates": [e["level"] for e in levels if e["status"] == "candidate"],
            "flagged": [e["level"] for e in levels if e.get("flags")],
        }

    def invariants(report) -> list:
        levels = report.to_dict()["levels"]
        bad = []
        if not levels or levels[0].get("k") != 1 or levels[0]["level"] != p:
            bad.append("first entry is not k = 1")
        for e in levels[1:]:
            k = e.get("k")
            if k is None or k % 2 or k > k_max or e["level"] != k * p:
                bad.append(f"bad survivor {e.get('level')}")
                continue
            certs = {c["test"]: c["certificate"] for c in e.get("certificates", ())}
            c = certs.get("prime-xbound")
            if c is None:
                bad.append(f"level {e['level']}: no prime-xbound certificate")
                continue
            m = k // 2
            if c["m"] != m or c["p"] != p or c["x"] * c["y"] ** 2 != m * m * p + 1:
                bad.append(f"level {e['level']}: x*y^2 != m^2 p + 1")
            if not c["lhs_sq"] <= c["rhs_sq"]:
                bad.append(f"level {e['level']}: lhs_sq > rhs_sq on a survivor")
            if flt and any(c["x"] % q == 0 for q in flt):
                bad.append(f"level {e['level']}: x = {c['x']} violates the residue filter")
        if (p, k_max, flt) == (7, 2_000_000, P7_FILTER):
            got = [e["level"] for e in levels if e["status"] == "candidate"]
            if got != PAPER_P7_LEVELS:
                bad.append(f"p = 7 levels {got} != the paper's {PAPER_P7_LEVELS}")
        return bad

    return Job(key, run, summary, invariants, largest=largest)


def prime_scan_jobs(rng, ctx: Context, every: bool = False) -> list:
    scale = 100 if ctx.tiny else 1
    jobs = [_scan_job(7, k // scale, flt, largest=k == P7_LADDER[-1][0]) for k, flt in P7_LADDER]
    primes = sorted(OTHER_PRIME_K_MAX) if every else rng.sample(sorted(OTHER_PRIME_K_MAX), OTHER_PRIMES_DRAWN)
    return jobs + [_scan_job(p, OTHER_PRIME_K_MAX[p] // scale, None) for p in primes]


# ---------------------------------------------------------------------------
# spectra: named families, every Perron root quadratic

UNIFORM_FAMILIES = ("near_group", "haagerup_izumi", "uniform_two_orbit")
IRREP_MAX_RANK = 20  # uniform_irreps + verify_irrep grow with rank^3

# each slot lists inputs whose cost differs by at most about 10%; the seed
# picks one per slot.  Inputs that cost more than about 1 s are left out, so
# that a run times every job several times.
SPECTRA_SLOTS = [
    ("near_group", [((24,), 24), ((24,), 48), ((2, 12), 24), ((2, 12), 48), ((2, 2, 6), 48)]),
    ("near_group", [((2, 2, 2, 2), 0), ((2, 2, 2, 2), 16)]),
    ("haagerup_izumi", [((8,),), ((2, 4),)]),
    ("uniform_two_orbit", [((12,), [6], "inversion", 1), ((12,), [6], "inversion", 2)]),
    ("dihedral_character_ring", [(18,)]),  # cost differs too much between n
    ("group_ring", [((36,),)]),  # the largest input: rank 36
]
SPECTRA_TINY = [
    ("near_group", [((3,), 2), ((2, 2), 4)]),
    ("haagerup_izumi", [((3,),)]),
    ("uniform_two_orbit", [((4,), [2], "inversion", 1)]),
    ("dihedral_character_ring", [(5,)]),
    ("group_ring", [((6,),)]),
]


@dataclass
class SpectraOutput:
    ring: object
    violations: list
    dims: list
    total: object
    codegrees: list
    verdicts: list
    irrep_dims: list | None
    irrep_failures: list | None
    basis256: object = None


def _spectra_pipeline(fr, irreps: bool) -> SpectraOutput:
    violations = ring.verify_axioms(fr)
    dims = ring.fpdim_all(fr)
    total = ring.fpdim_total(fr)
    codeg = represent.codegree_spectrum(fr)
    verdicts = obstruct.run_all(fr)
    irrep_dims = irrep_failures = None
    if irreps:
        models = represent.uniform_irreps(fr)
        irrep_failures = [represent.verify_irrep(fr, m) for m in models]
        irrep_dims = sorted(m.dim for m in models)
    return SpectraOutput(fr, violations, dims, total, codeg, verdicts, irrep_dims, irrep_failures)


def _spectra_summary(out: SpectraOutput) -> dict:
    return {
        "rank": out.ring.rank,
        "total": value_key(out.total),
        "codegrees": [[value_key(c.value), c.eigen_multiplicity] for c in out.codegrees],
        "verdicts": {v.test_name: v.outcome for v in out.verdicts},
        "irrep_dims": out.irrep_dims,
    }


def _common_invariants(out: SpectraOutput) -> list:
    fr, dims = out.ring, out.dims
    bad = []
    if out.violations:
        bad.append(f"verify_axioms reported {len(out.violations)} violations")
    if len(dims) != fr.rank:
        return bad + ["fpdim_all length != rank"]
    if dims[0] != 1:
        bad.append("d(unit) != 1")
    for i in range(fr.rank):
        if fr.dual[i] != i and dims[fr.dual[i]] != dims[i]:
            bad.append(f"d(dual {i}) != d({i})")
    mult = sum(c.eigen_multiplicity for c in out.codegrees)
    if mult != fr.rank:
        bad.append(f"codegree multiplicities sum to {mult}, rank {fr.rank}")
    if out.codegrees and out.codegrees[0].value != out.total:
        bad.append("largest codegree != FPdim(R)")
    if out.irrep_failures is not None:
        if any(out.irrep_failures):
            bad.append("verify_irrep found failures")
        if sum(d * d for d in out.irrep_dims) != fr.rank:
            bad.append("irrep dimensions do not fill the ring")
    return bad


def _quadratic_invariants(out: SpectraOutput) -> list:
    """d_i d_j = sum_k c_ijk d_k and FPdim(R) = sum d_i^2, exactly."""
    dims = out.dims
    if not all(isinstance(d, algebraic.Quadratic) for d in dims):
        return ["an FP dimension did not promote to Quadratic"]
    t = out.ring.tensor
    n = out.ring.rank
    bad = []
    for i in range(n):
        for j in range(n):
            acc = algebraic.Quadratic(0)
            for k in t[i, j].nonzero()[0]:
                acc = acc + dims[k] * int(t[i, j, k])
            if acc != dims[i] * dims[j]:
                bad.append(f"d_{i} d_{j} != sum_k c_ijk d_k")
                return bad
    total = algebraic.Quadratic(0)
    for d in dims:
        total = total + d * d
    if total != out.total:
        bad.append("FPdim(R) != sum of d_i^2")
    return bad


def _family_job(family: str, params: tuple) -> Job:
    key = f"{family}{params!r}"

    def run():
        fr = getattr(construct, family)(*params)
        irreps = family in UNIFORM_FAMILIES and fr.rank <= IRREP_MAX_RANK
        return _spectra_pipeline(fr, irreps)

    def invariants(out):
        return _common_invariants(out) + _quadratic_invariants(out)

    return Job(key, run, _spectra_summary, invariants)


def spectra_jobs(rng, ctx: Context, every: bool = False) -> list:
    slots = SPECTRA_TINY if ctx.tiny else SPECTRA_SLOTS
    jobs = []
    for family, variants in slots:
        chosen = variants if every else [variants[rng.randrange(len(variants))]]
        jobs += [_family_job(family, params) for params in chosen]
    jobs[-1].largest = True  # the last slot is the group ring, the largest rank
    return jobs


# ---------------------------------------------------------------------------
# verlinde: SU(2)_k rings generated here, passed in as ring JSON

# the seed picks one k per band; k within a band costs about the same.  The
# largest k is 14, so that a run times every job several times.
VERLINDE_BANDS = [(5, 6), (8, 9), (12,)]
VERLINDE_LARGEST = 14
VERLINDE_TINY_BANDS = [(2, 3)]
VERLINDE_TINY_LARGEST = 4
WIDTH_256 = Fraction(1, 2**256)


def su2_ring_json(k: int) -> str:
    """SU(2)_k fusion rules on spins 0, 1/2, ..., k/2 (index a = 2 * spin):
    N_ab^c = 1 iff |a-b| <= c <= min(a+b, 2k-a-b) and a+b+c is even."""
    r = k + 1
    tensor = [
        [[1 if abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0 else 0 for c in range(r)] for b in range(r)]
        for a in range(r)
    ]
    labels = [f"{a // 2}" if a % 2 == 0 else f"{a}/2" for a in range(r)]
    return json.dumps({"rank": r, "labels": labels, "dual": list(range(r)), "tensor": tensor})


def su2_dims(k: int) -> list:
    s = math.sin(math.pi / (k + 2))
    return [math.sin((a + 1) * math.pi / (k + 2)) / s for a in range(k + 1)]


def _verlinde_job(k: int, largest: bool = False) -> Job:
    key = f"su2 k={k}"
    text = su2_ring_json(k)

    def run():
        fr = ringfile.loads_ring(text)
        out = _spectra_pipeline(fr, irreps=False)
        out.basis256 = ring.fpdim_basis(fr, 1, width=WIDTH_256)
        return out

    def summary(out):
        doc = _spectra_summary(out)
        doc["dims"] = [value_key(d) for d in out.dims]
        return doc

    def invariants(out):
        bad = _common_invariants(out)
        want = su2_dims(k)
        got = [float(d) for d in out.dims]
        if len(got) == len(want) and not all(close(g, w) for g, w in zip(got, want)):
            bad.append("FP dimensions differ from sin((a+1)pi/(k+2)) / sin(pi/(k+2))")
        if not close(float(out.total), sum(w * w for w in want)):
            bad.append("FPdim(R) differs from sum of squared closed-form dimensions")
        d1 = out.basis256
        if d1 != out.dims[1]:
            bad.append("fpdim_basis at width 2^-256 != fpdim_all entry")
        if isinstance(d1, algebraic.IsolatedRoot):
            lo, hi = d1.interval(WIDTH_256)
            if hi - lo > WIDTH_256 or not close(float(lo), want[1]):
                bad.append("2^-256 isolating interval is too wide or misplaced")
        return bad

    return Job(key, run, summary, invariants, largest=largest)


def verlinde_jobs(rng, ctx: Context, every: bool = False) -> list:
    bands = VERLINDE_TINY_BANDS if ctx.tiny else VERLINDE_BANDS
    largest = VERLINDE_TINY_LARGEST if ctx.tiny else VERLINDE_LARGEST
    ks = [k for band in bands for k in band] if every else [rng.choice(band) for band in bands]
    return [_verlinde_job(k) for k in ks] + [_verlinde_job(largest, largest=True)]


# ---------------------------------------------------------------------------
# cli: one child process at a time

# small near-group rings R(C_n, level) for the small commands
CLI_SMALL_RINGS = [(3, 2), (3, 3), (4, 4), (5, 5)]


def near_group_json(n: int, level: int) -> dict:
    """R(C_n, level) on basis g^0..g^(n-1), rho, generated independently of
    the library: rho^2 = level*rho + sum_g g."""
    r = n + 1
    t = [[[0] * r for _ in range(r)] for _ in range(r)]
    for a in range(n):
        for b in range(n):
            t[a][b][(a + b) % n] = 1
        t[a][n][n] = t[n][a][n] = t[n][n][a] = 1
    t[n][n][n] = level
    return {
        "rank": r,
        "labels": [f"g{a}" for a in range(n)] + ["rho"],
        "dual": [(-a) % n for a in range(n)] + [n],
        "tensor": t,
    }


def _json_doc(res: ChildResult):
    if "json" not in res.parsed:
        res.parsed["json"] = json.loads(res.stdout)
    return res.parsed["json"]


def _csv_rows(res: ChildResult) -> list:
    if "csv" not in res.parsed:
        res.parsed["csv"] = list(csv.DictReader(io.StringIO(res.stdout.decode())))
    return res.parsed["csv"]


def _level_summary(levels: list) -> dict:
    return {
        "rows": len(levels),
        "known": [int(e["level"]) for e in levels if e["status"] == "categorifiable_known"],
        "candidates": [int(e["level"]) for e in levels if e["status"] == "candidate"],
        "flagged": [int(e["level"]) for e in levels if e.get("flags")],
    }


def _elementary2_invariants(m: int, levels: list) -> list:
    s = _level_summary(levels)
    bad = []
    if s["known"][:1] != [0]:
        bad.append("level 0 is not listed as known")
    if m >= 3 and s["candidates"]:
        bad.append(f"C2^{m} has candidate levels {s['candidates'][:5]}")
    if s["rows"] < 2**m:
        bad.append(f"{s['rows']} rows, fewer than 2^{m}")
    return bad


def _prime_csv_invariants(rows: list, k_max: int) -> list:
    bad = []
    for e in rows:
        if e["status"] != "candidate" or not e["k"]:
            continue
        if int(e["level"]) != int(e["k"]) * 7 or int(e["k"]) > k_max:
            bad.append(f"bad row {e}")
    got = [int(e["level"]) for e in rows if e["status"] == "candidate"]
    want = [lv for lv in PAPER_P7_LEVELS if lv // 7 <= k_max]
    if got != want:
        bad.append(f"p = 7 levels {got} != the paper's {want}")
    return bad


def cli_jobs(rng, ctx: Context, every: bool = False) -> list:
    rings = CLI_SMALL_RINGS if every else [CLI_SMALL_RINGS[rng.randrange(len(CLI_SMALL_RINGS))]]
    jobs = []
    for n, level in rings:
        jobs += _small_cli_jobs(n, level, ctx)
    k_max = 20_000 if ctx.tiny else 200_000
    m_csv = (4, 5) if ctx.tiny else (12, 14)
    m_json = 6 if ctx.tiny else 15

    def prime_summary(res):
        rows = _csv_rows(res)
        return {
            "candidates": [int(e["level"]) for e in rows if e["status"] == "candidate"],
            "flagged": [int(e["level"]) for e in rows if e.get("flags")],
        }

    jobs.append(
        cli_job(
            f"cli classify prime --p 7 --kmax {k_max} --csv",
            ["classify", "prime", "--p", "7", "--kmax", str(k_max), "--csv"],
            ctx,
            prime_summary,
            lambda res: _prime_csv_invariants(_csv_rows(res), k_max),
        )
    )
    for m in m_csv:
        jobs.append(
            cli_job(
                f"cli classify elementary2 --m {m} --csv",
                ["classify", "elementary2", "--m", str(m), "--csv"],
                ctx,
                lambda res: _level_summary(_csv_rows(res)),
                lambda res, m=m: _elementary2_invariants(m, _csv_rows(res)),
            )
        )
    jobs.append(
        cli_job(
            f"cli classify elementary2 --m {m_json} --json",
            ["classify", "elementary2", "--m", str(m_json), "--json"],
            ctx,
            lambda res: _level_summary(_json_doc(res)["levels"]),
            lambda res: _elementary2_invariants(m_json, _json_doc(res)["levels"]),
            largest=True,
        )
    )
    return jobs


def _small_cli_jobs(n: int, level: int, ctx: Context) -> list:
    doc = near_group_json(n, level)
    name = f"ng{n}_{level}.ring"
    path = ctx.work_dir / name
    if not path.exists():
        path.write_text(json.dumps(doc))
    tag = f"R(C{n},{level})"
    rank = n + 1
    d_rho = (level + math.sqrt(level * level + 4 * n)) / 2

    def build_inv(res):
        got = _json_doc(res)
        same = got["rank"] == rank and got["dual"] == doc["dual"] and got["tensor"] == doc["tensor"]
        return [] if same else ["built ring differs from the independently generated one"]

    def build_summary(res):
        got = _json_doc(res)
        digest = hashlib.sha256(json.dumps(got["tensor"]).encode()).hexdigest()
        return {"rank": got["rank"], "dual": got["dual"], "tensor_sha256": digest}

    def fpdim_summary(res):
        got = _json_doc(res)
        return {"dims": [json_value_key(d["value"]) for d in got["dims"]], "total": json_value_key(got["total"])}

    def fpdim_inv(res):
        s = fpdim_summary(res)
        bad = []
        if len(s["dims"]) != rank or s["dims"][0] != {"q": ["1", "0", 0]}:
            bad.append("unit dimension or dimension count wrong")
        elif not close(float_of(s["dims"][-1]), d_rho):
            bad.append("d(rho) != (level + sqrt(level^2 + 4n)) / 2")
        if not close(float_of(s["total"]), n + d_rho * d_rho):
            bad.append("FPdim(R) != n + d(rho)^2")
        return bad

    def codeg_summary(res):
        got = _json_doc(res)["spectrum"]
        return {"spectrum": [[json_value_key(e["value"]), e["multiplicity"]] for e in got]}

    def codeg_inv(res):
        mult = sum(e["multiplicity"] for e in _json_doc(res)["spectrum"])
        return [] if mult == rank else [f"codegree multiplicities sum to {mult}, rank {rank}"]

    def irreps_summary(res):
        return {"dims": sorted(m["dim"] for m in _json_doc(res)["irreps"])}

    def irreps_inv(res):
        dims = irreps_summary(res)["dims"]
        return [] if sum(d * d for d in dims) == rank else ["irrep dimensions do not fill the ring"]

    def obstruct_summary(res):
        return {"exit": res.code, "verdicts": {v["test"]: v["outcome"] for v in _json_doc(res)["verdicts"]}}

    def obstruct_inv(res):
        elim = any(v["outcome"] == "eliminates" for v in _json_doc(res)["verdicts"])
        return [] if (res.code == 10) == elim else ["exit code disagrees with the verdicts"]

    def generic_summary(res):
        return {"exit": res.code, "status": _json_doc(res)["levels"][0]["status"]}

    def generic_inv(res):
        elim = _json_doc(res)["levels"][0]["status"] == "eliminated"
        return [] if (res.code == 10) == elim else ["exit code disagrees with the status"]

    def verify_inv(res):
        return [] if f"rank {rank}" in res.stdout.decode() else ["verify did not report the rank"]

    return [
        cli_job(
            f"cli build neargroup {tag}",
            ["build", "neargroup", "--group", str(n), "--level", str(level)],
            ctx,
            build_summary,
            build_inv,
        ),
        cli_job(f"cli verify {tag}", ["verify", name], ctx, lambda res: {"exit": res.code}, verify_inv),
        cli_job(f"cli fpdim --json {tag}", ["fpdim", name, "--json"], ctx, fpdim_summary, fpdim_inv),
        cli_job(f"cli codegrees --json {tag}", ["codegrees", name, "--json"], ctx, codeg_summary, codeg_inv),
        cli_job(f"cli irreps --json {tag}", ["irreps", name, "--json"], ctx, irreps_summary, irreps_inv),
        cli_job(
            f"cli obstruct --json {tag}", ["obstruct", name, "--json"], ctx, obstruct_summary, obstruct_inv, ok_codes=(0, 10)
        ),
        cli_job(
            f"cli classify generic --json {tag}",
            ["classify", "generic", name, "--json"],
            ctx,
            generic_summary,
            generic_inv,
            ok_codes=(0, 10),
        ),
    ]


JOB_LISTS = {
    "prime-scan": prime_scan_jobs,
    "spectra": spectra_jobs,
    "verlinde": verlinde_jobs,
    "cli": cli_jobs,
}


def make_jobs(workload: str, rng, ctx: Context, every: bool = False) -> list:
    """The workload's job list for this seed (every=True: every input any
    seed can draw, for recording expected values)."""
    return JOB_LISTS[workload](rng, ctx, every)


def load_expected() -> dict:
    path = BENCH / "expected.json"
    return json.loads(path.read_text()) if path.exists() else {}


def check(job: Job, output, expected: dict) -> list:
    """All problems with one job's output: invariants plus recorded values."""
    try:
        problems = list(job.invariants(output))
        recorded = expected.get(job.key)
        if recorded is not None:
            problems += mismatches(job.summary(output), recorded, job.key)
    except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
        problems = [f"output could not be checked: {type(exc).__name__}: {exc}"]
    return problems


def library_origin_ok() -> bool:
    return Path(fusionring.__file__).resolve().is_relative_to(SRC.resolve())
