"""Command-line interface.

Subcommands: build (group | neargroup | haagerup-izumi | uniform | charring),
verify, fpdim, codegrees, irreps, obstruct, classify (elementary2 | prime).

Exit codes: 0 success / all tests pass, 10 eliminated verdict, 2 input
error, 3 internal invariant breach (always a bug).  Machine output (--json,
--csv) contains exact values only; identical inputs and flags produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

# construct and represent load inside the commands that use them, so
# verify, fpdim, obstruct and classify never compile them; the chain those
# commands run stays here, where a tracer installed after importing this
# module (bench/cli_child.py) finds it
from .classify import classify_elementary2, classify_generic, scan_prime_levels
from .errors import FusionRingError, InternalInvariantError, MalformedRingError
from .groups import parse_group_factors
from .obstruct import eliminated, run_all
from .ring import fpdim_basis, fpdim_total, verify_axioms
from .ringfile import (
    alg_to_dict,
    dumps_report,
    dumps_ring,
    load_character_table,
    load_ring,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_ELIMINATED = 10

# classify elementary2 lists all 2^m + 1 levels: m = 20 --json takes about 24 s and 1.6 GB
ELEMENTARY2_MAX_M = 20

# fpdim refines each non-quadratic root to 2^-N in O(log N) Newton steps on
# numbers of about N * rank bits: N = 4096 takes 0.62 s on SU(2)_9 and 2.5-3.1 s
# on SU(2)_19 (2-CPU Xeon, start-up included)
FPDIM_MAX_WIDTH_BITS = 4096


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fusionring", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct a fusion ring")
    bsub = build.add_subparsers(dest="family", required=True)

    def add_out(p):
        p.add_argument("--out", help="write the ring here instead of stdout")

    b_group = bsub.add_parser("group", help="integral group ring of an abelian group")
    b_group.add_argument("--group", required=True, help="cyclic factors, e.g. 2,2")
    add_out(b_group)

    b_ng = bsub.add_parser("neargroup", help="near-group ring R(G, level)")
    b_ng.add_argument("--group", required=True, help="cyclic factors, e.g. 2,2")
    b_ng.add_argument("--level", required=True, type=int)
    add_out(b_ng)

    b_hi = bsub.add_parser("haagerup-izumi", help="Haagerup-Izumi ring over an abelian group")
    b_hi.add_argument("--group", required=True, help="cyclic factors, e.g. 3")
    add_out(b_hi)

    b_uni = bsub.add_parser("uniform", help="uniform two-orbit ring")
    b_uni.add_argument("--group", required=True, help="cyclic factors of the abelian group G")
    b_uni.add_argument(
        "--stab",
        default="trivial",
        help="stabilizer H: 'trivial', 'all', or generators like '1,0;0,2'",
    )
    b_uni.add_argument("--theta", default="identity", choices=["identity", "inversion"])
    b_uni.add_argument("--k", required=True, type=int, help="level divisor (coefficient is k*|H|)")
    add_out(b_uni)

    b_chr = bsub.add_parser("charring", help="character ring from a table file")
    b_chr.add_argument("--table", required=True)
    add_out(b_chr)

    p = sub.add_parser("verify", help="check the fusion-ring axioms")
    p.add_argument("ring")

    p = sub.add_parser("fpdim", help="Frobenius-Perron dimensions")
    p.add_argument("ring")
    p.add_argument("--basis", type=int, help="only this basis index")
    p.add_argument(
        "--width-bits",
        type=int,
        default=64,
        help=f"isolating-interval width 2^-N for non-quadratic roots (default 64, at most {FPDIM_MAX_WIDTH_BITS})",
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("codegrees", help="formal codegree spectrum")
    p.add_argument("ring")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("irreps", help="exact irreducible representations (uniform rings)")
    p.add_argument("ring")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("obstruct", help="run every categorifiability obstruction")
    p.add_argument("ring")
    p.add_argument("--json", action="store_true")

    cls = sub.add_parser("classify", help="level classification engines")
    csub = cls.add_subparsers(dest="engine", required=True)

    p = csub.add_parser("elementary2", help="near-group levels over C2^m")
    p.add_argument("--m", required=True, type=int)
    _add_format(p)

    p = csub.add_parser("prime", help="candidate near-group levels over C_p, p = 3 mod 4")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--kmax", required=True, type=int)
    p.add_argument("--residue-filter", help="comma-separated primes excluded from x")
    p.add_argument("--no-filter", action="store_true", help="disable the default residue filter")
    p.add_argument("--conjecture-cutoff", action="store_true", help="cap levels below p^2 (NOT rigorous)")
    _add_format(p)

    p = csub.add_parser("generic", help="single-ring verdict")
    p.add_argument("ring")
    _add_format(p)
    return ap


def _add_format(p):
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")


def _emit_ring(ring, out_path):
    text = dumps_ring(ring)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_build(args) -> int:
    from .construct import character_ring, group_ring, haagerup_izumi, near_group, uniform_two_orbit

    if args.family == "group":
        ring = group_ring(parse_group_factors(args.group))
    elif args.family == "neargroup":
        ring = near_group(parse_group_factors(args.group), args.level)
    elif args.family == "haagerup-izumi":
        ring = haagerup_izumi(parse_group_factors(args.group))
    elif args.family == "uniform":
        stab = args.stab
        if stab not in ("trivial", "all"):
            stab = [tuple(int(v) for v in gen.split(",")) for gen in stab.split(";")]
            factors = parse_group_factors(args.group)
            stab = [_tuple_to_index(t, factors) for t in stab]
        ring = uniform_two_orbit(parse_group_factors(args.group), stab, args.theta, args.k)
    else:  # charring
        ring = character_ring(load_character_table(args.table))
    _emit_ring(ring, args.out)
    return EXIT_OK


def _tuple_to_index(t: tuple[int, ...], factors: tuple[int, ...]) -> int:
    if len(t) != len(factors):
        raise MalformedRingError(f"element {t} does not match factors {factors}")
    idx = 0
    for v, f in zip(t, factors):
        if not 0 <= v < f:
            raise MalformedRingError(f"element {t} out of range for factors {factors}")
        idx = idx * f + v
    return idx


def _cmd_verify(args) -> int:
    ring = load_ring(args.ring)
    violations = verify_axioms(ring)
    if violations:
        for v in violations:
            print(str(v), file=sys.stderr)
        return EXIT_INPUT
    print(f"ok: fusion ring of rank {ring.rank}")
    return EXIT_OK


def _cmd_fpdim(args) -> int:
    from fractions import Fraction

    if args.width_bits < 1:
        raise ValueError("--width-bits must be positive")
    if args.width_bits > FPDIM_MAX_WIDTH_BITS:
        raise ValueError(f"--width-bits {args.width_bits} is above the limit {FPDIM_MAX_WIDTH_BITS}")
    width = Fraction(1, 2**args.width_bits)
    ring = load_ring(args.ring)
    indices = [args.basis] if args.basis is not None else list(range(ring.rank))
    dims = [(i, fpdim_basis(ring, i, width=width)) for i in indices]
    total = fpdim_total(ring, width=width)
    if args.json:
        doc = {
            "dims": [{"index": i, "label": ring.labels[i], "value": alg_to_dict(d)} for i, d in dims],
            "total": alg_to_dict(total),
        }
        sys.stdout.write(dumps_report(doc))
    else:
        for i, d in dims:
            print(f"FPdim({ring.labels[i]}) = {d} ~ {float(d):.10f}")
        print(f"FPdim(R) = {total} ~ {float(total):.10f}")
    return EXIT_OK


def _cmd_codegrees(args) -> int:
    from .represent import codegree_spectrum

    ring = load_ring(args.ring)
    spectrum = codegree_spectrum(ring)
    if args.json:
        doc = {
            "spectrum": [
                {
                    "value": alg_to_dict(e.value),
                    "multiplicity": e.eigen_multiplicity,
                    "dim_hint": e.dim_hint,
                }
                for e in spectrum
            ]
        }
        sys.stdout.write(dumps_report(doc))
    else:
        for e in spectrum:
            hint = f" dim={e.dim_hint}" if e.dim_hint else ""
            print(f"eigenvalue {e.value} ~ {float(e.value):.10f} x{e.eigen_multiplicity}{hint}")
    return EXIT_OK


def _cmd_irreps(args) -> int:
    from .represent import uniform_irreps

    ring = load_ring(args.ring)
    models = uniform_irreps(ring)
    if args.json:
        doc = {"irreps": [_irrep_dict(m) for m in models]}
        sys.stdout.write(dumps_report(doc))
    else:
        for m in models:
            print(f"dim {m.dim}  source {m.source_tag}  field (zeta_{m.root_order}, sqrt {m.radicand})")
    return EXIT_OK


def _irrep_dict(model) -> dict:
    def cyc_dict(c):
        return [str(x) for x in c.coeffs]

    return {
        "dim": model.dim,
        "source": model.source_tag,
        "root_order": model.root_order,
        "radicand": model.radicand,
        "matrices": [
            [[{"u": cyc_dict(e.u), "v": cyc_dict(e.v)} for e in row] for row in mat]
            for mat in model.matrices
        ],
    }


def _cmd_obstruct(args) -> int:
    ring = load_ring(args.ring)
    verdicts = run_all(ring)
    if args.json:
        sys.stdout.write(dumps_report({"verdicts": [v.to_dict() for v in verdicts]}))
    else:
        for v in verdicts:
            print(f"{v.test_name}: {v.outcome}")
            if v.outcome != "not_applicable":
                print(f"    {v.certificate}")
    return EXIT_ELIMINATED if eliminated(verdicts) else EXIT_OK


def _report_csv(report) -> str:
    lines = ["level,k,status,x,tag,tests,flags"]
    for e in report.levels:
        tests = ";".join(v.test_name for v in e.certificates)
        flags = ";".join(e.flags)
        lines.append(
            f"{e.level},{e.k if e.k is not None else ''},{e.status},"
            f"{e.x if e.x is not None else ''},{e.tag or ''},{tests},{flags}"
        )
    return "\n".join(lines) + "\n"


def _emit_report(report, args) -> None:
    if getattr(args, "json", False):
        sys.stdout.write(dumps_report(report.to_dict()))
    elif getattr(args, "csv", False):
        sys.stdout.write(_report_csv(report))
    else:
        print(f"group {report.group}")
        for e in report.levels:
            extra = ""
            if e.x is not None:
                extra += f"  x={e.x}"
            if e.tag:
                extra += f"  [{e.tag}]"
            if e.certificates:
                extra += "  via " + ",".join(v.test_name for v in e.certificates)
            if e.flags:
                extra += "  !! " + "; ".join(e.flags)
            print(f"  level {e.level:>8}  {e.status}{extra}")
        for n in report.notes:
            print(f"note: {n}")


def _cmd_classify(args) -> int:
    if args.engine == "elementary2":
        if args.m > ELEMENTARY2_MAX_M:
            raise ValueError(f"--m {args.m} is above the limit {ELEMENTARY2_MAX_M}: the report lists 2^m + 1 levels")
        report = classify_elementary2(args.m)
        _emit_report(report, args)
        return EXIT_OK
    if args.engine == "prime":
        if args.no_filter:
            rf = None
        elif args.residue_filter:
            rf = tuple(int(v) for v in args.residue_filter.split(","))
        else:
            from .classify import DEFAULT_RESIDUE_FILTERS

            rf = DEFAULT_RESIDUE_FILTERS.get(args.p)
        report = scan_prime_levels(args.p, args.kmax, residue_filter=rf, conjecture_cutoff=args.conjecture_cutoff)
        _emit_report(report, args)
        return EXIT_OK
    from .classify import STATUS_ELIMINATED

    report = classify_generic(load_ring(args.ring))
    _emit_report(report, args)
    return EXIT_ELIMINATED if report.levels[0].status == STATUS_ELIMINATED else EXIT_OK


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "fpdim":
            return _cmd_fpdim(args)
        if args.command == "codegrees":
            return _cmd_codegrees(args)
        if args.command == "irreps":
            return _cmd_irreps(args)
        if args.command == "obstruct":
            return _cmd_obstruct(args)
        if args.command == "classify":
            return _cmd_classify(args)
        ap.error(f"unknown command {args.command}")
    except InternalInvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (FusionRingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
