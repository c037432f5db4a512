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
import os
import sys
from contextlib import nullcontext
from dataclasses import replace
from itertools import chain

from .errors import FusionRingError, InternalInvariantError
from .ringfile import (
    alg_to_dict,
    dumps_json,
    dumps_report,
    load_character_table,
    load_ring,
    write_json,
    write_lines,
    write_ring,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_ELIMINATED = 10

# classify elementary2 lists all 2^m + 1 levels, streamed a batch of lines at a
# time: m = 20 takes 0.43-0.57 s with --json and 0.41-0.63 s with --csv, 18 MB
# either way (child peak RSS, output to /dev/null, 2-CPU Xeon, start-up included)
ELEMENTARY2_MAX_M = 20

# classify prime runs one Pell expansion for each of about 1.94 p admissible
# square-free parts: p = 99,991 takes 1.0 s at --kmax 10 and 2.6 s at --kmax
# 10^6, p = 1,000,003 8.7 s at --kmax 10 (2-CPU Xeon, start-up included)
PRIME_MAX_P = 100_000

# each Pell expansion runs until its convergents pass 2 p (kmax/2)^2 + 1, so
# the scan's cost grows with the digits of --kmax: p = 99,991 takes 21 s at
# --kmax 10^41 - 1 (2-CPU Xeon, start-up included)
PRIME_MAX_KMAX_DIGITS = 41

# fpdim refines each non-quadratic root to 2^-N in O(log N) Newton steps on
# numbers of about N * rank bits: N = 4096 takes 0.62 s on SU(2)_9 and 2.5-3.1 s
# on SU(2)_19 (2-CPU Xeon, start-up included)
FPDIM_MAX_WIDTH_BITS = 4096


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fusionring", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct a fusion ring")
    build.set_defaults(run=_cmd_build)
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
        help="stabilizer H: 'trivial', 'all', or generators named as build group labels them, like '1,0;0,2'",
    )
    b_uni.add_argument("--theta", default="identity", choices=["identity", "inversion"])
    b_uni.add_argument("--k", required=True, type=int, help="level divisor (coefficient is k*|H|)")
    add_out(b_uni)

    b_chr = bsub.add_parser("charring", help="character ring from a table file")
    b_chr.add_argument("--table", required=True)
    add_out(b_chr)

    p = sub.add_parser("verify", help="check the fusion-ring axioms")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("ring")

    p = sub.add_parser("fpdim", help="Frobenius-Perron dimensions")
    p.set_defaults(run=_cmd_fpdim)
    p.add_argument("ring")
    p.add_argument("--basis", type=int, help="only this basis index")
    p.add_argument(
        "--width-bits",
        type=int,
        default=64,
        help=f"isolating-interval width 2^-N for non-quadratic roots (default 64, at most {FPDIM_MAX_WIDTH_BITS}; "
        "N below 64 keeps the 2^-64 default, width only narrows)",
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("codegrees", help="formal codegree spectrum")
    p.set_defaults(run=_cmd_codegrees)
    p.add_argument("ring")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("irreps", help="exact irreducible representations (uniform rings)")
    p.set_defaults(run=_cmd_irreps)
    p.add_argument("ring")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("obstruct", help="run every categorifiability obstruction")
    p.set_defaults(run=_cmd_obstruct)
    p.add_argument("ring")
    p.add_argument("--json", action="store_true")

    cls = sub.add_parser("classify", help="level classification engines")
    cls.set_defaults(run=_cmd_classify)
    csub = cls.add_subparsers(dest="engine", required=True)

    p = csub.add_parser("elementary2", help="near-group levels over C2^m")
    p.add_argument("--m", required=True, type=int)
    _add_format(p)

    p = csub.add_parser("prime", help="candidate near-group levels over C_p, p = 3 mod 4")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--kmax", required=True, type=int)
    flt = p.add_mutually_exclusive_group()
    flt.add_argument("--residue-filter", type=_prime_list, help="comma-separated primes excluded from x")
    flt.add_argument("--no-filter", action="store_true", help="disable the default residue filter")
    p.add_argument("--conjecture-cutoff", action="store_true", help="cap levels below p^2 (NOT rigorous)")
    _add_format(p)

    p = csub.add_parser("generic", help="single-ring verdict")
    p.add_argument("ring")
    _add_format(p)
    return ap


def _add_format(p):
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")


def _prime_list(text: str) -> tuple[int, ...]:
    if not text:
        raise argparse.ArgumentTypeError("is empty: list at least one prime, or pass --no-filter")
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of integers") from None


def _cmd_build(args) -> int:
    from .construct import character_ring, group_ring, haagerup_izumi, near_group, uniform_two_orbit
    from .groups import parse_group_factors

    if args.family == "group":
        ring = group_ring(parse_group_factors(args.group))
    elif args.family == "neargroup":
        ring = near_group(parse_group_factors(args.group), args.level)
    elif args.family == "haagerup-izumi":
        ring = haagerup_izumi(parse_group_factors(args.group))
    elif args.family == "uniform":
        stab = args.stab
        if stab not in ("trivial", "all"):
            # generators are element names, as `build group` labels them
            stab = [",".join(str(int(v)) for v in gen.split(",")) for gen in stab.split(";")]
        ring = uniform_two_orbit(parse_group_factors(args.group), stab, args.theta, args.k)
    else:  # charring
        ring = character_ring(load_character_table(args.table))
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
        write_ring(fh.write, ring)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .ring import verify_axioms

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

    from .ring import fpdim_basis, fpdim_total

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
    models = uniform_irreps(ring)  # checks every model before it returns, so a breach writes nothing
    if args.json:
        write_json(sys.stdout.write, {"irreps": []}, "irreps", (dumps_json(_irrep_dict(m)) for m in models))
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
    from .obstruct import eliminated, run_all

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


def _csv_line(e) -> str:
    tests = ";".join(v.test_name for v in e.certificates)
    return (
        f"{e.level},{e.k if e.k is not None else ''},{e.status},"
        f"{e.x if e.x is not None else ''},{e.tag or ''},{tests},{';'.join(e.flags)}"
    )


def _text_line(e) -> str:
    extra = ""
    if e.x is not None:
        extra += f"  x={e.x}"
    if e.tag:
        extra += f"  [{e.tag}]"
    if e.certificates:
        extra += "  via " + ",".join(v.test_name for v in e.certificates)
    if e.flags:
        extra += "  !! " + "; ".join(e.flags)
    return f"  level {e.level:>8}  {e.status}{extra}"


def _emit_report(report, args) -> None:
    from .classify import report_lines

    # report_lines checks every run before it returns, so a breach writes nothing
    write = sys.stdout.write
    if args.json:
        lines = report_lines(report, lambda e: dumps_json(e.to_dict()))
        write_json(write, replace(report, levels=()).to_dict(), "levels", lines)
    elif args.csv:
        write_lines(write, chain(["level,k,status,x,tag,tests,flags"], report_lines(report, _csv_line)), "\n", tail="\n")
    else:
        lines = report_lines(report, _text_line, "{:>8}".format)
        notes = (f"note: {n}" for n in report.notes)
        write_lines(write, chain([f"group {report.group}"], lines, notes), "\n", tail="\n")


def _cmd_classify(args) -> int:
    from .classify import (
        DEFAULT_RESIDUE_FILTERS,
        STATUS_ELIMINATED,
        classify_elementary2,
        classify_generic,
        scan_prime_levels,
    )

    if args.engine == "elementary2":
        if args.m > ELEMENTARY2_MAX_M:
            raise ValueError(f"--m {args.m} is above the limit {ELEMENTARY2_MAX_M}: the report lists 2^m + 1 levels")
        report = classify_elementary2(args.m)
        _emit_report(report, args)
        return EXIT_OK
    if args.engine == "prime":
        if args.p > PRIME_MAX_P:
            raise ValueError(f"--p {args.p} is above the limit {PRIME_MAX_P}: the scan runs about 1.94 p Pell expansions")
        digits = len(str(abs(args.kmax)))
        if digits > PRIME_MAX_KMAX_DIGITS:
            raise ValueError(
                f"--kmax has {digits} digits, above the limit {PRIME_MAX_KMAX_DIGITS}: the scan's cost grows with them"
            )
        rf = args.residue_filter
        if rf is None and not args.no_filter:
            rf = DEFAULT_RESIDUE_FILTERS.get(args.p)
        report = scan_prime_levels(args.p, args.kmax, residue_filter=rf, conjecture_cutoff=args.conjecture_cutoff)
        _emit_report(report, args)
        return EXIT_OK
    report = classify_generic(load_ring(args.ring))
    _emit_report(report, args)
    return EXIT_ELIMINATED if report.levels[0].status == STATUS_ELIMINATED else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe fails here if no write above did
        return code
    except InternalInvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (FusionRingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):  # what stdout still holds would fail again at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
