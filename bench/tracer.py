"""Per-layer tracing of ``fusionring`` from outside the library.

The tracer wraps public functions of the ``fusionring`` modules.  A wrapper
is installed by rebinding *every* ``fusionring.*`` module attribute that is
the target object, so callers that imported a name directly (``obstruct``,
``classify`` and ``algebraic`` import ``squarefree_part``; ``cli`` imports
``codegree_spectrum`` and friends) see the wrapper too.  Methods are wrapped
on their class.

Timed targets record a span per call: ``perf_counter_ns`` at entry and exit,
with the enclosing span carried through a ``ContextVar``.  A span's self time
is its duration minus the durations of its direct child spans.  Spans are
folded into per-group totals as they close, so memory stays constant however
many calls a run makes.  The hottest targets are counted, not timed.

A target missing from the library (renamed or deleted by a later change) is
listed in ``Tracer.absent`` and its metrics read 0; that is not an error.
Only the standard library is used.
"""

from __future__ import annotations

import contextvars
import functools
import sys
import time

TIMED = "time"
COUNTED = "count"

# a traced CLI child hands its totals back on stderr after this prefix
TRACE_PREFIX = "BENCH-TRACE "


class Span:
    __slots__ = ("group", "parent", "child_ns")

    def __init__(self, group: str, parent: "Span | None"):
        self.group = group
        self.parent = parent
        self.child_ns = 0

    def inside(self, group: str) -> bool:
        span = self
        while span is not None:
            if span.group == group:
                return True
            span = span.parent
        return False


class GroupStat:
    __slots__ = ("calls", "self_ns")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0


# --- counter hooks: (tracer, args, result, parent span) -> None -------------


def _factorize_bits(tr, args, result, parent):
    tr.bump_max("numtheory.factorize.bits_max", int(args[0]).bit_length())


def _verify_cells(tr, args, result, parent):
    tr.bump("ring.verify_axioms.cells", args[0].rank ** 4)


def _charpoly_dim(tr, args, result, parent):
    tr.bump("intpoly.charpoly.dim_sum", len(args[0]))


def _promote_hit(tr, args, result, parent):
    if result is not None:
        tr.bump("algebraic.promote.hits", 1)


def _scan_report(tr, args, result, parent):
    bound = result.scan_bound or {}
    tr.bump("classify.scan.m_x_pairs", (bound.get("k_max", 0) // 2) * len(bound.get("admissible_x", ())))
    tr.bump("classify.scan.survivors", sum(1 for e in result.levels if e.k != 1))


def _xbound_hit(tr, args, result, parent):
    if parent is not None and parent.inside("classify.scan_prime_levels"):
        tr.bump("classify.scan.hits", 1)


def _elementary2_rows(tr, args, result, parent):
    tr.bump("classify.elementary2.rows", len(result.levels))


def _dumps_bytes(tr, args, result, parent):
    tr.bump("ringfile.dumps_report.bytes", len(result.encode()))


# group name, mode, hook, targets as "module:qualname"
TARGETS: list[tuple[str, str, object, tuple[str, ...]]] = [
    ("classify.scan_prime_levels", TIMED, _scan_report, ("classify:scan_prime_levels",)),
    ("classify.classify_elementary2", TIMED, _elementary2_rows, ("classify:classify_elementary2",)),
    ("obstruct.prime_xbound", TIMED, _xbound_hit, ("obstruct:prime_xbound",)),
    ("obstruct.run_all", TIMED, None, ("obstruct:run_all",)),
    ("numtheory.factorize", TIMED, _factorize_bits, ("numtheory:factorize",)),
    ("numtheory.squarefree_part", COUNTED, None, ("numtheory:squarefree_part",)),
    ("numtheory.totient", COUNTED, None, ("numtheory:totient",)),
    ("algebraic.Quadratic", COUNTED, None, ("algebraic:Quadratic.__init__",)),
    ("algebraic.promote", TIMED, _promote_hit, ("algebraic:_promote_quadratic",)),
    ("algebraic.alg_cmp", TIMED, None, ("algebraic:alg_cmp",)),
    ("algebraic.largest_real_root", TIMED, None, ("algebraic:largest_real_root",)),
    ("algebraic.all_real_roots", TIMED, None, ("algebraic:all_real_roots",)),
    (
        "construct.build",
        TIMED,
        None,
        (
            "construct:group_ring",
            "construct:near_group",
            "construct:haagerup_izumi",
            "construct:uniform_two_orbit",
            "construct:character_ring",
            "construct:dihedral_character_ring",
        ),
    ),
    ("ring.verify_axioms", TIMED, _verify_cells, ("ring:verify_axioms",)),
    ("ring.fpdim_basis", TIMED, None, ("ring:fpdim_basis",)),
    ("ring.fpdim_total", TIMED, None, ("ring:fpdim_total",)),
    (
        "ring.structure",
        TIMED,
        None,
        (
            "ring:invertibles",
            "ring:is_invertible",
            "ring:orbit_structure",
            "ring:two_orbit_data",
            "ring:dimension_profile",
            "ring:is_commutative",
            "ring:noninvertible_indices",
            "ring:global_multiplication_matrix",
        ),
    ),
    ("intpoly.charpoly", TIMED, _charpoly_dim, ("intpoly:charpoly",)),
    ("intpoly.bareiss_det", COUNTED, None, ("intpoly:bareiss_det",)),
    ("intpoly.isolate_real_roots", TIMED, None, ("intpoly:isolate_real_roots",)),
    ("intpoly.sturm_chain", COUNTED, None, ("intpoly:sturm_chain",)),
    ("intpoly.sign_variations_at", COUNTED, None, ("intpoly:sign_variations_at",)),
    ("intpoly.refine_interval", TIMED, None, ("intpoly:refine_interval",)),
    ("intpoly.poly_eval", COUNTED, None, ("intpoly:poly_eval",)),
    ("intpoly.poly_divmod", COUNTED, None, ("intpoly:poly_divmod",)),
    ("represent.codegree_spectrum", TIMED, None, ("represent:codegree_spectrum",)),
    ("represent.uniform_irreps", TIMED, None, ("represent:uniform_irreps",)),
    ("represent.verify_irrep", TIMED, None, ("represent:verify_irrep",)),
    (
        "ringfile.report_to_dict",
        TIMED,
        None,
        (
            "classify:LevelReport.to_dict",
            "classify:LevelEntry.to_dict",
            "obstruct:ObstructionVerdict.to_dict",
            "ringfile:alg_to_dict",
        ),
    ),
    ("ringfile.dumps_report", TIMED, _dumps_bytes, ("ringfile:dumps_report",)),
    ("ringfile.loads_ring", TIMED, None, ("ringfile:loads_ring",)),
    ("cli.main", TIMED, None, ("cli:main",)),
]

# counters fed by hooks rather than by call counts; max-type ones merge by max
COUNTERS = (
    "classify.scan.m_x_pairs",
    "classify.scan.hits",
    "classify.scan.survivors",
    "classify.elementary2.rows",
    "numtheory.factorize.bits_max",
    "ring.verify_axioms.cells",
    "intpoly.charpoly.dim_sum",
    "algebraic.promote.hits",
    "ringfile.dumps_report.bytes",
)
MAX_COUNTERS = ("numtheory.factorize.bits_max",)


PACKAGE = "fusionring"


def _package_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Installs wrappers, aggregates spans and counters, and removes itself."""

    def __init__(self):
        self.stats = {group: GroupStat() for group, _, _, _ in TARGETS}
        self.counters = {name: 0 for name in COUNTERS}
        self.absent: list[str] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar("bench_span", default=None)
        self._patches: list[tuple[object, str, object]] = []

    # counters ----------------------------------------------------------------
    def bump(self, name: str, n: int) -> None:
        self.counters[name] += n

    def bump_max(self, name: str, n: int) -> None:
        if n > self.counters[name]:
            self.counters[name] = n

    # wrappers ------------------------------------------------------------------
    def _timed(self, group: str, fn, hook):
        stat = self.stats[group]
        current = self._current
        perf = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = current.get()
            span = Span(group, parent)
            token = current.set(span)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                current.reset(token)
                stat.self_ns += dt - span.child_ns
                if parent is not None:
                    parent.child_ns += dt
                # a call nested in its own group (recursion, or one constructor
                # delegating to another) is one call of the layer
                if parent is None or not parent.inside(group):
                    stat.calls += 1
            if hook is not None:
                hook(tracer, args, result, parent)
            return result

        return wrapper

    def _counted(self, group: str, fn):
        stat = self.stats[group]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # install / uninstall ---------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        by_name = {m.__name__: m for m in modules}
        self.absent = []
        for group, mode, hook, targets in TARGETS:
            for target in targets:
                mod_name, qualname = target.split(":")
                mod = by_name.get(f"{PACKAGE}.{mod_name}")
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None or not callable(fn):
                    self.absent.append(target)
                    continue
                wrapper = self._counted(group, fn) if mode == COUNTED else self._timed(group, fn, hook)
                if owner_name:
                    self._patch(owner, attr, fn, wrapper)
                    continue
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, name, fn, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # results -------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data totals; merge() adds one snapshot into another tracer."""
        return {
            "stats": {g: [s.calls, s.self_ns] for g, s in self.stats.items()},
            "counters": dict(self.counters),
            "absent": list(self.absent),
        }

    def merge(self, snap: dict) -> None:
        for group, (calls, self_ns) in snap["stats"].items():
            if group in self.stats:
                self.stats[group].calls += calls
                self.stats[group].self_ns += self_ns
        for name, value in snap["counters"].items():
            if name in MAX_COUNTERS:
                self.bump_max(name, value)
            elif name in self.counters:
                self.bump(name, value)
        for target in snap["absent"]:
            if target not in self.absent:
                self.absent.append(target)

    def calls(self, group: str) -> int:
        return self.stats[group].calls

    def self_s(self, group: str) -> float:
        return self.stats[group].self_ns / 1e9
