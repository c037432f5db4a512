"""Canonical interchange formats.

A fusion ring is a single JSON document with integer-only payload:

    {"rank": R, "labels": [...], "dual": [...], "tensor": [[[c_ijk]]]}

tensor[i][j][k] is the coefficient of basis element k in the product of i
and j.  Serialization is canonical (sorted keys, fixed separators, trailing
newline), so identical rings produce identical bytes.

Character tables carry exact cyclotomic values as integer coefficient
vectors in the zeta_N power basis:

    {"group_order": n, "root_order": N, "class_sizes": [...],
     "values": [[[a0, a1, ...], ...], ...]}
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebraic import IsolatedRoot, Quadratic
from .errors import InternalInvariantError, MalformedRingError
from .numtheory import totient
from .ring import FusionRing, _check_rank, _dense

if TYPE_CHECKING:
    from .construct import CharacterTable

# a table's values live in Q(zeta_N), N = root_order.  Setting up that field
# takes 0.1 s at N = 1015, 0.3 s at N = 1995, 0.4 s at N = 2145 and 1.3 s at
# N = 4620 (a one-class table, 2-CPU Xeon, start-up included)
ROOT_ORDER_LIMIT = 1024
# validating a table and building its ring take one product of packed values
# per class and unordered triple of rows: about rank^4 phi(N) / 6 products
# of integers with phi(N) digits.  Measured per unit of rank^4 phi(N) on a
# 2-CPU Xeon, start-up included, with the limit lifted: 4.2-4.7 ns for the
# dihedral table of D120 (N = 120, 2.1-2.4 s) and 23-25 ns for D32 lifted to
# N = 1024 (1.5-1.7 s), the largest field, where the products dominate.  The
# constant was set from 45-54 ns per unit, measured on lifted tables before
# the reduction bound G(N) was tightened, so it refuses both tables
TABLE_WORK_LIMIT = 60_000_000


def ring_from_dict(doc) -> FusionRing:
    if not isinstance(doc, dict):
        raise MalformedRingError("ring document must be a JSON object")
    missing = {"rank", "labels", "dual", "tensor"} - set(doc)
    if missing:
        raise MalformedRingError(f"missing fields: {sorted(missing)}")
    rank = doc["rank"]
    labels = doc["labels"]
    if not _is_int(rank) or not isinstance(labels, list) or len(labels) != rank:
        raise MalformedRingError("rank must be an integer matching len(labels)")
    _check_rank(rank)
    return FusionRing(labels, doc["dual"], doc["tensor"])


def write_ring(write, ring: FusionRing) -> None:
    """The canonical document of ring, written one fusion matrix at a time."""
    doc = {"dual": list(ring.dual), "labels": list(ring.labels), "rank": ring.rank, "tensor": []}
    write_json(write, doc, "tensor", (dumps_json([_dense(row, ring.rank) for row in mat]) for mat in ring.rows))


def dumps_ring(ring: FusionRing) -> str:
    pieces: list[str] = []
    write_ring(pieces.append, ring)
    return "".join(pieces)


def loads_ring(text: str) -> FusionRing:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedRingError(f"invalid JSON: {exc}")
    return ring_from_dict(doc)


def load_ring(path: str) -> FusionRing:
    with open(path) as fh:
        return loads_ring(fh.read())


def load_character_table(path: str) -> CharacterTable:
    """The table in the file at path, read and bounded but not validated:
    `construct.character_ring` validates the table it is given."""
    from .construct import CharacterTable
    from .cyclotomic import Cyc

    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedRingError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise MalformedRingError("character table must be a JSON object")
    for key in ("group_order", "root_order", "class_sizes", "values"):
        if key not in doc:
            raise MalformedRingError(f"character table missing field {key!r}")
    for key in ("root_order", "group_order"):
        if not _is_int(doc[key]) or doc[key] < 1:
            raise MalformedRingError(f"{key} must be a positive integer")
    N, order, sizes, values = doc["root_order"], doc["group_order"], doc["class_sizes"], doc["values"]
    if N > ROOT_ORDER_LIMIT:
        raise MalformedRingError(f"root_order {N} is above the limit {ROOT_ORDER_LIMIT}")
    if not isinstance(sizes, list) or not all(map(_is_int, sizes)):
        raise MalformedRingError("class_sizes must be a list of integers")
    _check_rank(len(sizes))  # the rank of the character ring
    work = len(sizes) ** 4 * totient(N)
    if work > TABLE_WORK_LIMIT:
        raise MalformedRingError(f"table work rank^4 * phi(root_order) = {work} is above the limit {TABLE_WORK_LIMIT}")
    if not isinstance(values, list) or not all(isinstance(row, list) for row in values):
        raise MalformedRingError("values must be a list of rows, each a list")
    rows = []
    for row in values:
        cells = []
        for vec in row:
            if not isinstance(vec, list) or not all(map(_is_int, vec)):
                raise MalformedRingError("character values must be integer coefficient vectors")
            cells.append(Cyc(N, vec))
        rows.append(tuple(cells))
    return CharacterTable(group_order=order, root_order=N, class_sizes=tuple(sizes), values=tuple(rows))


def _is_int(x) -> bool:
    """A JSON integer: true and false are not integers here, as in ring files."""
    return isinstance(x, int) and not isinstance(x, bool)


def alg_to_dict(x) -> dict:
    """Exact serialization: Quadratics as (a, b, D) triples with rationals as
    'p/q' strings, isolated roots as polynomial plus interval."""
    if isinstance(x, (int, Fraction)):
        x = Quadratic(x)
    if isinstance(x, Quadratic):
        return {"a": str(x.a), "b": str(x.b), "D": x.D}
    if isinstance(x, IsolatedRoot):
        lo, hi = x.interval()
        return {"poly": [int(c) for c in x.poly], "lo": str(lo), "hi": str(hi)}
    raise TypeError(f"cannot serialize {x!r}")


def dumps_json(x) -> str:
    """x as canonical JSON text: sorted keys, no spaces, no newline."""
    return json.dumps(x, sort_keys=True, separators=(",", ":"))


def dumps_report(doc: dict) -> str:
    return dumps_json(doc) + "\n"


def write_lines(write, lines, sep: str, head: str = "", tail: str = "") -> None:
    """head, the lines joined by sep, and tail, written about 64 KiB of text at a time."""
    batch, size = [], 0
    for line in lines:
        if size >= 65536:  # a line follows the batch, so the batch ends in sep
            write(head + sep.join(batch) + sep)
            head, batch, size = "", [], 0
        batch.append(line)
        size += len(sep) + len(line)
    write(head + sep.join(batch) + tail)


def write_json(write, doc: dict, key: str, items) -> None:
    """The bytes of dumps_report(doc) with the empty list doc[key] holding
    items, each the canonical JSON text of one element.  The envelope is
    split once, where doc[key] stands, and checked before the first byte."""
    mark = json.dumps(key) + ":["
    pieces = dumps_report(doc).split(mark + "]")
    if doc.get(key) != [] or len(pieces) != 2:
        raise InternalInvariantError(f"the envelope must hold {mark}] once, as doc[{key!r}] = []")
    write_lines(write, items, ",", pieces[0] + mark, "]" + pieces[1])
