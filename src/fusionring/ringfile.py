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
from .errors import MalformedRingError
from .ring import FusionRing

if TYPE_CHECKING:
    from .construct import CharacterTable


def ring_to_dict(ring: FusionRing) -> dict:
    return {
        "rank": ring.rank,
        "labels": list(ring.labels),
        "dual": list(ring.dual),
        "tensor": [[list(row) for row in mat] for mat in ring.rows],
    }


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
    return FusionRing(labels, doc["dual"], doc["tensor"])


def dumps_ring(ring: FusionRing) -> str:
    return json.dumps(ring_to_dict(ring), sort_keys=True, separators=(",", ":")) + "\n"


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
    if not isinstance(sizes, list) or not all(map(_is_int, sizes)):
        raise MalformedRingError("class_sizes must be a list of integers")
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
    table = CharacterTable(group_order=order, root_order=N, class_sizes=tuple(sizes), values=tuple(rows))
    table.validate()
    return table


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


def dumps_report(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
