"""Lossless JSON text documents for sets.

A document is a JSON object with a ``kind`` of ``cellset``, ``boxunion`` or
``shape`` (rational balls).  All rationals are exact strings like ``"3/2"``
(integers may drop the denominator); floats are rejected to keep every value
exact.  Printing is canonical — sorted cells, reduced fractions, fixed key
order — so parse/print round-trips are the identity on canonical text.
``parse_set`` returns the ``CellSet``, ``BoxUnion`` or ``L1Ball`` a document
describes, and ``print_set`` writes the canonical text of one.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ._util import frac_str
from .lattice import BoxUnion, CellSet, RatBox
from .pixellation import L1Ball

KIND = {CellSet: "cellset", BoxUnion: "boxunion", L1Ball: "shape"}  # document kind of each type


class ParseError(ValueError):
    """A malformed document; the message names the offending field."""


def _fail(where: str, message: str) -> ParseError:
    return ParseError(f"{where}: {message}")


def _parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise _fail(where, f"expected an exact rational string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise _fail(where, f"malformed rational {value!r}") from None
    raise _fail(where, f"expected an exact rational string, got {type(value).__name__}")


def _parse_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(where, f"expected an integer, got {value!r}")
    return value


def _parse_vector(value, dimension: int, where: str) -> tuple[Fraction, ...]:
    if not isinstance(value, list) or len(value) != dimension:
        raise _fail(where, f"expected a list of {dimension} rationals")
    return tuple(_parse_rational(v, f"{where}[{i}]") for i, v in enumerate(value))


def _require_fields(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise _fail(where, f"unexpected field {key!r}")
    for key in allowed:
        if key not in obj:
            raise _fail(where, f"missing field {key!r}")


def parse_set(text: str) -> CellSet | BoxUnion | L1Ball:
    """The set a document describes, its boxes sorted; rejects duplicates,
    floats and malformed fields."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise _fail("document", "top level must be a JSON object")
    kind = obj.get("kind")
    if kind not in KIND.values():
        raise _fail("kind", f"must be one of {', '.join(KIND.values())}; got {kind!r}")
    n = _parse_int(obj.get("dimension"), "dimension")
    if n < 0:
        raise _fail("dimension", "must be >= 0")

    if kind == "cellset":
        _require_fields(obj, ("kind", "dimension", "resolution", "cells"), "document")
        resolution = _parse_rational(obj["resolution"], "resolution")
        if resolution <= 0:
            raise _fail("resolution", "must be positive")
        raw = obj["cells"]
        if not isinstance(raw, list):
            raise _fail("cells", "expected a list of cells")
        cells = []
        for i, item in enumerate(raw):
            where = f"cells[{i}]"
            if not isinstance(item, list) or len(item) != n:
                raise _fail(where, f"expected a list of {n} integers")
            cells.append(tuple(_parse_int(v, f"{where}[{j}]") for j, v in enumerate(item)))
        if len(set(cells)) != len(cells):
            dup = next(c for i, c in enumerate(cells) if c in cells[:i])
            raise _fail("cells", f"duplicate cell {list(dup)}")
        return CellSet(n, cells, resolution)

    if kind == "boxunion":
        _require_fields(obj, ("kind", "dimension", "boxes"), "document")
        raw = obj["boxes"]
        if not isinstance(raw, list):
            raise _fail("boxes", "expected a list of boxes")
        boxes = []
        for i, item in enumerate(raw):
            where = f"boxes[{i}]"
            if not isinstance(item, dict):
                raise _fail(where, "expected an object with 'min' and 'max'")
            _require_fields(item, ("min", "max"), where)
            mins = _parse_vector(item["min"], n, f"{where}.min")
            maxs = _parse_vector(item["max"], n, f"{where}.max")
            for j in range(n):
                if mins[j] > maxs[j]:
                    raise _fail(f"{where}.min[{j}]", "exceeds the matching max")
            boxes.append((mins, maxs))
        return BoxUnion(n, [RatBox(mins, maxs) for mins, maxs in sorted(boxes)])

    _require_fields(obj, ("kind", "dimension", "shape"), "document")
    shape = obj["shape"]
    if not isinstance(shape, dict):
        raise _fail("shape", "expected an object")
    if shape.get("type") != "ball":
        raise _fail("shape.type", f"must be 'ball'; got {shape.get('type')!r}")
    _require_fields(shape, ("type", "center", "radius"), "shape")
    center = _parse_vector(shape["center"], n, "shape.center")
    radius = _parse_rational(shape["radius"], "shape.radius")
    if radius <= 0:
        raise _fail("shape.radius", "must be positive")
    return L1Ball(center, radius)


def print_set(obj: CellSet | BoxUnion | L1Ball) -> str:
    """Canonical text for a set: fixed key order, sorted cells and boxes."""
    kind = KIND.get(type(obj))
    if kind is None:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    doc: dict = {"kind": kind, "dimension": obj.dimension}
    if isinstance(obj, CellSet):
        doc["resolution"] = frac_str(obj.resolution)
        doc["cells"] = obj.indices.tolist()
    elif isinstance(obj, BoxUnion):
        doc["boxes"] = [
            {"min": [frac_str(v) for v in mins], "max": [frac_str(v) for v in maxs]}
            for mins, maxs in sorted((b.mins, b.maxs) for b in obj.boxes)
        ]
    else:
        doc["shape"] = {
            "type": "ball",
            "center": [frac_str(v) for v in obj.center],
            "radius": frac_str(obj.radius),
        }
    return json.dumps(doc, indent=2) + "\n"
