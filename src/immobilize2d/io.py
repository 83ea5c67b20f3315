"""JSON interchange for bodies, points, verdicts, placements, and reports.

Scalars serialize as canonical fraction strings ("3/4", "-2").  A scalar
field is read by ``geom.read_scalar``, the library's one number reader: a
string in ``Fraction``'s grammar (a fraction "-7/2" with no sign on the
denominator and no space around the slash, or a decimal "0.75", "2.5E-3"),
an integer or a float, all converted exactly.  A JSON null, array or object
where a scalar belongs is a structural error of its document.
Serialization builds dicts in a fixed key order and `dumps` renders them
stably, so identical data yields identical bytes.

Arc endpoints are stored as ``from``/``to`` vectors pointing from the
center to the endpoints (exactly the in-memory representation), keeping
round-trips lossless.

A body document writes every vertex twice, as one segment's ``b`` and the
next one's ``a``; ``body_from_json`` reads each distinct vector once per
document and hands the same ``Vec`` to both.  It keys a vector by its
coordinates' types and values, so a ``true`` after a ``1`` is still read,
and refused, and keeps only vectors that were read without error, so every
malformed document raises as if each vector were read on its own.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .body import (
    EXACT_POLYGON,
    MIXED_INEXACT,
    Arc,
    BoundaryPoint,
    ConvexBody,
    Segment,
    boundary_point,
    locate,
)
from .classify import CCW, CW, QUESTION_ALMOST, QUESTION_FIX, PlacementDescriptor, Verdict, Witness
from .errors import InvalidPointError, OutOfRangeError
from .geom import MAX_DIGITS, Vec, read_scalar
from .oracle import EscapeReport


def scalar_to_json(x: Fraction) -> str:
    """Canonical fraction string; a term too long for ``str`` is OUT_OF_RANGE."""
    try:
        return str(x)
    except ValueError:
        raise OutOfRangeError(f"scalar too long to print: a term has more than {MAX_DIGITS} digits") from None


def _scalar(v, what: str) -> Fraction:
    """``read_scalar(v, what)`` for a JSON value; a null, array or object raises ``TypeError``."""
    if v is None or isinstance(v, (list, dict)):
        raise TypeError(f"{what} {v!r:.40} is not a number or a string")
    return read_scalar(v, what)


def vec_to_json(v: Vec) -> dict:
    return {"x": scalar_to_json(v.x), "y": scalar_to_json(v.y)}


def vec_from_json(d) -> Vec:
    """A malformed vector is INVALID_POINT; body and witness documents report it as OUT_OF_RANGE."""
    try:
        return Vec(_scalar(d["x"], "coordinate"), _scalar(d["y"], "coordinate"))
    except (KeyError, TypeError) as exc:
        raise InvalidPointError(f"malformed vector {d!r:.40}") from exc


def body_to_json(body: ConvexBody) -> dict:
    elements = []
    for el in body.elements:
        if isinstance(el, Segment):
            elements.append({"type": "segment", "a": vec_to_json(el.a), "b": vec_to_json(el.b)})
        else:
            elements.append(
                {
                    "type": "arc",
                    "center": vec_to_json(el.center),
                    "radius": scalar_to_json(el.radius),
                    "from": vec_to_json(el.from_dir),
                    "to": vec_to_json(el.to_dir),
                }
            )
    return {"mode": body.mode, "elements": elements}


def body_from_json(doc) -> ConvexBody:
    """A missing field or a value of the wrong type is OUT_OF_RANGE."""
    seen: dict[tuple, Vec] = {}

    def vec_once(d) -> Vec:
        # True == 1 and hash(True) == hash(1): the types keep a boolean from reusing a number
        try:
            key = (type(d["x"]), d["x"], type(d["y"]), d["y"])
            v = seen.get(key)
        except (KeyError, TypeError):  # not a vector, or an unhashable coordinate: read it to raise
            return vec_from_json(d)
        if v is None:
            v = seen[key] = vec_from_json(d)
        return v

    try:
        mode = doc["mode"]
        if mode not in (EXACT_POLYGON, MIXED_INEXACT):
            raise OutOfRangeError(f"unknown body mode {mode!r:.40}; expected {EXACT_POLYGON!r} or {MIXED_INEXACT!r}")
        elements = []
        for entry in doc["elements"]:
            if entry["type"] == "segment":
                elements.append(Segment(vec_once(entry["a"]), vec_once(entry["b"])))
            elif entry["type"] == "arc":
                elements.append(
                    Arc(
                        vec_once(entry["center"]),
                        _scalar(entry["radius"], "arc radius"),
                        vec_once(entry["from"]),
                        vec_once(entry["to"]),
                    )
                )
            else:
                raise OutOfRangeError(f"unknown element type {entry['type']!r:.40}")
    except (KeyError, TypeError, InvalidPointError) as exc:
        raise OutOfRangeError(f"malformed body document ({type(exc).__name__}: {exc})") from None
    return ConvexBody(tuple(elements), mode)


def points_to_json(pts) -> list:
    return [{"element": bp.element_index, "param": scalar_to_json(bp.param)} for bp in pts]


def points_from_json(doc, body: ConvexBody) -> list[BoundaryPoint]:
    if not isinstance(doc, list):
        raise InvalidPointError(f"points document must be a list of point entries, got {doc!r:.40}")
    out = []
    for entry in doc:
        if isinstance(entry, dict) and "coords" in entry:
            out.append(locate(body, vec_from_json(entry["coords"])))
            continue
        try:
            raw = entry["element"]
            element, param = int(raw), _scalar(entry["param"], "param")
            if isinstance(raw, bool) or (isinstance(raw, float) and element != raw):
                raise ValueError(raw)
        except (KeyError, TypeError, ValueError, OverflowError):
            raise InvalidPointError(
                f"point entry needs an integer 'element' and a 'param', or 'coords': {entry!r:.40}"
            ) from None
        out.append(boundary_point(body, element, param))
    return out


def _witness_to_json(w: Witness | None):
    if w is None:
        return None
    if w.kind == "rotation_center":
        return {"kind": w.kind, "point": vec_to_json(w.point), "sense": w.sense}
    return {
        "kind": w.kind,
        "direction": vec_to_json(w.direction),
        "translation": vec_to_json(w.translation),
    }


def witness_from_json(d) -> Witness | None:
    """A missing field, a value of the wrong type, a ``kind`` other than
    ``rotation_center`` and ``direction`` and a ``sense`` other than CW and
    CCW are OUT_OF_RANGE."""
    if d is None:
        return None
    try:
        kind = d["kind"]
        if kind == "rotation_center":
            point, sense = vec_from_json(d["point"]), d["sense"]
            if sense not in (CW, CCW):
                raise OutOfRangeError(f"witness sense must be {CW!r} or {CCW!r}, got {sense!r:.40}")
            return Witness(kind="rotation_center", point=point, sense=sense)
        if kind != "direction":
            raise OutOfRangeError(f"witness kind must be 'rotation_center' or 'direction', got {kind!r:.40}")
        return Witness(
            kind="direction",
            direction=vec_from_json(d["direction"]),
            translation=vec_from_json(d["translation"]),
        )
    except (KeyError, TypeError, InvalidPointError) as exc:
        raise OutOfRangeError(f"malformed witness ({type(exc).__name__}: {exc})") from None


def verdict_marks_from_json(doc) -> tuple[str | None, Witness | None, dict]:
    """The question, the witness and the test name -> status map of a verdict
    document; the question is None when the document has none.

    A document that is not an object, a question other than FIX or
    ALMOST_FIX, or a malformed witness or ``tests`` entry is OUT_OF_RANGE.
    """
    if not isinstance(doc, dict):
        raise OutOfRangeError(f"verdict document must be an object, got {type(doc).__name__}")
    question = doc.get("question")
    if "question" in doc and question not in (QUESTION_FIX, QUESTION_ALMOST):
        raise OutOfRangeError(f"verdict question must be {QUESTION_FIX!r} or {QUESTION_ALMOST!r}, got {question!r:.40}")
    try:
        statuses = {name: entry.get("status") for name, entry in doc.get("tests", {}).items()}
    except AttributeError:
        raise OutOfRangeError("verdict 'tests' must map each test name to an object") from None
    return question, witness_from_json(doc.get("witness")), statuses


def verdict_to_json(verdict: Verdict, tol: Fraction | None = None, durations: dict | None = None) -> dict:
    tests = {}
    for t in verdict.tests:
        entry = {"status": t.status}
        entry["witness"] = vec_to_json(t.witness) if t.witness is not None else None
        entry["near_degenerate"] = t.near_degenerate
        tests[t.name] = entry
    metadata = {
        "mode": verdict.mode,
        "tolerances": {"tol": scalar_to_json(tol) if tol is not None else None},
        "near_degenerate": verdict.near_degenerate,
    }
    if durations is not None:
        metadata["durations"] = durations
    return {
        "question": verdict.question,
        "status": verdict.status,
        "tests": tests,
        "witness": _witness_to_json(verdict.witness),
        "metadata": metadata,
    }


def placement_to_json(placement: PlacementDescriptor) -> dict:
    return {
        "delta": scalar_to_json(placement.delta),
        "entries": [
            {
                "anchor": {"element": e.anchor.element_index, "param": scalar_to_json(e.anchor.param)},
                "tag": e.tag,
                "pair": points_to_json([e.minus, e.plus]),
            }
            for e in placement.entries
        ],
    }


def escape_report_to_json(report: EscapeReport | None) -> dict:
    if report is None:
        return {"escape": None}
    body = {
        "family": report.family,
        "magnitudes": [scalar_to_json(m) for m in report.magnitudes],
        "penetration_free": list(report.penetration_free),
    }
    if report.family == "rotation":
        body["center"] = vec_to_json(report.center)
        body["sense"] = report.sense
    else:
        body["direction"] = vec_to_json(report.direction)
    return {"escape": body}


def dumps(doc) -> str:
    """Canonical rendering: two-space indent, fixed key order, trailing newline."""
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def loads(text: str):
    """Parsed JSON; text that is not JSON, an integer literal past the
    int-string digit limit, or arrays and objects nested past the interpreter's
    recursion limit, is OUT_OF_RANGE."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise OutOfRangeError(f"malformed JSON ({exc})") from None
