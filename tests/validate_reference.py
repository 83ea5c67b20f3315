"""The body validator and the boundary walk as they read before the integer
tangents and the per-body arclength table, kept verbatim as references.

``validate`` builds every tangent as a ``Vec`` of ``Fraction``s and snaps
each junction turn with ``_snap_sign`` against ``tol * norm1(u) * norm1(v)``;
``offset_along_boundary`` measures every element with ``element_length`` on
each call.  The race in ``test_validate_race.py`` holds the production code
to the same acceptance, the same error (code, element index, message) and
the same boundary points.
"""

from __future__ import annotations

import math
from fractions import Fraction

from immobilize2d.body import (
    EXACT_POLYGON,
    Arc,
    BoundaryPoint,
    ConvexBody,
    Segment,
    _arc_sweep,
    _snap_sign,
    boundary_point,
    element_length,
)
from immobilize2d.errors import BodyValidationError, in_float_range
from immobilize2d.geom import Vec, cross, dot, norm1, to_scalar


def _turn_directions(body: ConvexBody) -> list[Vec]:
    dirs: list[Vec] = []
    for el in body.elements:
        dirs.append(el.start_tangent())
        dirs.append(el.end_tangent())
    return dirs


def _winding(dirs: list[Vec]) -> int:
    """How many full turns the closed direction sequence makes, counted exactly.

    Every step turns by less than a half turn, left when ``cross`` is
    positive.  A left step passes the ray (1, 0) when the ray lies in its
    half-open angle (u, v]: ``cross(u, ray) = -u.y > 0`` and v on the ray
    (``dot(ray, v) = v.x > 0``) or left of it (``cross(ray, v) = v.y > 0``).
    A right step, a clockwise junction that mixed mode snapped to straight,
    counts -1 when it passes the ray backwards.
    """

    def passes(u: Vec, v: Vec) -> bool:
        return u.y < 0 and (v.y > 0 or (v.y == 0 and v.x > 0))

    return sum(passes(u, v) if cross(u, v) >= 0 else -passes(v, u) for u, v in zip(dirs, dirs[1:] + dirs[:1]))


@in_float_range
def validate(body: ConvexBody) -> None:
    """Raise BodyValidationError (NOT_CLOSED, NOT_CONVEX, NOT_CCW, EMPTY_INTERIOR) if invalid."""
    els = body.elements
    if len(els) < 2:
        raise BodyValidationError("EMPTY_INTERIOR", 0, "need at least two boundary elements")
    tol = body.tolerance()

    for i, el in enumerate(els):
        if isinstance(el, Segment):
            if el.a == el.b:
                raise BodyValidationError("EMPTY_INTERIOR", i, "zero-length segment")
        else:
            if body.mode == EXACT_POLYGON:
                raise BodyValidationError("NOT_CONVEX", i, "arc element in exact_polygon mode")
            if el.radius <= 0:
                raise BodyValidationError("EMPTY_INTERIOR", i, "non-positive arc radius")
            sweep_cross = cross(el.from_dir, el.to_dir)
            if sweep_cross <= 0:
                raise BodyValidationError("NOT_CONVEX", i, "arc must sweep CCW by less than pi")
            for off in (el.from_dir, el.to_dir):
                r2 = dot(off, off)
                if abs(r2 - el.radius * el.radius) > tol * 4 * el.radius * el.radius + tol:
                    raise BodyValidationError("NOT_CLOSED", i, "arc endpoint off its circle")

    for i, el in enumerate(els):
        nxt = els[(i + 1) % len(els)]
        if el.end() != nxt.start():
            gap = el.end() - nxt.start()
            if body.mode == EXACT_POLYGON or norm1(gap) > tol:
                raise BodyValidationError("NOT_CLOSED", i, "chain gap after element")

    # junction turns: left or straight everywhere; track signs to tell
    # a clockwise chain apart from a genuinely non-convex one
    neg = pos = 0
    first_bad = -1
    for i, el in enumerate(els):
        nxt = els[(i + 1) % len(els)]
        u, v = el.end_tangent(), nxt.start_tangent()
        sign, _ = _snap_sign(cross(u, v), tol * norm1(u) * norm1(v))
        if sign < 0:
            neg += 1
            if first_bad < 0:
                first_bad = i
        elif sign > 0:
            pos += 1
        if sign >= 0 and cross(u, v) == 0 and dot(u, v) < 0:
            raise BodyValidationError("NOT_CONVEX", i, "boundary reverses direction")
    if neg and not pos:
        raise BodyValidationError("NOT_CCW", first_bad, "chain is oriented clockwise")
    if neg:
        raise BodyValidationError("NOT_CONVEX", first_bad, "right turn in boundary chain")

    verts = [el.start() for el in els]
    twice_area = sum(cross(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts)))
    if body.mode != EXACT_POLYGON:
        # arc caps add area beyond the vertex polygon
        cap = 0.0
        for el in els:
            if isinstance(el, Arc):
                sweep = _arc_sweep(el)
                cap += float(el.radius) ** 2 * (sweep - math.sin(sweep))
        if float(twice_area) + cap <= float(tol):
            raise BodyValidationError("EMPTY_INTERIOR", 0, "boundary encloses no area")
    elif twice_area <= 0:
        raise BodyValidationError("EMPTY_INTERIOR", 0, "boundary encloses no area")

    if _winding(_turn_directions(body)) != 1:
        raise BodyValidationError("NOT_CONVEX", 0, "boundary does not wind exactly once")


def offset_along_boundary(body: ConvexBody, bp: BoundaryPoint, s) -> BoundaryPoint:
    """Walk a signed arclength s CCW (positive) along the boundary, wrapping."""
    s = to_scalar(s)
    lengths = [element_length(el)[0] for el in body.elements]
    total = sum(lengths)
    starts: list[Fraction] = []
    acc = Fraction(0)
    for ln in lengths:
        starts.append(acc)
        acc += ln
    pos = (starts[bp.element_index] + bp.param * lengths[bp.element_index] + s) % total
    for i in reversed(range(len(lengths))):
        if starts[i] <= pos:
            param = (pos - starts[i]) / lengths[i]
            return boundary_point(body, i, param)
    return boundary_point(body, 0, Fraction(0))
