"""Convex bodies bounded by a counterclockwise chain of segments and circular arcs.

Conventions
-----------
* The boundary is a closed CCW chain; the body lies to the left of the
  direction of travel.
* An arc element stores its circle (center, radius) plus the exact offset
  vectors ``from_dir`` / ``to_dir`` from the center to its start and end
  point, so the chain closes exactly even when the radius itself is only
  approximate.  Arcs always run counterclockwise and sweep strictly less
  than a half turn.
* ``mode`` is "exact_polygon" (segments only, every predicate is a
  certificate) or "mixed_inexact" (arcs allowed, coordinates snapped from
  floats; predicates with margin below the tolerance are reported as near
  degenerate instead of being trusted).
* A boundary point is addressed as (element index, param in [0, 1)); a
  vertex is canonically addressed on its departing element at param 0.
* Containment reads each segment off its integer row ``Segment.row``: the
  segment's left half-plane as the coprime ints ``geom.halfplane_constraint``
  gives, read as ``(A, B, C, S)`` with ``A x + B y + C = k cross(b - a, p -
  a)`` for some ``k > 0`` and ``S = |A| + |B|``, built on first use.
  A body keeps one table of these, ``ConvexBody.rows``, built on its first
  containment query: per segment the row with the body tolerance ``tol =
  tn / td`` applied, ``(A td, B td, C td, tn S)`` (``(A, B, C, 0)`` at ``tol =
  0``), per arc the element itself.  ``contains_over`` takes a query point
  over one denominator, ``(x, y, w)`` in ints, so each segment sign is a few
  integer products against a pre-scaled bound; arcs keep their ``Fraction``
  margin.
* ``validate`` reads each element's tangents as ints over that element's own
  denominator (``_turn_directions``), never over one denominator shared
  across the chain, whose numerators would grow with every element's
  denominator; turns and the winding are signs of integer products.  Rows
  stay lazy: ``validate`` builds no table.
* ``ConvexBody.arclength`` is (start offsets, lengths, perimeter) by
  ``element_length``, built on first use by ``offset_along_boundary`` or
  ``perimeter``, not by ``polygon``, ``validate`` or loading.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import (
    BodyValidationError,
    NearDegenerateError,
    NotOnBoundaryError,
    in_float_range,
)
from .geom import (
    Vec,
    cross,
    dot,
    halfplane_constraint,
    norm1,
    over_one_denominator,
    read_scalar,
    rot90_ccw,
    to_scalar,
)

EXACT_POLYGON = "exact_polygon"
MIXED_INEXACT = "mixed_inexact"

DEFAULT_TOLERANCE = Fraction(1, 10**9)
EXACT_TOLERANCE = Fraction(0)

PARAM_SNAP_DEN = 2**40  # denominator cap when a param is recovered from floats


@dataclass(frozen=True)
class Segment:
    a: Vec
    b: Vec

    def start(self) -> Vec:
        return self.a

    def end(self) -> Vec:
        return self.b

    def direction(self) -> Vec:
        return self.b - self.a

    def start_tangent(self) -> Vec:
        return self.direction()

    def end_tangent(self) -> Vec:
        return self.direction()

    @functools.cached_property
    def row(self) -> tuple[int, int, int, int]:
        """Coprime integers (A, B, C, S) of the segment's closed left
        half-plane row ``halfplane_constraint`` builds: ``A x + B y + C`` is
        a positive multiple of ``cross(b - a, p - a)`` at p = (x, y), ``S =
        |A| + |B|`` the same multiple of ``norm1(b - a)``."""
        lc = halfplane_constraint(self.a, rot90_ccw(self.b - self.a), True)
        return lc.nx, lc.ny, -lc.c, abs(lc.nx) + abs(lc.ny)


@dataclass(frozen=True)
class Arc:
    """CCW circular arc; from_dir/to_dir are exact center-to-endpoint offsets."""

    center: Vec
    radius: Fraction
    from_dir: Vec
    to_dir: Vec

    def start(self) -> Vec:
        return self.center + self.from_dir

    def end(self) -> Vec:
        return self.center + self.to_dir

    def start_tangent(self) -> Vec:
        return rot90_ccw(self.from_dir)

    def end_tangent(self) -> Vec:
        return rot90_ccw(self.to_dir)


BoundaryElement = Union[Segment, Arc]


@dataclass(frozen=True)
class ConvexBody:
    elements: tuple[BoundaryElement, ...]
    mode: str = EXACT_POLYGON

    def tolerance(self) -> Fraction:
        return EXACT_TOLERANCE if self.mode == EXACT_POLYGON else DEFAULT_TOLERANCE

    @functools.cached_property
    def rows(self) -> tuple[tuple[int, int, int, int] | Arc, ...]:
        """One containment entry per element, built on first use: a segment's
        ``Segment.row`` ``(A, B, C, S)`` with the tolerance ``tn / td`` applied,
        ``(A td, B td, C td, tn S)``, and an arc as it is.  Not a field, so
        equality and hashing ignore it."""
        tol = self.tolerance()
        tn, td = tol.numerator, tol.denominator
        table = []
        for el in self.elements:
            if isinstance(el, Segment):
                a, b, c, s = el.row
                table.append((a * td, b * td, c * td, tn * s))
            else:
                table.append(el)
        return tuple(table)

    @functools.cached_property
    def arclength(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], Fraction]:
        """(start offsets, lengths, perimeter) of the elements by
        ``element_length``, built on first use by ``offset_along_boundary`` or
        ``perimeter``.  Not a field, so equality and hashing ignore it."""
        lengths = tuple(element_length(el)[0] for el in self.elements)
        starts, acc = [], Fraction(0)
        for ln in lengths:
            starts.append(acc)
            acc += ln
        return tuple(starts), lengths, acc

    def vertex(self, i: int) -> Vec:
        return self.elements[i % len(self.elements)].start()

    def vertices(self) -> list[Vec]:
        return [el.start() for el in self.elements]

    def bounding_box(self) -> tuple[Vec, Vec]:
        xs: list[Fraction] = []
        ys: list[Fraction] = []
        for el in self.elements:
            for p in (el.start(), el.end()):
                xs.append(p.x)
                ys.append(p.y)
            if isinstance(el, Arc):
                xs.extend([el.center.x - el.radius, el.center.x + el.radius])
                ys.extend([el.center.y - el.radius, el.center.y + el.radius])
        return Vec(min(xs), min(ys)), Vec(max(xs), max(ys))


@dataclass(frozen=True)
class BoundaryPoint:
    element_index: int
    param: Fraction
    coords: Vec


@dataclass(frozen=True)
class TangentData:
    """Boundary directions at a point: u_left arrives, u_right departs (CCW travel)."""

    u_left: Vec
    u_right: Vec


class Containment(enum.Enum):
    INTERIOR = "INTERIOR"
    BOUNDARY = "BOUNDARY"
    EXTERIOR = "EXTERIOR"


def polygon(points: list[tuple] | list[Vec], mode: str = EXACT_POLYGON) -> ConvexBody:
    """Build a body from a CCW list of vertices (validated separately)."""
    pts = [p if isinstance(p, Vec) else Vec(to_scalar(p[0]), to_scalar(p[1])) for p in points]
    els = tuple(Segment(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts)))
    return ConvexBody(els, mode)


def _snap_sign(value: Fraction, tol_scaled: Fraction) -> tuple[int, bool]:
    """Sign with |value| <= tol treated as zero; flag set when that snapping bites."""
    if value > tol_scaled:
        return 1, False
    if value < -tol_scaled:
        return -1, False
    return 0, value != 0


# -- validation --------------------------------------------------------------


def _turn_directions(body: ConvexBody) -> list[tuple[int, int]]:
    """Each element's start and end tangent as an int pair, a positive multiple
    of ``start_tangent()`` / ``end_tangent()`` read off that element's own
    coordinates: a segment puts its endpoints over one denominator and gives
    ``(bx - ax, by - ay)`` for both, an arc turns ``from_dir`` and ``to_dir``,
    each over its own denominator, a quarter."""
    dirs: list[tuple[int, int]] = []
    for el in body.elements:
        if isinstance(el, Segment):
            (ax, ay, bx, by), _ = over_one_denominator(el.a.x, el.a.y, el.b.x, el.b.y)
            d = (bx - ax, by - ay)
            dirs += (d, d)
        else:
            (fx, fy), _ = over_one_denominator(el.from_dir.x, el.from_dir.y)
            (tx, ty), _ = over_one_denominator(el.to_dir.x, el.to_dir.y)
            dirs += ((-fy, fx), (-ty, tx))
    return dirs


def _winding(dirs: list[tuple[int, int]]) -> int:
    """How many full turns the closed direction sequence makes, counted exactly.

    Every step turns by less than a half turn, left when ``cross`` is
    positive.  A left step passes the ray (1, 0) when the ray lies in its
    half-open angle (u, v]: ``cross(u, ray) = -u.y > 0`` and v on the ray
    (``dot(ray, v) = v.x > 0``) or left of it (``cross(ray, v) = v.y > 0``).
    A right step, a clockwise junction that mixed mode snapped to straight,
    counts -1 when it passes the ray backwards.  Every test is a sign, so any
    positive multiple of the directions counts the same.
    """

    def passes(u: tuple[int, int], v: tuple[int, int]) -> bool:
        return u[1] < 0 and (v[1] > 0 or (v[1] == 0 and v[0] > 0))

    return sum(
        passes(u, v) if u[0] * v[1] - u[1] * v[0] >= 0 else -passes(v, u) for u, v in zip(dirs, dirs[1:] + dirs[:1])
    )


@in_float_range
def validate(body: ConvexBody) -> None:
    """Raise BodyValidationError (NOT_CLOSED, NOT_CONVEX, NOT_CCW, EMPTY_INTERIOR) if invalid.

    Turns are decided on the int tangents of ``_turn_directions``: a junction
    from u to v snaps to straight when ``|cross(u, v)| <= tol norm1(u)
    norm1(v)``, read as ``td |cross| <= tn norm1 norm1`` for ``tol = tn / td``,
    which no positive rescaling of u or v changes.
    """
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
    dirs = _turn_directions(body)
    tn, td = tol.numerator, tol.denominator
    neg = pos = 0
    first_bad = -1
    for i in range(len(els)):
        (ux, uy), (vx, vy) = dirs[2 * i + 1], dirs[(2 * i + 2) % len(dirs)]
        c = ux * vy - uy * vx
        m, bound = td * c, tn * (abs(ux) + abs(uy)) * (abs(vx) + abs(vy))
        if m < -bound:
            neg += 1
            if first_bad < 0:
                first_bad = i
            continue
        if m > bound:
            pos += 1
        if c == 0 and ux * vx + uy * vy < 0:
            raise BodyValidationError("NOT_CONVEX", i, "boundary reverses direction")
    if neg and not pos:
        raise BodyValidationError("NOT_CCW", first_bad, "chain is oriented clockwise")
    if neg:
        raise BodyValidationError("NOT_CONVEX", first_bad, "right turn in boundary chain")

    # An exact chain with no right turn and no reversal that winds once is a
    # convex polygon, whose area is positive; any other chain has its area
    # summed, and a chain winding twice can enclose a negative one.
    winding = _winding(dirs)
    if body.mode != EXACT_POLYGON or winding != 1:
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

    if winding != 1:
        raise BodyValidationError("NOT_CONVEX", 0, "boundary does not wind exactly once")


# -- boundary points ---------------------------------------------------------


def _arc_sweep(el: Arc) -> float:
    """CCW sweep angle of the arc, in (0, pi), from float trig."""
    a0 = math.atan2(float(el.from_dir.y), float(el.from_dir.x))
    a1 = math.atan2(float(el.to_dir.y), float(el.to_dir.x))
    sweep = a1 - a0
    while sweep <= 0:
        sweep += 2 * math.pi
    return sweep


def element_point(el: BoundaryElement, param: Fraction) -> Vec:
    """Coordinates of the boundary point at ``param`` in [0, 1] on the element."""
    if isinstance(el, Segment):
        return el.a + el.direction().scaled(param)
    if param == 0:
        return el.start()
    if param == 1:
        return el.end()
    a0 = math.atan2(float(el.from_dir.y), float(el.from_dir.x))
    ang = a0 + float(param) * _arc_sweep(el)
    r = float(el.radius)
    return el.center + Vec(Fraction(r * math.cos(ang)), Fraction(r * math.sin(ang)))


def boundary_point(body: ConvexBody, element_index: int, param) -> BoundaryPoint:
    """Construct the canonical BoundaryPoint at (element, param)."""
    n = len(body.elements)
    if not 0 <= element_index < n:
        raise NotOnBoundaryError(f"element index {element_index} out of range")
    param = read_scalar(param, "param")
    if param == 1:
        element_index = (element_index + 1) % n
        param = Fraction(0)
    if not 0 <= param < 1:
        raise NotOnBoundaryError(f"param {param} outside [0, 1)")
    coords = element_point(body.elements[element_index], param)
    return BoundaryPoint(element_index, param, coords)


def tangents_at(body: ConvexBody, bp: BoundaryPoint) -> TangentData:
    el = body.elements[bp.element_index]
    if bp.param == 0:
        prev = body.elements[(bp.element_index - 1) % len(body.elements)]
        return TangentData(u_left=prev.end_tangent(), u_right=el.start_tangent())
    if isinstance(el, Segment):
        d = el.direction()
        return TangentData(d, d)
    t = rot90_ccw(bp.coords - el.center)
    return TangentData(t, t)


# -- containment -------------------------------------------------------------


def _arc_margin(el: Arc, p: Vec) -> tuple[Fraction, Fraction]:
    """(margin, scale): margin > 0 strictly inside the arc's supporting region.

    The region is the union of the closed disc and the closed left
    half-plane of the chord; with the segments' left half-planes, these
    regions intersect in the body.  ``scale`` makes margin/scale roughly a
    distance.
    """
    off = p - el.center
    disc_m = el.radius * el.radius - dot(off, off)
    disc_scale = 2 * el.radius
    chord = el.end() - el.start()
    chord_m = cross(chord, p - el.start())
    chord_scale = norm1(chord)
    # the union is satisfied by the better of the two normalized margins
    if disc_m * chord_scale >= chord_m * disc_scale:
        return disc_m, disc_scale
    return chord_m, chord_scale


def contains_over(body: ConvexBody, x: int, y: int, w: int) -> Containment:
    """INTERIOR / BOUNDARY / EXTERIOR classification of the point (x / w, y / w), w > 0.

    Margins are compared against the body's own tolerance.  In mixed mode
    (tolerance > 0) a nonzero margin within it of zero raises
    NearDegenerateError carrying the snapped best guess; exact bodies
    decide every sign exactly.

    Segments are decided in integers off the body's table ``ConvexBody.rows``.
    A segment's margin ``cross(b - a, p - a)`` is ``(A x + B y + C w) / (k w)``
    for its row ``(A, B, C, S)``, and ``|margin| <= tol * norm1(b - a)`` with
    ``tol = tn / td`` reads ``|M| <= K w`` for the entry ``(A td, B td, C td,
    K = tn S)`` and ``M = A td x + B td y + C td w``, so one comparison serves
    both modes.  An arc reads its ``Fraction`` margin at p, built on the first
    arc met.
    """
    p = None
    on_boundary = degenerate = False
    for row in body.rows:
        if row.__class__ is tuple:  # a segment's pre-scaled row; an arc's entry is the Arc
            a, b, c, k = row
            m, bound = a * x + b * y + c * w, k * w
        else:
            if p is None:
                p = Vec(Fraction(x, w), Fraction(y, w))
            m, scale = _arc_margin(row, p)
            bound = body.tolerance() * scale
        # |m| <= bound snaps to zero, and a nonzero margin that snaps is flagged
        if m > bound:
            continue
        if m < -bound:
            # certainly outside this element's region, hence outside the body
            return Containment.EXTERIOR
        if m:
            degenerate = True
        else:
            on_boundary = True
    status = Containment.BOUNDARY if on_boundary else Containment.INTERIOR
    if degenerate:
        raise NearDegenerateError("containment margin below tolerance", guess=status)
    return status


def contains_interior(body: ConvexBody, p: Vec) -> Containment:
    """``contains_over`` at p, put over one denominator."""
    (x, y), w = over_one_denominator(p.x, p.y)
    return contains_over(body, x, y, w)


# -- locate ------------------------------------------------------------------


def _locate_on_segment(el: Segment, p: Vec, tol: Fraction) -> Fraction | None:
    d = el.direction()
    if abs(cross(d, p - el.a)) > tol * norm1(d):
        return None
    t = dot(p - el.a, d) / dot(d, d)
    if 0 <= t <= 1:
        return t
    return None


def _locate_on_arc(el: Arc, p: Vec, tol: Fraction) -> Fraction | None:
    off = p - el.center
    if off.is_zero():
        return None
    if abs(dot(off, off) - el.radius * el.radius) > tol * 4 * el.radius * el.radius + tol:
        return None
    slack = tol * norm1(el.from_dir) * norm1(off)
    if cross(el.from_dir, off) < -slack or cross(off, el.to_dir) < -slack:
        return None
    a0 = math.atan2(float(el.from_dir.y), float(el.from_dir.x))
    ang = math.atan2(float(off.y), float(off.x))
    sweep = _arc_sweep(el)
    frac = (ang - a0) / sweep
    if frac < -0.5:
        # atan2 wrapped; genuine on-arc points sit in [0, 1] up to noise
        frac += 2 * math.pi / sweep
    frac = min(max(frac, 0.0), 1.0)
    return Fraction(round(frac * PARAM_SNAP_DEN), PARAM_SNAP_DEN)


def locate(body: ConvexBody, p: Vec) -> BoundaryPoint:
    """Find the canonical boundary address of a point lying on the boundary.

    The queried coordinates are kept verbatim (they are on the element within
    ``body.tolerance()``); a junction hit resolves to the departing element
    at param 0.
    """
    hits: list[tuple[int, Fraction]] = []
    for i, el in enumerate(body.elements):
        t = (_locate_on_segment if isinstance(el, Segment) else _locate_on_arc)(el, p, body.tolerance())
        if t is None:
            continue
        if t == 1 or (body.mode != EXACT_POLYGON and p == el.end()):
            hits.append(((i + 1) % len(body.elements), Fraction(0)))
        else:
            hits.append((i, t))
    if not hits:
        raise NotOnBoundaryError("point is not on the boundary")
    for i, t in hits:
        if t == 0 and p == body.elements[i].start():
            return BoundaryPoint(i, Fraction(0), p)
    i, t = hits[0]
    return BoundaryPoint(i, t, p)


# -- arclength ---------------------------------------------------------------


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@in_float_range
def element_length(el: BoundaryElement) -> tuple[Fraction, bool]:
    """(length, exact) with an exact rational length whenever one exists.

    Irrational lengths are snapped to a fixed rational once per element so
    that offset arithmetic stays exact and reversible; the snapped measure is
    within 1e-12 relative of the true arclength.
    """
    if isinstance(el, Segment):
        d = el.direction()
        exact = _rational_sqrt(dot(d, d))
        if exact is not None:
            return exact, True
        return Fraction(math.sqrt(float(dot(d, d)))).limit_denominator(10**12), False
    return Fraction(float(el.radius) * _arc_sweep(el)).limit_denominator(10**12), False


def perimeter(body: ConvexBody) -> Fraction:
    return body.arclength[2]


def offset_along_boundary(body: ConvexBody, bp: BoundaryPoint, s) -> BoundaryPoint:
    """Walk a signed arclength s CCW (positive) along the boundary, wrapping."""
    s = read_scalar(s, "arclength offset")
    starts, lengths, total = body.arclength
    pos = (starts[bp.element_index] + bp.param * lengths[bp.element_index] + s) % total
    i = bisect.bisect_right(starts, pos) - 1
    return boundary_point(body, i, (pos - starts[i]) / lengths[i])


def is_full_disc(body: ConvexBody) -> tuple[bool, Vec | None]:
    """Detect a body whose boundary is one full circle (setwise rotation symmetry)."""
    arcs = [el for el in body.elements if isinstance(el, Arc)]
    if len(arcs) != len(body.elements) or not arcs:
        return False, None
    c, r = arcs[0].center, arcs[0].radius
    for el in arcs:
        if el.center != c or el.radius != r:
            return False, None
    return True, c
