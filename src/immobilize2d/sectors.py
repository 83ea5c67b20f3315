"""First-order sectors at a boundary contact.

At a contact point with one-sided tangents ``u_left`` and ``u_right`` (body
on the left of travel), the inward normal line of each tangent ``u`` bounds
two half-planes: its left side ``-u . p >= -u . apex`` and its right side
``u . p >= u . apex``.  They make four sector families:

* ``L``       union of the open left half-planes of both normals
              (rotation centers whose small clockwise turns are not blocked
              at first order),
* ``R``       the same with right half-planes (counterclockwise turns),
* ``small_l`` intersection of the left half-planes (centers that survive the
              contact even when the point is perturbed to either side),
* ``small_r`` intersection of the right half-planes.

A contact is its distinct closed right-side rows, built once as
``ContactRows``: two at a corner, one at a smooth contact, where both
tangents bound the same half-plane.  ``rows_from_tangents`` makes them: it
puts the apex over one denominator, hands each int tangent to
``geom.row_through``, the one builder of a row through a point, and decides
on the same ints whether the tangents point the same way.  ``classify`` and
``render`` feed it the body's own int tangents (``body.tangent_ints``);
``contact_rows`` reduces a ``TangentData``'s two ``Vec`` tangents to ints
and calls it.  Every sector of the contact is read off them by one rule:
flip the signs (left kinds) and ``strict`` (open sectors), both of which
keep a row coprime, then take a small sector as one alternative holding
every row and a large one as one alternative per row.  A sector is the
union of its alternatives, so at a smooth contact ``L`` and ``small_l`` are
one sector, as are ``R`` and ``small_r``.  Membership and the exact
sector-system solver both read these rows.

A direction set is the circle trace of a closed sector: the one closed arc
(``CircArc``) of directions d such that apex + d stays in the sector.  It
stands in for rotation centers at infinity, i.e. translations.
``sector_directions`` reads it off the sector's rows, each end a row's
normal turned a quarter turn and reduced to a primitive integer ray.

Whether closed arcs share a direction is decided without building their
intersection: each arc of an intersection of closed arcs starts where some
input arc starts, so ``first_common_direction`` scans the input starts once
and keeps the earliest, counterclockwise from the first one, that every arc
contains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .body import TangentData, _snap_sign
from .errors import NearDegenerateError, OutOfRangeError
from .geom import (
    LinearConstraint,
    Vec,
    cross,
    dot,
    over_one_denominator,
    read_scalar,
    rotation_unit,
    row_through,
    same_ray,
)

SECTOR_KINDS = ("L", "R", "small_l", "small_r")


@dataclass(frozen=True)
class Sector:
    """The union of ``alternatives``, each the intersection of its rows."""

    apex: Vec
    closed: bool
    alternatives: tuple[tuple[LinearConstraint, ...], ...]


@dataclass(frozen=True)
class ContactRows:
    """A contact's first-order data: the distinct closed right-side rows
    ``u . p >= u . apex`` of its tangents, ``u_left`` first; one row at a
    smooth contact.  Every sector is read off these."""

    apex: Vec
    rows: tuple[LinearConstraint, ...]


def rows_from_tangents(apex: Vec, left: tuple[int, int], right: tuple[int, int]) -> ContactRows:
    """The contact's rows from int tangents, positive multiples of ``u_left``
    and ``u_right``: the left row, and the right row unless both tangents
    point the same way, when it is the same row.  A zero tangent raises
    ``ValueError``."""
    (x, y), w = over_one_denominator(apex.x, apex.y)
    (lx, ly), (rx, ry) = left, right
    row = row_through(lx, ly, x, y, w, False)
    # both rows are coprime and pass through apex: equal exactly when the tangents point the same way
    if lx * ry == ly * rx and lx * rx + ly * ry > 0:
        return ContactRows(apex, (row,))
    return ContactRows(apex, (row, row_through(rx, ry, x, y, w, False)))


def contact_rows(apex: Vec, t: TangentData) -> ContactRows:
    """``rows_from_tangents`` on the two tangents put over one denominator."""
    (lx, ly, rx, ry), _ = over_one_denominator(t.u_left.x, t.u_left.y, t.u_right.x, t.u_right.y)
    return rows_from_tangents(apex, (lx, ly), (rx, ry))


def sector_of(rows: ContactRows, kind: str, closed: bool) -> Sector:
    """The sector of ``kind``: left kinds negate the rows, open ones make them
    strict (both flips keep a row coprime); a small sector is one alternative
    holding every row, a large one an alternative per row."""
    if kind not in SECTOR_KINDS:
        raise ValueError(f"unknown sector kind {kind!r}")
    k = -1 if kind in ("L", "small_l") else 1
    flipped = tuple(LinearConstraint(k * lc.nx, k * lc.ny, k * lc.c, not closed) for lc in rows.rows)
    return Sector(rows.apex, closed, (flipped,) if kind.startswith("small") else tuple((lc,) for lc in flipped))


def make_sector(kind: str, closed: bool, apex: Vec, t: TangentData) -> Sector:
    return sector_of(contact_rows(apex, t), kind, closed)


def sector_contains(s: Sector, p: Vec, tol: Fraction = Fraction(0)) -> str:
    """"IN", "ON_BOUNDARY" (closed sectors only) or "OUT".

    A ``Vec`` holds exact coordinates, so a float is decided at its exact
    value.  Raises NearDegenerateError when tol > 0 and
    a deciding margin is within ``tol (|nx| + |ny|) norm1(p - apex)`` of zero
    without being exactly zero; a tol that is no finite number or is negative
    raises OutOfRangeError.
    """
    tol = read_scalar(tol, "tolerance")
    if tol.numerator < 0:
        raise OutOfRangeError(f"tolerance {tol} is negative")
    px, py = p.x, p.y
    reach = tol * (abs(px - s.apex.x) + abs(py - s.apex.y))
    degenerate = False
    agg = -1
    for rows in s.alternatives:
        lowest = 1
        for lc in rows:
            sign, flagged = _snap_sign(lc.nx * px + lc.ny * py - lc.c, reach * (abs(lc.nx) + abs(lc.ny)))
            degenerate = degenerate or flagged
            lowest = min(lowest, sign)
        agg = max(agg, lowest)
    if degenerate:
        guess = "IN" if agg > 0 else ("ON_BOUNDARY" if s.closed and agg == 0 else "OUT")
        raise NearDegenerateError("sector margin below tolerance", guess=guess)
    if agg > 0:
        return "IN"
    if agg == 0 and s.closed:
        return "ON_BOUNDARY"
    return "OUT"


# -- direction sets ----------------------------------------------------------


@dataclass(frozen=True)
class CircArc:
    """Closed CCW arc of directions from ``start`` to ``end`` (non-normalized rays;
    ``sector_directions`` gives primitive integer ones, twins positive integer multiples of turned ones).

    The pair of rays determines the arc: the sweep is the CCW angle from
    start to end in (0, 2*pi); equal rays denote a single direction.
    """

    start: Vec
    end: Vec

    def is_point(self) -> bool:
        return same_ray(self.start, self.end)


def arc_contains(arc: CircArc, d: Vec) -> bool:
    """Exact membership of direction d in the closed CCW arc."""
    s, e = arc.start, arc.end
    c_se = cross(s, e)
    if c_se == 0:
        if dot(s, e) > 0:  # point arc
            return same_ray(s, d)
        return cross(s, d) > 0 or same_ray(d, s) or same_ray(d, e)  # half turn
    if c_se > 0:  # sweep < pi: the closed convex cone spanned by s and e
        return cross(s, d) >= 0 and cross(d, e) >= 0
    return cross(s, d) >= 0 or cross(d, e) >= 0  # sweep > pi


direction_set_contains = arc_contains  # the name the benchmark's membership probe calls


def sector_directions(s: Sector) -> CircArc:
    """Directions d with apex + d in the closed sector ``s``, as primitive integer rays.

    A row ``n . p >= c`` keeps the directions from ``rot90_cw(n)`` to
    ``rot90_ccw(n)``.  A union (a large sector at a corner) runs from its first
    row's start to its last row's end, an intersection (a small sector) from
    its last row's start to its first row's end; a smooth contact's one
    row is both.  ``L`` gives a sweep of pi + turn angle, ``small_l`` one of
    pi - turn angle; the right-side kinds give their antipodes.
    """
    rows = [lc for alt in s.alternatives for lc in alt]
    start, end = (rows[0], rows[-1]) if len(s.alternatives) > 1 else (rows[-1], rows[0])
    g, h = gcd(start.nx, start.ny), gcd(end.nx, end.ny)  # a coprime row's normal need not be primitive
    return CircArc(Vec(start.ny // g, -start.nx // g), Vec(-end.ny // h, end.nx // h))


def direction_set(kind: str, apex: Vec, t: TangentData) -> CircArc:
    """The directions of the closed sector of ``kind`` at a contact."""
    return sector_directions(make_sector(kind, True, apex, t))


# -- common directions -------------------------------------------------------


def _anch_class(u: Vec, d: Vec) -> int:
    c = cross(u, d)
    if c == 0:
        return 0 if dot(u, d) > 0 else 2
    return 1 if c > 0 else 3


def _pos_lt(u: Vec, a: Vec, b: Vec) -> bool:
    """a strictly earlier than b in CCW order anchored at u."""
    ca, cb = _anch_class(u, a), _anch_class(u, b)
    if ca != cb:
        return ca < cb
    if ca in (0, 2):
        return False
    return cross(a, b) > 0


def first_common_direction(arcs: list[CircArc | None]) -> Vec | None:
    """The earliest direction in every arc, CCW from the first arc's start.

    Each arc of an intersection of closed arcs starts where some input arc
    starts, so the earliest common direction is the earliest input start, in
    CCW order from the first arc's start, that every arc contains; a start is
    tested only when it comes before the best so far.  ``(1, 0)`` when there
    are no arcs; None when no direction is common or an arc is None (shrunk
    away by a tolerance twin).
    """
    if not arcs:
        return Vec(Fraction(1), Fraction(0))
    if any(a is None for a in arcs):
        return None
    u, best = arcs[0].start, None
    for d in (a.start for a in arcs):
        if (best is None or _pos_lt(u, d, best)) and all(arc_contains(b, d) for b in arcs):
            best = d
    return best


def _rotate_dir(d: Vec, t: Fraction, ccw: bool) -> Vec:
    c, s, _ = rotation_unit(t, "CCW" if ccw else "CW")
    (x, y), _ = over_one_denominator(d.x, d.y)
    return Vec(c * x - s * y, s * x + c * y)


def shrink_arc(arc: CircArc, t: Fraction) -> CircArc | None:
    """Pull both endpoints inward by the half-angle parameter t; None if emptied."""
    if arc.is_point():
        return None
    s2 = _rotate_dir(_rotate_dir(arc.start, t, ccw=True), t, ccw=True)
    # emptied when the sweep is at most twice the shrink angle
    if arc_contains(CircArc(arc.start, s2), arc.end):
        return None
    return CircArc(_rotate_dir(arc.start, t, ccw=True), _rotate_dir(arc.end, t, ccw=False))


def grow_arc(arc: CircArc, t: Fraction) -> CircArc:
    """Push both endpoints outward by the half-angle parameter t (capped below full)."""
    s2 = _rotate_dir(_rotate_dir(arc.start, t, ccw=False), t, ccw=False)
    if arc_contains(arc, s2):
        return arc  # would exceed the full circle; leave as is
    return CircArc(_rotate_dir(arc.start, t, ccw=False), _rotate_dir(arc.end, t, ccw=True))
