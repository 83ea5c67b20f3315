"""Reference direction-twin arcs, written out in ``Fraction``s.

Independent of the production integer rays: an end ray is turned by the
unit ``containment_reference.reference_rotation(t)`` as a ``Fraction``
vector, and an arc is grown or shrunk exactly as ``sectors.grow_arc`` and
``sectors.shrink_arc`` do, from those ``Fraction`` rays.  ``near_degenerate``
is the direction twin's flag: the twin on the exact answer's side, grown when
no direction is common and shrunk when one is, disagrees with it.
"""

from __future__ import annotations

from fractions import Fraction

from containment_reference import reference_rotation
from immobilize2d.geom import Vec
from immobilize2d.sectors import CircArc, arc_contains, first_common_direction


def rotate_dir(d: Vec, t: Fraction, ccw: bool) -> Vec:
    c, s = reference_rotation(t)
    if not ccw:
        s = -s
    return Vec(c * d.x - s * d.y, s * d.x + c * d.y)


def shrink_arc(arc: CircArc, t: Fraction) -> CircArc | None:
    if arc.is_point():
        return None
    s2 = rotate_dir(rotate_dir(arc.start, t, ccw=True), t, ccw=True)
    if arc_contains(CircArc(arc.start, s2), arc.end):
        return None
    return CircArc(rotate_dir(arc.start, t, ccw=True), rotate_dir(arc.end, t, ccw=False))


def grow_arc(arc: CircArc, t: Fraction) -> CircArc:
    s2 = rotate_dir(rotate_dir(arc.start, t, ccw=False), t, ccw=False)
    if arc_contains(arc, s2):
        return arc
    return CircArc(rotate_dir(arc.start, t, ccw=False), rotate_dir(arc.end, t, ccw=True))


def near_degenerate(arcs: list[CircArc], tol: Fraction) -> bool:
    empty = first_common_direction(arcs) is None
    twin = [grow_arc(a, tol) if empty else shrink_arc(a, tol) for a in arcs]
    return tol > 0 and (first_common_direction(twin) is None) != empty
