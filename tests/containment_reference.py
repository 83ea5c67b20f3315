"""Reference containment and rigid rotations, written out in ``Fraction``s.

Independent of the production integer rows: each edge's margin is the sign
of ``cross(b - a, p - a)`` computed from the endpoint coordinates, snapped
to zero when ``|cross| <= tol * norm1(b - a)``.  The rotation formulas are
the half-angle map ``((1 - t^2) / (1 + t^2), 2t / (1 + t^2))`` and the
textbook rotation about a center.
"""

from __future__ import annotations

from fractions import Fraction


def reference_containment(edges, p, tol):
    """("ok", status) or ("near", guess) for the polygon with CCW ``edges``.

    ``edges`` is a list of ((ax, ay), (bx, by)); ``p`` is (x, y).  A margin
    that snaps to zero without being zero is near degenerate; an edge whose
    margin is certainly negative puts ``p`` outside whatever else holds.
    The guess reads the edges that did not snap.
    """
    px, py = p
    signs, near = [], False
    for (ax, ay), (bx, by) in edges:
        dx, dy = bx - ax, by - ay
        m = dx * (py - ay) - dy * (px - ax)
        bound = tol * (abs(dx) + abs(dy))
        if m > bound:
            signs.append(1)
        elif m < -bound:
            return "ok", "EXTERIOR"
        elif m == 0:
            signs.append(0)
        else:
            near = True
    status = "INTERIOR" if all(s > 0 for s in signs) else "BOUNDARY"
    return ("near" if near else "ok"), status


def reference_rotation(t: Fraction) -> tuple[Fraction, Fraction]:
    d = 1 + t * t
    return (1 - t * t) / d, 2 * t / d


def reference_rotate(center, c: Fraction, s: Fraction, p):
    """The point ``p`` rotated about ``center`` by the unit (c, s), as (x, y)."""
    dx, dy = p[0] - center[0], p[1] - center[1]
    return center[0] + c * dx - s * dy, center[1] + s * dx + c * dy
