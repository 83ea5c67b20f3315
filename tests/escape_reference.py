"""The oracle's escape probes written out in ``Fraction``s.

Each moved point is built as a ``Vec`` of ``Fraction``s: a rotation probe
turns every boundary point about a ``Vec`` center with ``geom.rotation_about``
and ``geom.apply_motion``, a translation probe adds a ``Vec``, and
``body.contains_interior`` decides the moved point.  A point that is near
degenerate in mixed mode counts as not clear, as it does in the oracle.
"""

from __future__ import annotations

from immobilize2d.body import Containment, contains_interior
from immobilize2d.errors import NearDegenerateError
from immobilize2d.geom import apply_motion, rotation_about


def _clear(body, p) -> bool:
    try:
        return contains_interior(body, p) is not Containment.INTERIOR
    except NearDegenerateError:
        return False


def rotation_clear(body, pts, center, sense, t) -> bool:
    """No boundary point interior after rotating it about ``center`` by the half-angle t."""
    motion = rotation_about(center, t, sense)
    return all(_clear(body, apply_motion(motion, bp.coords)) for bp in pts)


def translation_clear(body, pts, vector) -> bool:
    """No boundary point interior after adding ``vector`` to it."""
    return all(_clear(body, bp.coords + vector) for bp in pts)
