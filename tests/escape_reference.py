"""The oracle's escape probes written out in ``Fraction``s.

Each moved point is built as a ``Vec`` of ``Fraction``s without the
library's motions: a rotation probe turns every boundary point about a
``Vec`` center by the unit ``containment_reference.reference_rotation``
gives (its sine negated for CW) with ``reference_rotate``, a translation
probe adds the vector's coordinates, and ``body.contains_interior`` decides
the moved point.  A point that is near degenerate in mixed mode counts as
not clear, as it does in the oracle.
"""

from __future__ import annotations

from fractions import Fraction

from containment_reference import reference_rotate, reference_rotation
from immobilize2d.body import Containment, contains_interior
from immobilize2d.errors import NearDegenerateError
from immobilize2d.geom import Vec


def _clear(body, x, y) -> bool:
    try:
        return contains_interior(body, Vec(x, y)) is not Containment.INTERIOR
    except NearDegenerateError:
        return False


def rotation_clear(body, pts, center, sense, t) -> bool:
    """No boundary point interior after rotating it about ``center`` by the half-angle t."""
    c, s = reference_rotation(Fraction(t))
    if sense == "CW":
        s = -s
    return all(_clear(body, *reference_rotate((center.x, center.y), c, s, (bp.coords.x, bp.coords.y))) for bp in pts)


def translation_clear(body, pts, vector) -> bool:
    """No boundary point interior after adding ``vector`` to it."""
    return all(_clear(body, bp.coords.x + vector.x, bp.coords.y + vector.y) for bp in pts)
