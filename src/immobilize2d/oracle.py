"""Brute-force cross-checks for the first-order classifiers.

Everything here reduces to one exact predicate: a rigid motion f of the
body leaves marked point a outside the open interior iff f^-1(a) is not
interior to the static body.  Escape reports and witness validators name a
candidate family by that inverse action on the points: ``sense`` is the
sense of the rotation applied to the points (the escaping body motion has
the opposite sense), and a translation witness moves the points along the
reported direction.

Every probe runs in integers.  A search or a validator puts the contact
points over one denominator once (``geom.over_one_denominator``) and hands
them to the probes as ``(x, y, w)`` ints.  The search builds its centers
``(X, Y, W)`` and translation units ``(c, s, d)`` one at a time, so an early
escape builds no further candidates.  The rotation steps' integer units
``rotation_unit(t, sense)`` are built once, at import, for every t of
``DEFAULT_ROTATION_SCHEDULE`` and both senses (``_ROTATION_UNITS``); the
search hands each probe its unit from there.  Each probe builds its motion's
integer map (``geom.rotation_map``, or ``(vw, 0, vx, vy, vw)`` for the
vector ``(vx, vy) / vw``) and runs the one loop ``_clear``, which hands each
moved point to ``body.contains_over``, so a probe builds no ``Fraction``.
``_clear`` compares the result with ``Containment.INTERIOR`` bound once as a
module global, as ``contains_over`` binds the members it returns.
A ``Vec`` reads its own coordinates when it is made, so a witness center
or direction need only be a ``Vec``.  The radius is read through
``geom.read_scalar``, so a value that is no finite number raises
``OutOfRangeError``; so does a center or direction that is no ``Vec`` and a
sample budget that is not an int.

A validator accepts a witness when the three smallest magnitudes of its
family's default schedule (the last three of ``DEFAULT_ROTATION_SCHEDULE``
or ``DEFAULT_TRANSLATION_SCHEDULE``) are penetration-free; the larger
magnitudes are not evaluated.  It refuses a non-move, a zero translation
direction, with ``OutOfRangeError``.
A first-order certificate only promises some unquantified neighbourhood of
the identity, so it is checked from below; at larger magnitudes a perfectly
valid rotation may carry a point back through the body (the circular
trajectory of a far, nearly tangential center re-enters the convex body on
a contiguous magnitude window and leaves it again), so mid-schedule
penetration refutes nothing.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .body import Containment, ConvexBody, contains_over, is_full_disc
from .errors import InexactModeUnsupportedError, NearDegenerateError, OutOfRangeError
from .geom import Vec, half_angle_unit, over_one_denominator, read_scalar, rotation_map, rotation_unit

CW = "CW"
CCW = "CCW"

# Decreasing half-angle parameters for rotation checks and magnitude
# multipliers for translation checks.
DEFAULT_ROTATION_SCHEDULE = tuple(Fraction(1, 10 ** (2 + i)) for i in range(7))
DEFAULT_TRANSLATION_SCHEDULE = tuple(Fraction(1, 2 ** (1 + i)) for i in range(10))

# Each rotation step's integer unit in each sense, built once: the search reads
# its probes' units here instead of rebuilding them per probe.
_ROTATION_UNITS = {sense: tuple((t, rotation_unit(t, sense)) for t in DEFAULT_ROTATION_SCHEDULE) for sense in (CW, CCW)}

_RAND_DENOMINATOR = 1024
_INTERIOR = Containment.INTERIOR  # a module global reads faster than the enum member


def _homogeneous(pts) -> list[tuple[int, int, int]]:
    """The boundary points' coordinates as ``(x, y, w)`` ints, one denominator each."""
    out = []
    for bp in pts:
        (x, y), w = over_one_denominator(bp.coords.x, bp.coords.y)
        out.append((x, y, w))
    return out


def _clear(body: ConvexBody, pts, m) -> bool:
    """No ``(x, y, w)`` point interior after the map ``m``; a near-degenerate one is not clear."""
    a, b, e, f, g = m
    try:
        for x, y, w in pts:
            if contains_over(body, a * x - b * y + e * w, b * x + a * y + f * w, g * w) is _INTERIOR:
                return False
    except NearDegenerateError:
        return False
    return True


def _rotation_clear(body: ConvexBody, pts, center, sense: str, t: Fraction, unit=None) -> bool:
    """``_clear`` under the rotation about the ``(x, y, w)`` center by the half-angle t;
    ``unit``, when given, is ``rotation_unit(t, sense)``, already built."""
    if unit is None:
        unit = rotation_unit(t, sense)
    return _clear(body, pts, rotation_map(center, *unit))


def _translation_clear(body: ConvexBody, pts, vector: Vec) -> bool:
    """``_clear`` under the translation by the vector."""
    (vx, vy), vw = over_one_denominator(vector.x, vector.y)
    return _clear(body, pts, (vw, 0, vx, vy, vw))


@dataclass(frozen=True)
class EscapeReport:
    """A motion family under which no marked point goes interior.

    The family is described by its action on the points: ``sense`` is their
    rotation sense about ``center``, and ``direction`` the vector (scaled by
    each magnitude) added to them.  The body escapes by the inverse motion.
    """

    family: str  # rotation | translation
    center: Vec | None
    sense: str | None
    direction: Vec | None
    magnitudes: tuple[Fraction, ...]
    penetration_free: tuple[bool, ...]


def validate_rotation_witness(body: ConvexBody, pts, center: Vec, sense: str) -> bool:
    """Exactly check that rotating the points about the center by each of the
    last three half-angles of ``DEFAULT_ROTATION_SCHEDULE`` stays penetration-free."""
    _require_exact(body)
    _require_vec(center, "rotation center")
    (ox, oy), ow = over_one_denominator(center.x, center.y)
    pts = _homogeneous(pts)
    return all(_rotation_clear(body, pts, (ox, oy, ow), sense, t) for t in DEFAULT_ROTATION_SCHEDULE[-3:])


def validate_translation_witness(body: ConvexBody, pts, direction: Vec) -> bool:
    """Exactly check moving the points by each of the last three multiples of
    the direction in ``DEFAULT_TRANSLATION_SCHEDULE``."""
    _require_exact(body)
    _require_vec(direction, "direction")
    if direction.is_zero():
        raise OutOfRangeError("a translation witness needs a nonzero direction")
    pts = _homogeneous(pts)
    return all(_translation_clear(body, pts, direction.scaled(m)) for m in DEFAULT_TRANSLATION_SCHEDULE[-3:])


def _require_vec(v, what: str) -> None:
    """Anything but a ``Vec`` (whose coordinates are exact) raises ``OutOfRangeError``."""
    if not isinstance(v, Vec):
        raise OutOfRangeError(f"{what} {v!r} is not a Vec")


def _read_count(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise OutOfRangeError(f"{what} {value!r} is not an int")
    return value


def _require_exact(body: ConvexBody) -> None:
    if body.tolerance() != 0:
        raise InexactModeUnsupportedError("witness validation requires an exact body")


# -- escape search -----------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _grid_offsets(g: int) -> tuple[tuple[int, int], ...]:
    """The (2g + 1)^2 lattice offsets in search order, by 1-norm then kx, ky;
    kept for the last few g (one per sample budget), not rebuilt per search."""
    ks = sorted((abs(kx) + abs(ky), kx, ky) for kx in range(-g, g + 1) for ky in range(-g, g + 1))
    return tuple((kx, ky) for _, kx, ky in ks)


def _centers(center0: Vec, radius: Fraction, g: int, n_random: int, seed: int):
    """The rotation centers in search order as ``(X, Y, W)`` ints, built one at
    a time: with center0 and the radius over one denominator, a lattice center
    is ``(cx g + kx r, cy g + ky r, g den)`` and a random one ``(cx R + kx r,
    cy R + ky r, R den)``, R = _RAND_DENOMINATOR."""
    (cx, cy, r), den = over_one_denominator(center0.x, center0.y, radius)
    cxg, cyg, w = cx * g, cy * g, g * den
    for kx, ky in _grid_offsets(g):
        yield cxg + kx * r, cyg + ky * r, w
    cxr, cyr, w = cx * _RAND_DENOMINATOR, cy * _RAND_DENOMINATOR, _RAND_DENOMINATOR * den
    for idx in range(n_random):
        rng = random.Random(f"{seed}:{idx}")
        kx = rng.randint(-_RAND_DENOMINATOR, _RAND_DENOMINATOR)
        ky = rng.randint(-_RAND_DENOMINATOR, _RAND_DENOMINATOR)
        yield cxr + kx * r, cyr + ky * r, w


def _directions(net: int):
    """The translation directions in search order as integer units ``(c, s,
    d)``, built one at a time: ``half_angle_unit(k / net)`` and its negation
    for k = 0..net, then (0, 1) and (0, -1)."""
    for k in range(net + 1):
        c, s, d = half_angle_unit(Fraction(k, net))
        yield c, s, d
        yield -c, -s, d
    yield 0, 1, 1
    yield 0, -1, 1


def _vec(x: int, y: int, w: int) -> Vec:
    return Vec(Fraction(x, w), Fraction(y, w))


def escape_search(
    body: ConvexBody,
    pts,
    radius: Fraction | None = None,
    samples: int = 10**4,
    seed: int = 0,
) -> EscapeReport | None:
    """First candidate motion family with no point interior at any magnitude.

    Candidates, in deterministic order: rotation centers on a centered
    lattice (innermost first), then seeded random rational centers in the
    radius disc, each with sense CW then CCW; then translation directions
    from a rational unit-circle net starting at (1, 0).  Absence of a report
    says nothing (sampled search); a report certifies exactly the scheduled
    magnitudes it lists.  The radius, when given, must be a positive finite
    number, and the sample budget an int (not a bool) from 0 to 10**6.
    """
    if not 0 <= _read_count(samples, "sample budget") <= 10**6:
        raise OutOfRangeError("sample budget must be between 0 and 10**6")
    lo, hi = body.bounding_box()
    center0 = Vec(Fraction(lo.x + hi.x, 2), Fraction(lo.y + hi.y, 2))
    if radius is None:
        radius = 4 * ((hi.x - lo.x) + (hi.y - lo.y))
    radius = read_scalar(radius, "search radius")
    if radius <= 0:
        raise OutOfRangeError("search radius must be positive")

    disc, disc_center = is_full_disc(body)

    rot_budget = (samples * 3) // 5
    g = max(1, (isqrt(max(rot_budget, 4) // 2) - 1) // 2)
    n_grid = (2 * g + 1) ** 2
    n_random = max(0, (rot_budget - 2 * n_grid) // 2)

    pts = _homogeneous(pts)
    rot_schedule = DEFAULT_ROTATION_SCHEDULE
    for center in _centers(center0, radius, g, n_random, seed):
        if disc and _vec(*center) == disc_center:
            continue  # rotating a disc about its center does not move it
        for sense in (CW, CCW):
            if all(_rotation_clear(body, pts, center, sense, t, unit) for t, unit in _ROTATION_UNITS[sense]):
                return EscapeReport(
                    family="rotation",
                    center=_vec(*center),
                    sense=sense,
                    direction=None,
                    magnitudes=rot_schedule,
                    penetration_free=(True,) * len(rot_schedule),
                )

    trans_budget = max(2, samples - 2 * (n_grid + n_random))
    net = max(1, trans_budget // 4)
    tr_schedule = DEFAULT_TRANSLATION_SCHEDULE
    magnitudes = [m.as_integer_ratio() for m in tr_schedule]
    for c, s, d in _directions(net):
        vectors = (Vec(Fraction(c * mn, d * md), Fraction(s * mn, d * md)) for mn, md in magnitudes)
        if all(_translation_clear(body, pts, v) for v in vectors):
            return EscapeReport(
                family="translation",
                center=None,
                sense=None,
                direction=_vec(c, s, d),
                magnitudes=tr_schedule,
                penetration_free=(True,) * len(tr_schedule),
            )
    return None
