"""Brute-force cross-checks for the first-order classifiers.

Everything here reduces to one exact predicate: a rigid motion f of the
body leaves marked point a outside the open interior iff f^-1(a) is not
interior to the static body.  Escape reports and witness validators name a
candidate family by that inverse action on the points: ``sense`` is the
sense of the rotation applied to the points (the escaping body motion has
the opposite sense), and a translation witness moves the points along the
reported direction.  Motion paths, by contrast, are explicit motions of
the body, so path simulation applies the inverse motion to each point.

Every probe runs in integers: the center, the points and the translation
vector go over one denominator (``geom.over_one_denominator``), the
rotation unit is read off the half-angle t in ints (``geom.half_angle_unit``),
and the moved point goes to ``body.contains_over`` as ``(x, y, w)``, so a
probe builds no ``Rotation`` and no moved-point ``Fraction``.
Candidate centers are built one at a time, so an early escape builds no
further centers.

A validator accepts a witness when the smallest scheduled magnitudes (the
last three of the schedule, or all of it if shorter) are penetration-free;
the larger magnitudes are not evaluated.  It refuses a non-move: a zero
translation direction, or any scheduled magnitude that is not positive
(zero is the identity, a negative one the opposite family).
A first-order certificate only promises some unquantified neighbourhood of
the identity, so it is checked from below; at larger magnitudes a perfectly
valid rotation may carry a point back through the body (the circular
trajectory of a far, nearly tangential center re-enters the convex body on
a contiguous magnitude window and leaves it again), so mid-schedule
penetration refutes nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .body import Containment, ConvexBody, contains_interior, contains_over, is_full_disc
from .errors import InexactModeUnsupportedError, NearDegenerateError, OutOfRangeError
from .geom import (
    Identity,
    RigidMotion,
    Translation,
    Vec,
    apply_motion,
    half_angle_unit,
    invert_motion,
    over_one_denominator,
    rational_rotation,
    rotation_about,
    to_scalar,
)

CW = "CW"
CCW = "CCW"

# Decreasing half-angle parameters for rotation checks and magnitude
# multipliers for translation checks.
DEFAULT_ROTATION_SCHEDULE = tuple(Fraction(1, 10 ** (2 + i)) for i in range(7))
DEFAULT_TRANSLATION_SCHEDULE = tuple(Fraction(1, 2 ** (1 + i)) for i in range(10))

_RAND_DENOMINATOR = 1024


def _clear(body: ConvexBody, x: int, y: int, w: int) -> bool:
    """True when (x / w, y / w) is certainly not interior; near-degenerate counts as unclear."""
    try:
        return contains_over(body, x, y, w) is not Containment.INTERIOR
    except NearDegenerateError:
        return False


def _rotation_clear(body: ConvexBody, pts, center: Vec, sense: str, t: Fraction) -> bool:
    """No point interior after rotating the points about the center by the half-angle t.

    With t's unit ``(c, +-s) / d``, the center ``(ox, oy) / ow`` and a point ``(px,
    py) / pw``, the moved point is ``(ox pw d + c dx - s dy, oy pw d + s dx + c
    dy) / (ow pw d)``, ``(dx, dy) = (px ow - ox pw, py ow - oy pw)``.
    """
    c, s, d = half_angle_unit(t)
    if sense == CW:
        s = -s
    elif sense != CCW:
        raise ValueError(f"unknown sense {sense!r}")
    (ox, oy), ow = over_one_denominator(center.x, center.y)
    oxd, oyd, owd = ox * d, oy * d, ow * d
    for bp in pts:
        (px, py), pw = over_one_denominator(bp.coords.x, bp.coords.y)
        dx, dy = px * ow - ox * pw, py * ow - oy * pw
        if not _clear(body, oxd * pw + c * dx - s * dy, oyd * pw + s * dx + c * dy, owd * pw):
            return False
    return True


def _translation_clear(body: ConvexBody, pts, vector: Vec) -> bool:
    """No point interior after adding the vector ``(vx, vy) / vw`` to each point."""
    (vx, vy), vw = over_one_denominator(vector.x, vector.y)
    for bp in pts:
        (px, py), pw = over_one_denominator(bp.coords.x, bp.coords.y)
        if not _clear(body, px * vw + vx * pw, py * vw + vy * pw, pw * vw):
            return False
    return True


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


def validate_rotation_witness(
    body: ConvexBody,
    pts,
    center: Vec,
    sense: str,
    schedule: tuple[Fraction, ...] = DEFAULT_ROTATION_SCHEDULE,
) -> bool:
    """Exactly check that rotating the points about the center stays penetration-free."""
    _require_exact(body)
    _require_positive(schedule)
    tail = schedule[-3:]
    return bool(tail) and all(_rotation_clear(body, pts, center, sense, t) for t in tail)


def validate_translation_witness(
    body: ConvexBody,
    pts,
    direction: Vec,
    schedule: tuple[Fraction, ...] = DEFAULT_TRANSLATION_SCHEDULE,
) -> bool:
    """Exactly check moving the points by each scheduled multiple of the direction."""
    _require_exact(body)
    if direction.is_zero():
        raise OutOfRangeError("a translation witness needs a nonzero direction")
    _require_positive(schedule)
    tail = schedule[-3:]
    return bool(tail) and all(_translation_clear(body, pts, direction.scaled(m)) for m in tail)


def _require_exact(body: ConvexBody) -> None:
    if body.tolerance() != 0:
        raise InexactModeUnsupportedError("witness validation requires an exact body")


def _require_positive(schedule) -> None:
    # a zero magnitude is the identity, which moves nothing; a negative one flips the family
    if any(to_scalar(m) <= 0 for m in schedule):
        raise OutOfRangeError("every scheduled magnitude must be positive")


# -- escape search -----------------------------------------------------------


def _grid_offsets(g: int):
    ks = [(abs(kx) + abs(ky), kx, ky) for kx in range(-g, g + 1) for ky in range(-g, g + 1)]
    ks.sort()
    return [(kx, ky) for _, kx, ky in ks]


def _centers(center0: Vec, radius: Fraction, g: int, n_random: int, seed: int):
    """The rotation centers in search order, built one at a time: with center0
    and the radius over one denominator, a lattice center is ``(cx g + kx r) /
    (g den)`` and a random one ``(cx R + kx r) / (R den)``, R = _RAND_DENOMINATOR."""
    (cx, cy, r), den = over_one_denominator(center0.x, center0.y, radius)
    for kx, ky in _grid_offsets(g):
        yield Vec(Fraction(cx * g + kx * r, g * den), Fraction(cy * g + ky * r, g * den))
    for idx in range(n_random):
        rng = random.Random(f"{seed}:{idx}")
        kx = rng.randint(-_RAND_DENOMINATOR, _RAND_DENOMINATOR)
        ky = rng.randint(-_RAND_DENOMINATOR, _RAND_DENOMINATOR)
        den_r = _RAND_DENOMINATOR * den
        yield Vec(Fraction(cx * _RAND_DENOMINATOR + kx * r, den_r), Fraction(cy * _RAND_DENOMINATOR + ky * r, den_r))


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
    magnitudes it lists.  The radius, when given, must be positive.
    """
    if not 0 <= samples <= 10**6:
        raise OutOfRangeError("sample budget must be between 0 and 10**6")
    pts = list(pts)
    lo, hi = body.bounding_box()
    center0 = Vec((lo.x + hi.x) / 2, (lo.y + hi.y) / 2)
    if radius is None:
        radius = 4 * ((hi.x - lo.x) + (hi.y - lo.y))
    radius = to_scalar(radius)
    if radius <= 0:
        raise OutOfRangeError("search radius must be positive")

    disc, disc_center = is_full_disc(body)

    rot_budget = (samples * 3) // 5
    g = max(1, (isqrt(max(rot_budget, 4) // 2) - 1) // 2)
    n_grid = (2 * g + 1) ** 2
    n_random = max(0, (rot_budget - 2 * n_grid) // 2)

    rot_schedule = DEFAULT_ROTATION_SCHEDULE
    for center in _centers(center0, radius, g, n_random, seed):
        if disc and center == disc_center:
            continue  # rotating a disc about its center does not move it
        for sense in (CW, CCW):
            if all(_rotation_clear(body, pts, center, sense, t) for t in rot_schedule):
                return EscapeReport(
                    family="rotation",
                    center=center,
                    sense=sense,
                    direction=None,
                    magnitudes=rot_schedule,
                    penetration_free=(True,) * len(rot_schedule),
                )

    trans_budget = max(2, samples - 2 * (n_grid + n_random))
    net = max(1, trans_budget // 4)
    directions: list[Vec] = []
    for k in range(net + 1):
        d = Vec(*rational_rotation(Fraction(k, net)))
        directions.append(d)
        directions.append(-d)
    directions.append(Vec(Fraction(0), Fraction(1)))
    directions.append(Vec(Fraction(0), Fraction(-1)))

    tr_schedule = DEFAULT_TRANSLATION_SCHEDULE
    for d in directions:
        if all(_translation_clear(body, pts, d.scaled(m)) for m in tr_schedule):
            return EscapeReport(
                family="translation",
                center=None,
                sense=None,
                direction=d,
                magnitudes=tr_schedule,
                penetration_free=(True,) * len(tr_schedule),
            )
    return None


# -- motion paths ------------------------------------------------------------


@dataclass(frozen=True)
class MotionPath:
    """Parametric motion family on [0, 1] starting at the identity."""

    kind: str  # rotation | translation | samples
    center: Vec | None = None
    sense: str | None = None
    max_half_angle: Fraction | None = None
    vector: Vec | None = None
    samples: tuple[tuple[Fraction, RigidMotion], ...] | None = None

    @staticmethod
    def rotation(center: Vec, sense: str, max_half_angle) -> "MotionPath":
        return MotionPath(kind="rotation", center=center, sense=sense, max_half_angle=to_scalar(max_half_angle))

    @staticmethod
    def translation(vector: Vec) -> "MotionPath":
        return MotionPath(kind="translation", vector=vector)

    @staticmethod
    def from_samples(samples) -> "MotionPath":
        samples = tuple(samples)
        if not samples:
            raise OutOfRangeError("a motion path needs at least one sample")
        t0, m0 = samples[0]
        probes = (Vec(Fraction(0), Fraction(0)), Vec(Fraction(1), Fraction(0)), Vec(Fraction(0), Fraction(1)))
        if t0 != 0 or any(apply_motion(m0, p) != p for p in probes):
            raise OutOfRangeError("a motion path must start at the identity")
        return MotionPath(kind="samples", samples=samples)

    def motion_at(self, t: Fraction) -> RigidMotion:
        if self.kind == "rotation":
            if t == 0:
                return Identity()
            return rotation_about(self.center, t * self.max_half_angle, self.sense)
        if self.kind == "translation":
            return Translation(self.vector.scaled(t))
        raise OutOfRangeError("sampled paths carry their own motions")


def simulate_path(body: ConvexBody, pts, path: MotionPath, steps: int = 100):
    """First sampled (t, point index) with a point interior to the moved body.

    None is only "no penetration among the samples", never a certificate.
    ``steps`` below 1 raises OutOfRangeError.
    """
    if steps < 1:
        raise OutOfRangeError("a path simulation needs at least one step")
    pts = list(pts)
    if path.kind == "samples":
        timeline = path.samples
    else:
        timeline = [(Fraction(j, steps), path.motion_at(Fraction(j, steps))) for j in range(steps + 1)]
    for t, motion in timeline:
        inv = invert_motion(motion)
        for i, bp in enumerate(pts):
            try:
                inside = contains_interior(body, apply_motion(inv, bp.coords)) is Containment.INTERIOR
            except NearDegenerateError:
                inside = False
            if inside:
                return t, i
    return None
