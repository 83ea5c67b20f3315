"""Brute-force cross-checks for the first-order classifiers.

Everything here reduces to one exact predicate: a rigid motion f of the
body leaves marked point a outside the open interior iff f^-1(a) is not
interior to the static body.  Escape reports and witness validators name a
candidate family by that inverse action on the points: ``sense`` is the
sense of the rotation applied to the points (the escaping body motion has
the opposite sense), and a translation witness moves the points along the
reported direction.  Motion paths, by contrast, are explicit motions of
the body, so path simulation applies the inverse motion to each point.

Every probe runs in integers.  A search or a validator puts the contact
points over one denominator once (``geom.over_one_denominator``) and hands
them to the probes as ``(x, y, w)`` ints.  The search builds its centers
``(X, Y, W)`` and translation units ``(c, s, d)`` one at a time, so an early
escape builds no further candidates.  Each probe builds its motion's
integer map (``geom.rotation_map``, or ``(vw, 0, vx, vy, vw)`` for the
vector ``(vx, vy) / vw``) and runs the one loop ``_clear``, which hands each
moved point to ``body.contains_over``, so a probe builds no ``Fraction``.
The radius, the schedule entries, a witness center, a witness direction,
and a motion path's center, vector, half-angle and sample times are read
through ``geom.read_scalar``, so a value that is no finite number raises
``OutOfRangeError``; so does a sample budget or a path's step count that is
not an int, a path sense other than CW and CCW, and a sampled motion that is
no ``Rotation``, ``Translation`` or ``Identity``.

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

import functools
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
    motion_map,
    over_one_denominator,
    read_scalar,
    rotation_about,
    rotation_map,
    rotation_unit,
)

CW = "CW"
CCW = "CCW"

# Decreasing half-angle parameters for rotation checks and magnitude
# multipliers for translation checks.
DEFAULT_ROTATION_SCHEDULE = tuple(Fraction(1, 10 ** (2 + i)) for i in range(7))
DEFAULT_TRANSLATION_SCHEDULE = tuple(Fraction(1, 2 ** (1 + i)) for i in range(10))

_RAND_DENOMINATOR = 1024


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
            if contains_over(body, a * x - b * y + e * w, b * x + a * y + f * w, g * w) is Containment.INTERIOR:
                return False
    except NearDegenerateError:
        return False
    return True


def _rotation_clear(body: ConvexBody, pts, center, sense: str, t: Fraction) -> bool:
    """``_clear`` under the rotation about the ``(x, y, w)`` center by the half-angle t."""
    return _clear(body, pts, rotation_map(center, *rotation_unit(t, sense)))


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


def validate_rotation_witness(
    body: ConvexBody,
    pts,
    center: Vec,
    sense: str,
    schedule: tuple[Fraction, ...] = DEFAULT_ROTATION_SCHEDULE,
) -> bool:
    """Exactly check that rotating the points about the center stays penetration-free."""
    _require_exact(body)
    tail = _positive(schedule)[-3:]
    center = _read_vec(center, "rotation center")
    (ox, oy), ow = over_one_denominator(center.x, center.y)
    pts = _homogeneous(pts)
    return bool(tail) and all(_rotation_clear(body, pts, (ox, oy, ow), sense, t) for t in tail)


def validate_translation_witness(
    body: ConvexBody,
    pts,
    direction: Vec,
    schedule: tuple[Fraction, ...] = DEFAULT_TRANSLATION_SCHEDULE,
) -> bool:
    """Exactly check moving the points by each scheduled multiple of the direction."""
    _require_exact(body)
    direction = _read_vec(direction, "direction")
    if direction.is_zero():
        raise OutOfRangeError("a translation witness needs a nonzero direction")
    tail = _positive(schedule)[-3:]
    pts = _homogeneous(pts)
    return bool(tail) and all(_translation_clear(body, pts, direction.scaled(m)) for m in tail)


def _read_vec(v, what: str) -> Vec:
    """``v`` with both coordinates read through ``read_scalar``; anything but a
    ``Vec`` raises ``OutOfRangeError`` too."""
    if not isinstance(v, Vec):
        raise OutOfRangeError(f"{what} {v!r} is not a Vec")
    return Vec(read_scalar(v.x, what), read_scalar(v.y, what))


def _read_count(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise OutOfRangeError(f"{what} {value!r} is not an int")
    return value


def _require_exact(body: ConvexBody) -> None:
    if body.tolerance() != 0:
        raise InexactModeUnsupportedError("witness validation requires an exact body")


def _positive(schedule) -> tuple[Fraction, ...]:
    """The schedule read as ``Fraction``s, every one of them positive."""
    schedule = tuple(read_scalar(m, "scheduled magnitude") for m in schedule)
    # a zero magnitude is the identity, which moves nothing; a negative one flips the family
    if any(m <= 0 for m in schedule):
        raise OutOfRangeError("every scheduled magnitude must be positive")
    return schedule


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
    center0 = Vec((lo.x + hi.x) / 2, (lo.y + hi.y) / 2)
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
            if all(_rotation_clear(body, pts, center, sense, t) for t in rot_schedule):
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


# -- motion paths ------------------------------------------------------------


@dataclass(frozen=True)
class MotionPath:
    """Parametric motion family on [0, 1] starting at the identity.

    Every path, however built, is checked and read once here: a rotation
    needs a sense and reads its center and half-angle, a translation reads
    its vector, and sampled motions ``(t, motion)`` need each t a finite
    number in [0, 1], strictly increasing, each motion a ``Rotation``,
    ``Translation`` or ``Identity``, the first one the identity at 0.
    Anything else raises ``OutOfRangeError``.
    """

    kind: str  # rotation | translation | samples
    center: Vec | None = None
    sense: str | None = None
    max_half_angle: Fraction | None = None
    vector: Vec | None = None
    samples: tuple[tuple[Fraction, RigidMotion], ...] | None = None

    def __post_init__(self):
        if self.kind == "rotation":
            if self.sense not in (CW, CCW):
                raise OutOfRangeError(f"unknown sense {self.sense!r}")
            object.__setattr__(self, "center", _read_vec(self.center, "rotation center"))
            object.__setattr__(self, "max_half_angle", read_scalar(self.max_half_angle, "half-angle"))
        elif self.kind == "translation":
            object.__setattr__(self, "vector", _read_vec(self.vector, "translation vector"))
        elif self.kind == "samples":
            try:
                samples = tuple((read_scalar(t, "sample time"), m) for t, m in self.samples or ())
            except (TypeError, ValueError):  # not iterable, or an item that is no pair
                raise OutOfRangeError(f"samples {self.samples!r} are not (t, motion) pairs") from None
            if not samples:
                raise OutOfRangeError("a motion path needs at least one sample")
            maps = [motion_map(m) for _, m in samples]  # refuses anything but a rigid motion
            a, b, e, f, g = maps[0]
            if samples[0][0] != 0 or (a, b, e, f) != (g, 0, 0, 0):
                raise OutOfRangeError("a motion path must start at the identity")
            times = [t for t, _ in samples]
            if times[-1] > 1 or any(s >= t for s, t in zip(times, times[1:])):
                raise OutOfRangeError("sample times must increase strictly within [0, 1]")
            object.__setattr__(self, "samples", samples)
        else:
            raise OutOfRangeError(f"unknown motion path kind {self.kind!r}")

    @staticmethod
    def rotation(center: Vec, sense: str, max_half_angle) -> "MotionPath":
        return MotionPath(kind="rotation", center=center, sense=sense, max_half_angle=max_half_angle)

    @staticmethod
    def translation(vector: Vec) -> "MotionPath":
        return MotionPath(kind="translation", vector=vector)

    @staticmethod
    def from_samples(samples) -> "MotionPath":
        """Sampled motions ``(t, motion)``, checked as the class says."""
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
    ``steps`` must be an int (not a bool) of at least 1, else OutOfRangeError.
    """
    if _read_count(steps, "step count") < 1:
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
