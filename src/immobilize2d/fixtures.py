"""Reference bodies and contact sets, plus seeded random polygons for fuzzing.

The two curved fixtures are truncations of constructions whose interesting
behaviour lives in an infinite sequence of tangency points accumulating at
(1, 0).  A truncation cannot reproduce that limit behaviour, so fixtures
carry a ``truncated`` flag and no claims are attached beyond what the
finite body actually exhibits.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .body import (
    MIXED_INEXACT,
    Arc,
    BoundaryPoint,
    ConvexBody,
    Segment,
    locate,
    polygon,
    validate,
)
from .errors import BodyValidationError, DegenerateError, OutOfRangeError
from .geom import Vec, cross, read_scalar, vec
from .sectors import _pos_lt

_ORIGIN = Vec(Fraction(0), Fraction(0))
_E = Vec(Fraction(1), Fraction(0))
_EAST = Vec(1, 0)  # int twin of _E, anchoring the CCW sort of int edges
_N = Vec(Fraction(0), Fraction(1))
_W = Vec(Fraction(-1), Fraction(0))
_S = Vec(Fraction(0), Fraction(-1))


@dataclass(frozen=True)
class Fixture:
    name: str
    body: ConvexBody
    points: tuple[BoundaryPoint, ...]
    expected: dict = field(default_factory=dict)
    truncated: bool = False
    notes: tuple[str, ...] = ()


def rectangle_remark() -> Fixture:
    """The 4x1 rectangle with two bottom contacts and one top contact.

    All first-order closed sector systems are empty, yet the direction test
    keeps the vertical directions, whose quarter-turn is the horizontal
    translation family that slides the body along the contact lines.
    """
    body = polygon([(-2, 0), (2, 0), (2, 1), (-2, 1)])
    validate(body)
    pts = tuple(locate(body, vec(x, y)) for x, y in ((-1, 0), (1, 0), (0, 1)))
    return Fixture(
        name="rectangle_remark",
        body=body,
        points=pts,
        expected={
            "fix_status": "FIRST_ORDER_INDETERMINATE",
            "closedL": "EMPTY",
            "closedR": "EMPTY",
            "directions": "NONEMPTY",
        },
        notes=("the contacts slide along the two horizontal boundary lines",),
    )


def unit_square() -> ConvexBody:
    body = polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    validate(body)
    return body


def _dirf(theta: float) -> Vec:
    return vec(math.cos(theta), math.sin(theta))


def _tangent_crossing(alpha: float, beta: float) -> Vec:
    """Intersection of the unit-circle tangent lines touching at alpha < beta."""
    m = (alpha + beta) / 2
    h = (beta - alpha) / 2
    return vec(math.cos(m) / math.cos(h), math.sin(m) / math.cos(h))


def _mirror_x(p: Vec) -> Vec:
    return Vec(p.x, -p.y)


def example_e1(n_tangents: int) -> Fixture:
    """Circle with a fan of tangent segments closing the wedge around (1, 0).

    Three quarter arcs cover directions away from (1, 0); tangent lines
    touching at angles +-pi/2**n (n = 2..N) and at 0 are chained through
    their pairwise crossings, mirror-symmetric about the x axis.  The four
    cardinal contact points have exact rational coordinates and normals
    through the origin.
    """
    if not 2 <= n_tangents <= 20:
        raise OutOfRangeError("tangent count must be between 2 and 20")
    c45, s45 = math.cos(math.pi / 4), math.sin(math.pi / 4)
    a_ne, a_nw = vec(c45, s45), vec(-c45, s45)
    a_sw, a_se = vec(-c45, -s45), vec(c45, -s45)
    arcs = (
        Arc(_ORIGIN, Fraction(1), a_ne, a_nw),
        Arc(_ORIGIN, Fraction(1), a_nw, a_sw),
        Arc(_ORIGIN, Fraction(1), a_sw, a_se),
    )
    touch = [math.pi / 2**n for n in range(2, n_tangents + 1)]  # pi/4 down to pi/2**N
    ascending = [0.0] + touch[::-1]
    upper = [_tangent_crossing(ascending[i], ascending[i + 1]) for i in range(len(ascending) - 1)]
    chain = [_mirror_x(p) for p in reversed(upper)] + upper
    segments = []
    prev = a_se
    for p in chain:
        segments.append(Segment(prev, p))
        prev = p
    segments.append(Segment(prev, a_ne))
    body = ConvexBody(arcs + tuple(segments), MIXED_INEXACT)
    validate(body)
    pts = tuple(locate(body, p) for p in (_E, _N, _W, _S))
    return Fixture(
        name="example_e1",
        body=body,
        points=pts,
        expected={"fix_status": "FIRST_ORDER_INDETERMINATE"},
        truncated=True,
        notes=(
            "finite stand-in for a construction with tangency points accumulating at (1, 0)",
            "all four contact normals pass through the origin",
        ),
    )


def example_e2(n_spikes: int) -> Fixture:
    """Hull of the unit circle and a sequence of spike vertices near (1, 0).

    Spike n sits at distance 1/cos(pi/4**n) in direction 3*pi/4**n; its two
    tangent segments touch the circle at angles 2*pi/4**n and pi/4**(n-1),
    leaving a shrinking band of circle arc between consecutive spikes.  The
    big arc is split at the four cardinal directions so the contact points
    are exact junction vertices.
    """
    if not 2 <= n_spikes <= 12:
        raise OutOfRangeError("spike count must be between 2 and 12")
    one = Fraction(1)
    first_touch = _dirf(2 * math.pi / 4**n_spikes)
    elements: list = [
        Arc(_ORIGIN, one, _dirf(math.pi / 4), _N),
        Arc(_ORIGIN, one, _N, _W),
        Arc(_ORIGIN, one, _W, _S),
        Arc(_ORIGIN, one, _S, _E),
        Arc(_ORIGIN, one, _E, first_touch),
    ]
    current = first_touch
    for n in range(n_spikes, 1, -1):
        half = math.pi / 4**n
        spike = vec(
            math.cos(3 * half) / math.cos(half),
            math.sin(3 * half) / math.cos(half),
        )
        touch_hi = _dirf(math.pi / 4 ** (n - 1))
        elements.append(Segment(current, spike))
        elements.append(Segment(spike, touch_hi))
        if n > 2:
            nxt = _dirf(2 * math.pi / 4 ** (n - 1))
            elements.append(Arc(_ORIGIN, one, touch_hi, nxt))
            current = nxt
    body = ConvexBody(tuple(elements), MIXED_INEXACT)
    validate(body)
    pts = tuple(locate(body, p) for p in (_N, _W, _S, _E))
    return Fixture(
        name="example_e2",
        body=body,
        points=pts,
        truncated=True,
        notes=(
            "finite stand-in for a hull with spikes accumulating at (1, 0)",
            "near (1, 0) useful straddling pairs degenerate; one-sided pairs take over in the limit",
        ),
    )


def unit_disc() -> ConvexBody:
    body = ConvexBody(
        (
            Arc(_ORIGIN, Fraction(1), _E, _N),
            Arc(_ORIGIN, Fraction(1), _N, _W),
            Arc(_ORIGIN, Fraction(1), _W, _S),
            Arc(_ORIGIN, Fraction(1), _S, _E),
        ),
        MIXED_INEXACT,
    )
    validate(body)
    return body


def regular_polygon(k: int, circumradius) -> ConvexBody:
    """Rational snap of the regular k-gon with a vertex at angle 0; the
    circumradius, read by ``read_scalar``, must be positive."""
    if not 3 <= k <= 64:
        raise OutOfRangeError("vertex count must be between 3 and 64")
    r = read_scalar(circumradius, "circumradius")
    if r <= 0:
        raise OutOfRangeError("circumradius must be positive")
    verts = []
    for j in range(k):
        theta = 2 * math.pi * j / k
        verts.append(
            (
                r * Fraction(math.cos(theta)).limit_denominator(10**6),
                r * Fraction(math.sin(theta)).limit_denominator(10**6),
            )
        )
    body = polygon(verts)
    validate(body)
    return body


def random_convex_polygon(seed: int, k: int) -> ConvexBody:
    """Deterministic random convex polygon with integer vertex coordinates.

    Draws k small integer vectors, recenters them to sum to zero without
    leaving the integers (e_j = k*v_j - sum v), sorts them by exact
    direction angle and walks the fan.  Retries the draw when it degenerates.
    """
    if not 3 <= k <= 64:
        raise OutOfRangeError("vertex count must be between 3 and 64")
    rng = random.Random(seed)
    for _ in range(8):
        raw = [Vec(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(k)]
        total = functools.reduce(lambda u, w: u + w, raw)
        edges = [Vec(k * w.x - total.x, k * w.y - total.y) for w in raw]
        if any(e.is_zero() for e in edges):
            continue
        edges.sort(key=functools.cmp_to_key(lambda a, b: _pos_lt(_EAST, b, a) - _pos_lt(_EAST, a, b)))
        if all(cross(edges[i], edges[(i + 1) % k]) == 0 for i in range(k)):
            continue  # all edges parallel: zero area
        verts = []
        p = Vec(Fraction(0), Fraction(0))
        for e in edges:
            verts.append(p)
            p = p + e
        body = polygon(verts)
        try:
            validate(body)
        except BodyValidationError:
            continue
        return body
    raise DegenerateError(f"no valid polygon after 8 draws for seed {seed}")
