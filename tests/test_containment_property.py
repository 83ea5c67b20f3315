"""Property tests: integer containment and rotations against Fraction references.

``contains_interior`` decides segments from the body's integer row table
(``ConvexBody.rows``, each ``Segment.row`` with the tolerance applied),
``contains_over`` takes the point over one denominator, and
``apply_motion`` and the oracle's escape probes rotate and translate by one
integer map (``geom.motion_map``, ``geom.rotation_map``);
``tests/containment_reference.py`` writes all of them out in ``Fraction``s.
Bodies are ``random_convex_polygon`` under a rational scale and shift, so
rows carry denominators.  Points are drawn at random, on vertices, on edges
and ``2^-k`` off an edge on either side; in mixed mode some are placed
inside the tolerance band of an edge, where the verdict must be the same
``NearDegenerateError`` guess.  An escape probe counts a near-degenerate
point as unclear, as the oracle does.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from containment_reference import reference_containment, reference_rotate, reference_rotation  # noqa: E402
from immobilize2d import io, oracle  # noqa: E402
from immobilize2d.body import (  # noqa: E402
    EXACT_POLYGON,
    MIXED_INEXACT,
    BoundaryPoint,
    boundary_point,
    contains_interior,
    contains_over,
    offset_along_boundary,
    polygon,
    validate,
)
from immobilize2d.errors import NearDegenerateError  # noqa: E402
from immobilize2d.fixtures import random_convex_polygon, unit_disc  # noqa: E402
from immobilize2d.geom import (  # noqa: E402
    Identity,
    Rotation,
    Translation,
    Vec,
    apply_motion,
    invert_motion,
    over_one_denominator,
    rational_rotation,
    rotation_about,
)

SETTINGS = hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)

rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))


@st.composite
def bodies(draw, mode):
    base = random_convex_polygon(draw(st.integers(0, 10**6)), draw(st.integers(3, 9)))
    scale = Fraction(draw(st.integers(1, 60)), draw(st.integers(1, 60)))
    sx, sy = draw(rationals), draw(rationals)
    body = polygon([(v.x * scale + sx, v.y * scale + sy) for v in base.vertices()], mode)
    validate(body)
    return body


@st.composite
def edge_points(draw, body):
    """A point on an edge (param in [0, 1]) and that edge's left normal."""
    el = body.elements[draw(st.integers(0, len(body.elements) - 1))]
    d = el.b - el.a
    t = Fraction(draw(st.integers(0, 64)), 64)
    return el.a + d.scaled(t), Vec(-d.y, d.x)


@st.composite
def probes(draw, body):
    kind = draw(st.sampled_from(("random", "vertex", "edge", "off_edge")))
    if kind == "vertex":
        return body.vertex(draw(st.integers(0, len(body.elements) - 1)))
    if kind == "random":
        lo, hi = body.bounding_box()
        x = lo.x + (hi.x - lo.x) * Fraction(draw(st.integers(-8, 72)), 64)
        y = lo.y + (hi.y - lo.y) * Fraction(draw(st.integers(-8, 72)), 64)
        return Vec(x, y)
    p, n = draw(edge_points(body))
    if kind == "edge":
        return p
    return p + n.scaled(Fraction(draw(st.sampled_from((1, -1))), 2 ** draw(st.integers(0, 80))))


def verdict(contains, body, *point):
    """("ok", status) or ("near", guess) of ``contains(body, *point)``."""
    try:
        return "ok", contains(body, *point).value
    except NearDegenerateError as exc:
        return "near", exc.guess.value


def library_containment(body, p):
    return verdict(contains_interior, body, p)


def reference(body, p):
    edges = [((el.a.x, el.a.y), (el.b.x, el.b.y)) for el in body.elements]
    return reference_containment(edges, (p.x, p.y), body.tolerance())


def band_point(data, body):
    """A point inside the tolerance band of an edge, off its ends."""
    el = body.elements[data.draw(st.integers(0, len(body.elements) - 1))]
    d = el.b - el.a
    band = body.tolerance() * (abs(d.x) + abs(d.y)) / (d.x * d.x + d.y * d.y)
    offset = data.draw(st.sampled_from((1, -1))) * band / 2 ** data.draw(st.integers(1, 40))
    return el.a + d.scaled(Fraction(data.draw(st.integers(1, 63)), 64)) + Vec(-d.y, d.x).scaled(offset)


@SETTINGS
@hypothesis.given(st.data())
def test_exact_containment_matches_the_fraction_reference(data):
    body = data.draw(bodies(EXACT_POLYGON))
    for _ in range(8):
        p = data.draw(probes(body))
        assert library_containment(body, p) == reference(body, p), p


@SETTINGS
@hypothesis.given(st.data())
def test_mixed_containment_matches_the_fraction_reference(data):
    body = data.draw(bodies(MIXED_INEXACT))
    for _ in range(8):
        p = data.draw(probes(body))
        assert library_containment(body, p) == reference(body, p), p
    # inside the tolerance band of an edge, off its ends: the edge snaps
    # without being zero, so the verdict is a near-degenerate guess
    p = band_point(data, body)
    expected = reference(body, p)
    assert expected[0] == "near"
    assert library_containment(body, p) == expected, p


@SETTINGS
@hypothesis.given(st.data())
def test_containment_over_any_common_denominator_matches(data):
    body = data.draw(bodies(data.draw(st.sampled_from((EXACT_POLYGON, MIXED_INEXACT)))))
    points = [data.draw(probes(body)) for _ in range(4)]
    if body.tolerance():
        points.append(band_point(data, body))
    for p in points:
        (x, y), w = over_one_denominator(p.x, p.y)
        k = data.draw(st.integers(1, 10**6))
        assert verdict(contains_over, body, k * x, k * y, k * w) == library_containment(body, p), (p, k)


def reference_clear(body, p) -> bool:
    """Certainly not interior by the reference; near-degenerate counts as unclear."""
    kind, status = reference(body, p)
    return kind == "ok" and status != "INTERIOR"


# the escape schedules' small magnitudes, which keep moved points near the boundary, and any others
positive_ts = st.one_of(
    st.builds(lambda k: Fraction(1, 10**k), st.integers(1, 9)),
    st.builds(Fraction, st.integers(1, 10**4), st.integers(1, 10**6)),
)


@SETTINGS
@hypothesis.given(st.data())
def test_escape_probes_match_the_fraction_reference(data):
    body = data.draw(bodies(data.draw(st.sampled_from((EXACT_POLYGON, MIXED_INEXACT)))))
    pts = [BoundaryPoint(0, Fraction(0), data.draw(probes(body))) for _ in range(data.draw(st.integers(1, 4)))]
    center = data.draw(st.one_of(probes(body), st.builds(Vec, rationals, rationals)))
    t = data.draw(positive_ts)
    # the probes take the points and the center as (x, y, w) ints
    over_one = oracle._homogeneous(pts)
    (ox, oy), ow = over_one_denominator(center.x, center.y)
    c, s = reference_rotation(t)
    for sense, unit in ((oracle.CCW, (c, s)), (oracle.CW, (c, -s))):
        moved = [Vec(*reference_rotate((center.x, center.y), *unit, (bp.coords.x, bp.coords.y))) for bp in pts]
        expected = all(reference_clear(body, p) for p in moved)
        assert oracle._rotation_clear(body, over_one, (ox, oy, ow), sense, t) == expected, (center, sense, t)
    v = Vec(data.draw(rationals), data.draw(rationals)).scaled(data.draw(positive_ts))
    expected = all(reference_clear(body, bp.coords + v) for bp in pts)
    assert oracle._translation_clear(body, over_one, v) == expected, v


def test_rows_are_computed_on_first_containment_only():
    body = random_convex_polygon(5, 6)
    validate(body)
    # the benchmark's set-up: points on the boundary, body and points written out and read back
    pts = [boundary_point(body, j, Fraction(1, 2)) for j in range(len(body.elements))]
    loaded = io.body_from_json(io.loads(io.dumps(io.body_to_json(body))))
    validate(loaded)
    io.points_from_json(io.loads(io.dumps(io.points_to_json(pts))), loaded)
    for b in (body, loaded, polygon([(0, 0), (1, 0), (0, 1)])):
        # validate builds neither table: it reads the tangents straight off the elements
        assert "rows" not in vars(b) and "arclength" not in vars(b)
        assert not any("row" in vars(el) for el in b.elements)
    contains_interior(body, Vec(Fraction(1, 3), Fraction(1, 7)))
    assert "rows" in vars(body) and "arclength" not in vars(body)
    assert "row" in vars(body.elements[0])


@SETTINGS
@hypothesis.given(st.data())
def test_row_table_is_each_segment_row_with_the_tolerance_applied(data):
    body = data.draw(bodies(data.draw(st.sampled_from((EXACT_POLYGON, MIXED_INEXACT)))))
    tn, td = body.tolerance().numerator, body.tolerance().denominator
    assert len(body.rows) == len(body.elements)
    for entry, el in zip(body.rows, body.elements):
        a, b, c, s = el.row
        assert entry == (a * td, b * td, c * td, tn * s)


def test_a_built_table_leaves_equality_and_hash_alone():
    for body in (random_convex_polygon(5, 6), unit_disc()):
        fresh = io.body_from_json(io.loads(io.dumps(io.body_to_json(body))))
        lo, hi = body.bounding_box()
        contains_interior(body, Vec((lo.x + hi.x) / 2, (lo.y + hi.y) / 2))
        offset_along_boundary(body, boundary_point(body, 0, Fraction(1, 2)), Fraction(1, 3))
        for table in ("rows", "arclength"):
            assert table in vars(body) and table not in vars(fresh)
        assert body == fresh and hash(body) == hash(fresh)
    assert body.rows == body.elements  # an arc is its own entry


@SETTINGS
@hypothesis.given(st.integers(-10**12, 10**12), st.integers(1, 10**12), rationals, rationals, rationals, rationals)
def test_rotations_match_the_fraction_formulas(p, q, cx, cy, x, y):
    t = Fraction(p, q)
    c, s = rational_rotation(t)
    assert (c, s) == reference_rotation(t)
    center, point = Vec(cx, cy), Vec(x, y)
    for sense, sign in (("CCW", 1), ("CW", -1)):
        m = rotation_about(center, t, sense)
        for motion, unit in ((m, (c, sign * s)), (invert_motion(m), (c, -sign * s))):
            moved = apply_motion(motion, point)
            assert (moved.x, moved.y) == reference_rotate((cx, cy), *unit, (x, y))


@SETTINGS
@hypothesis.given(rationals, rationals, rationals, rationals)
def test_translations_and_the_identity_match_fraction_addition(vx, vy, x, y):
    point, shift = Vec(x, y), Translation(Vec(vx, vy))
    for motion, (dx, dy) in ((shift, (vx, vy)), (invert_motion(shift), (-vx, -vy)), (Identity(), (0, 0)), (invert_motion(Identity()), (0, 0))):
        moved = apply_motion(motion, point)
        assert (moved.x, moved.y) == (x + dx, y + dy)


units = st.builds(reference_rotation, rationals)
candidate_units = st.one_of(
    st.tuples(rationals, rationals),
    units,
    units.map(lambda u: (u[1], -u[0])),
    st.tuples(units, rationals).map(lambda ur: (ur[0][0], ur[1])),
)


@SETTINGS
@hypothesis.given(candidate_units)
def test_rotation_accepts_exactly_the_unit_circle(unit):
    c, s = unit
    on_circle = c * c + s * s == 1
    try:
        Rotation(Vec(Fraction(0), Fraction(0)), c, s)
    except ValueError:
        assert not on_circle
    else:
        assert on_circle


def test_rotation_refuses_units_off_the_circle():
    o = Vec(Fraction(0), Fraction(0))
    for c, s in ((Fraction(3, 5), Fraction(3, 5)), (Fraction(1), Fraction(1)), (Fraction(3, 5), Fraction(4, 7))):
        with pytest.raises(ValueError):
            Rotation(o, c, s)
    for c, s in ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))):
        assert Rotation(o, c, s).c == c
