"""Race the integer ``validate`` and the arclength table against their references.

``body.validate`` reads each element's tangents as ints over that element's
own denominator and decides every turn in integers;
``tests/validate_reference.py`` keeps the ``Fraction`` validator it replaced.
Both must accept the same bodies and refuse the others with the same
``BodyValidationError`` code, element index and message, in both modes.
Chains are random rational polygons, valid polygons under a rational scale
and shift, and those polygons broken on purpose: reversed, a vertex
duplicated, a collinear reversal, a right turn, the doubly wound star and a
gap.  In mixed mode a vertex is pushed off an edge, or an edge end off its
junction, by amounts either side of the tolerance, and the curved fixtures
are raced as built.  On every accepted body ``offset_along_boundary`` must
land where the reference, which measures every element per call, lands.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from immobilize2d.body import (  # noqa: E402
    DEFAULT_TOLERANCE,
    EXACT_POLYGON,
    MIXED_INEXACT,
    ConvexBody,
    Segment,
    boundary_point,
    offset_along_boundary,
    polygon,
    validate,
)
from immobilize2d.errors import BodyValidationError, OutOfRangeError  # noqa: E402
from immobilize2d.fixtures import example_e1, example_e2, random_convex_polygon, unit_disc  # noqa: E402
from immobilize2d.geom import Vec  # noqa: E402
from validate_reference import offset_along_boundary as reference_offset  # noqa: E402
from validate_reference import validate as reference_validate  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)

modes = st.sampled_from((EXACT_POLYGON, MIXED_INEXACT))
rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))
small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


def outcome(check, body):
    """None when ``check`` accepts the body, else what it raised."""
    try:
        check(body)
    except BodyValidationError as e:
        return e.code, e.element, str(e)
    except OutOfRangeError as e:
        return e.code, str(e)
    return None


def assert_same(body):
    """The same verdict from both validators; on acceptance, the same walks."""
    got = outcome(validate, body)
    assert got == outcome(reference_validate, body)
    if got is None:
        assert_same_offsets(body)
    return got


def assert_same_offsets(body):
    fresh = ConvexBody(body.elements, body.mode)  # no table built yet
    for j in range(len(body.elements)):
        for param in (Fraction(0), Fraction(1, 3)):
            bp = boundary_point(fresh, j, param)
            for s in (Fraction(1, 7), Fraction(-5, 3), Fraction(j + 1, 2)):
                assert offset_along_boundary(fresh, bp, s) == reference_offset(body, bp, s)


@st.composite
def convex_vertices(draw):
    """A valid polygon's vertices under a rational scale and shift."""
    base = random_convex_polygon(draw(st.integers(0, 10**6)), draw(st.integers(3, 9)))
    scale = Fraction(draw(st.integers(1, 60)), draw(st.integers(1, 60)))
    sx, sy = draw(rationals), draw(rationals)
    return [Vec(v.x * scale + sx, v.y * scale + sy) for v in base.vertices()]


def _star(vs):
    """The vertices in the order a star over them would visit: every second one."""
    return [vs[(2 * i) % len(vs)] for i in range(len(vs))]


def _broken(vs, kind, j, mode):
    """The convex polygon ``vs`` broken in one way at vertex j."""
    n = len(vs)
    a, b = vs[j], vs[(j + 1) % n]
    mid = Vec((a.x + b.x) / 2, (a.y + b.y) / 2)
    if kind == "reversed":
        return polygon(vs[::-1], mode)
    if kind == "duplicate":
        return polygon(vs[: j + 1] + [a] + vs[j + 1 :], mode)
    if kind == "collinear reversal":
        return polygon(vs[: j + 1] + [b, mid] + vs[j + 1 :], mode)
    if kind == "right turn":
        # the edge midpoint pulled halfway to the next-but-one vertex: inside, so reflex
        c = vs[(j + 2) % n]
        return polygon(vs[: j + 1] + [Vec((mid.x + c.x) / 2, (mid.y + c.y) / 2)] + vs[j + 1 :], mode)
    if kind == "star":
        return polygon(_star(vs), mode)
    if kind == "gap":
        els = polygon(vs, mode).elements
        return ConvexBody(els[:j] + (Segment(a, mid),) + els[j + 1 :], mode)
    raise AssertionError(kind)


@SETTINGS
@hypothesis.given(st.lists(st.tuples(small, small), min_size=2, max_size=8), modes)
def test_random_rational_chains_validate_alike(pts, mode):
    assert_same(polygon(pts, mode))


@SETTINGS
@hypothesis.given(convex_vertices(), modes)
def test_valid_polygons_validate_alike(vs, mode):
    assert assert_same(polygon(vs, mode)) is None


@SETTINGS
@hypothesis.given(
    convex_vertices(),
    st.sampled_from(("reversed", "duplicate", "collinear reversal", "right turn", "star", "gap")),
    st.integers(0, 10**6),
    modes,
)
def test_broken_polygons_are_refused_alike(vs, kind, j, mode):
    assert assert_same(_broken(vs, kind, j % len(vs), mode)) is not None


def test_the_doubly_wound_pentagram_is_refused_alike():
    pentagon = [(3, 0), (Fraction(1, 2), Fraction(7, 3)), (Fraction(-5, 2), Fraction(3, 2)),
                (Fraction(-5, 2), Fraction(-3, 2)), (Fraction(1, 2), Fraction(-7, 3))]
    for mode in (EXACT_POLYGON, MIXED_INEXACT):
        got = assert_same(polygon(_star(pentagon), mode))
        assert got == ("NOT_CONVEX", 0, "boundary does not wind exactly once")


# a multiple of the tolerance, in units small enough to land either side of it
near_tol = st.builds(lambda k, m: DEFAULT_TOLERANCE * Fraction(k, m), st.integers(-40, 40), st.integers(1, 8))


@SETTINGS
@hypothesis.given(convex_vertices(), st.integers(0, 10**6), near_tol, st.sampled_from(("bend", "gap")))
def test_mixed_junctions_within_the_tolerance_validate_alike(vs, j, h, kind):
    n = len(vs)
    j %= n
    a, b = vs[j], vs[(j + 1) % n]
    d = Vec(b.x - a.x, b.y - a.y)
    if kind == "bend":
        # a vertex on the edge's midpoint, pushed h times the edge's normal off it
        p = Vec((a.x + b.x) / 2 - h * d.y, (a.y + b.y) / 2 + h * d.x)
        body = polygon(vs[: j + 1] + [p] + vs[j + 1 :], MIXED_INEXACT)
    else:
        # the edge ends h off the next edge's start
        els = polygon(vs, MIXED_INEXACT).elements
        body = ConvexBody(els[:j] + (Segment(a, Vec(b.x + h, b.y)),) + els[j + 1 :], MIXED_INEXACT)
    assert_same(body)


@pytest.mark.parametrize("build", [example_e1, example_e2])
@pytest.mark.parametrize("n", range(2, 7))
def test_curved_fixtures_validate_alike(build, n):
    assert assert_same(build(n).body) is None


def test_unit_disc_validates_alike():
    assert assert_same(unit_disc()) is None
