"""Convex body representation: validation, boundary addressing, containment."""

import math
import random
from fractions import Fraction

import pytest

from immobilize2d.body import (
    Arc,
    Containment,
    ConvexBody,
    EXACT_POLYGON,
    MIXED_INEXACT,
    Segment,
    boundary_point,
    contains_interior,
    element_length,
    is_full_disc,
    locate,
    offset_along_boundary,
    perimeter,
    polygon,
    tangents_at,
    validate,
)
from immobilize2d.errors import (
    BodyValidationError,
    ImmobilizeError,
    NearDegenerateError,
    NotOnBoundaryError,
    OutOfRangeError,
)
from immobilize2d import body as body_module
from immobilize2d.fixtures import example_e1, example_e2, random_convex_polygon, unit_disc, unit_square
from immobilize2d.geom import over_one_denominator, vec


def test_validate_accepts_square_and_triangle():
    validate(unit_square())
    validate(polygon([(0, 0), (3, 0), (0, 4)]))


def test_validate_rejects_clockwise_winding():
    with pytest.raises(BodyValidationError) as e:
        validate(polygon([(0, 0), (0, 1), (1, 1), (1, 0)]))
    assert e.value.code == "NOT_CCW"


def test_validate_rejects_reflex_vertex():
    with pytest.raises(BodyValidationError) as e:
        validate(polygon([(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)]))
    assert e.value.code == "NOT_CONVEX"


def test_validate_rejects_open_chain():
    square = unit_square()
    broken = ConvexBody(elements=square.elements[:-1], mode=EXACT_POLYGON)
    with pytest.raises(BodyValidationError) as e:
        validate(broken)
    assert e.value.code == "NOT_CLOSED"


def test_validate_rejects_collinear_chain():
    with pytest.raises(BodyValidationError) as e:
        validate(polygon([(0, 0), (1, 0), (2, 0)]))
    assert e.value.code == "NOT_CONVEX"


def test_validate_rejects_zero_length_segment():
    body = ConvexBody(
        elements=(
            Segment(a=vec(0, 0), b=vec(0, 0)),
            Segment(a=vec(0, 0), b=vec(1, 0)),
            Segment(a=vec(1, 0), b=vec(0, 0)),
        ),
        mode=EXACT_POLYGON,
    )
    with pytest.raises(BodyValidationError) as e:
        validate(body)
    assert e.value.code == "EMPTY_INTERIOR"


def test_validate_rejects_single_element():
    body = ConvexBody(elements=(Segment(a=vec(0, 0), b=vec(1, 0)),), mode=EXACT_POLYGON)
    with pytest.raises(BodyValidationError) as e:
        validate(body)
    assert e.value.code == "EMPTY_INTERIOR"


def test_validation_counts_winding_without_floats(monkeypatch):
    def no_float(*_):
        raise AssertionError("math.atan2 called during validation")

    monkeypatch.setattr(math, "atan2", no_float)
    validate(unit_square())
    for seed in range(20):
        validate(random_convex_polygon(seed, 3 + seed % 8))
    # A pentagram over a convex pentagon with rational vertices: every turn
    # is a left turn and the signed area is positive, but it winds twice.
    pentagon = [(3, 0), (Fraction(1, 2), Fraction(7, 3)), (Fraction(-5, 2), Fraction(3, 2)),
                (Fraction(-5, 2), Fraction(-3, 2)), (Fraction(1, 2), Fraction(-7, 3))]
    star = polygon([pentagon[(2 * i) % 5] for i in range(5)])
    with pytest.raises(BodyValidationError) as e:
        validate(star)
    assert e.value.code == "NOT_CONVEX"
    assert "wind" in str(e.value)
    # Every turn of this hexagon is a left turn too, and it winds twice, but
    # its signed area is negative: a chain that does not wind once still has
    # its area summed, and an empty interior is reported first.
    with pytest.raises(BodyValidationError) as e:
        validate(polygon([(-1, -4), (-4, 6), (-4, 5), (1, -4), (5, -2), (-6, -5)]))
    assert e.value.code == "EMPTY_INTERIOR"
    # A clockwise junction within tolerance passes as straight in mixed mode;
    # it turns back over the direction (1, 0), and the winding still counts 1.
    eps = Fraction(1, 10**12)
    validate(polygon([(0, 0), (1, eps), (2, 0), (2, 2), (0, 2)], mode=MIXED_INEXACT))


def test_validate_accepts_disc_in_mixed_mode():
    validate(unit_disc())


def test_boundary_point_wraps_param_one():
    sq = unit_square()
    end = boundary_point(sq, 0, Fraction(1))
    start = boundary_point(sq, 1, Fraction(0))
    assert end == start
    assert end.element_index == 1
    assert end.param == 0


def test_boundary_point_rejects_bad_addresses():
    sq = unit_square()
    with pytest.raises(NotOnBoundaryError):
        boundary_point(sq, 4, Fraction(0))
    with pytest.raises(NotOnBoundaryError):
        boundary_point(sq, 0, Fraction(3, 2))
    with pytest.raises(NotOnBoundaryError):
        boundary_point(sq, 0, Fraction(-1, 4))


def test_boundary_point_coords_interpolate_segments():
    sq = unit_square()
    bp = boundary_point(sq, 0, Fraction(1, 4))
    assert bp.coords == vec(Fraction(-1, 2), -1)


def test_tangents_smooth_versus_corner():
    sq = unit_square()
    mid = boundary_point(sq, 0, Fraction(1, 2))
    t = tangents_at(sq, mid)
    assert t.u_left == t.u_right == vec(2, 0)

    corner = boundary_point(sq, 1, Fraction(0))
    t = tangents_at(sq, corner)
    assert t.u_left == vec(2, 0)
    assert t.u_right == vec(0, 2)


def test_tangents_on_disc_are_smooth():
    disc = unit_disc()
    bp = boundary_point(disc, 1, Fraction(0))
    t = tangents_at(disc, bp)
    assert t.u_left == t.u_right


def test_contains_interior_square():
    sq = unit_square()
    assert contains_interior(sq, vec(0, 0)) is Containment.INTERIOR
    assert contains_interior(sq, vec(1, Fraction(1, 2))) is Containment.BOUNDARY
    assert contains_interior(sq, vec(1, 1)) is Containment.BOUNDARY
    assert contains_interior(sq, vec(2, 0)) is Containment.EXTERIOR
    assert contains_interior(sq, vec(1, Fraction(101, 100))) is Containment.EXTERIOR


def test_contains_interior_disc():
    disc = unit_disc()
    assert contains_interior(disc, vec(0, 0)) is Containment.INTERIOR
    assert contains_interior(disc, vec(2, 2)) is Containment.EXTERIOR
    assert contains_interior(disc, vec(1, 0)) is Containment.BOUNDARY


def test_contains_interior_flags_tolerance_zone():
    disc = unit_disc()
    eps = Fraction(1, 10**12)
    with pytest.raises(NearDegenerateError):
        contains_interior(disc, vec(1 + eps, 0))


def test_locate_recovers_canonical_addresses():
    sq = unit_square()
    corner = locate(sq, vec(1, -1))
    assert (corner.element_index, corner.param) == (1, Fraction(0))
    mid = locate(sq, vec(1, 0))
    assert (mid.element_index, mid.param) == (1, Fraction(1, 2))
    with pytest.raises(NotOnBoundaryError):
        locate(sq, vec(0, 0))


def test_element_length_exact_and_inexact():
    n, exact = element_length(Segment(a=vec(0, 0), b=vec(3, 4)))
    assert exact and n == 5
    n, exact = element_length(Segment(a=vec(0, 0), b=vec(1, 1)))
    assert not exact
    assert abs(float(n) - 2 ** 0.5) < 1e-9


def test_float_steps_past_float_range_raise_out_of_range():
    # The arc area term squares a radius of 10^200 past float range, and at
    # 10^400 the sweep's trig cannot even read the offsets; a segment about
    # 10^200 long has a squared length past float range.
    for e in (200, 400):
        r = 10**e
        quarter = ConvexBody(
            (Segment(vec(0, 0), vec(r, 0)), Arc(vec(0, 0), Fraction(r), vec(r, 0), vec(0, r)), Segment(vec(0, r), vec(0, 0))),
            MIXED_INEXACT,
        )
        with pytest.raises(OutOfRangeError):
            validate(quarter)
    with pytest.raises(OutOfRangeError) as exc:
        element_length(Segment(vec(0, 0), vec(10**200, 10**200 // 3)))
    assert isinstance(exc.value, ImmobilizeError) and exc.value.code == "OUT_OF_RANGE"


def test_perimeter_of_square():
    assert perimeter(unit_square()) == 8


def test_offset_along_boundary_wraps_both_ways():
    sq = unit_square()
    start = boundary_point(sq, 0, Fraction(0))
    assert offset_along_boundary(sq, start, Fraction(1)).coords == vec(0, -1)
    assert offset_along_boundary(sq, start, Fraction(8)) == start
    back = offset_along_boundary(sq, start, Fraction(-1))
    assert back.coords == vec(-1, 0)
    assert offset_along_boundary(sq, start, Fraction(-8)) == start


def test_offset_crosses_corners():
    sq = unit_square()
    start = boundary_point(sq, 0, Fraction(1, 2))
    moved = offset_along_boundary(sq, start, Fraction(5, 2))
    assert moved.coords == vec(1, Fraction(1, 2))


def test_non_finite_params_and_offsets_raise_out_of_range():
    sq = unit_square()
    start = boundary_point(sq, 0, Fraction(0))
    for bad in (float("nan"), float("inf"), "x", None):
        with pytest.raises(OutOfRangeError):
            boundary_point(sq, 0, bad)
        with pytest.raises(OutOfRangeError):
            offset_along_boundary(sq, start, bad)


def test_boolean_params_and_offsets_are_refused():
    # True read as param 1, element 0's far end: element 1's first vertex.
    sq = unit_square()
    start = boundary_point(sq, 0, Fraction(0))
    for bad in (True, False):
        with pytest.raises(OutOfRangeError, match="boolean"):
            boundary_point(sq, 0, bad)
        with pytest.raises(OutOfRangeError, match="boolean"):
            offset_along_boundary(sq, start, bad)


def test_validate_puts_no_two_elements_over_one_denominator(monkeypatch):
    # A shared denominator across the chain grows with every element's;
    # each call may read the coordinates of one element only.
    calls = []

    def spy(*values):
        calls.append(values)
        return over_one_denominator(*values)

    monkeypatch.setattr(body_module, "over_one_denominator", spy)
    bodies = [random_convex_polygon(seed, 3 + seed % 8) for seed in range(10)]
    bodies += [unit_disc(), example_e1(4).body, example_e2(3).body]
    for b in bodies:
        calls.clear()
        validate(b)
        assert calls
        for values in calls:
            assert len(values) <= 4
            assert any(set(values) <= _coordinates(el) for el in b.elements), values


def _coordinates(el):
    if isinstance(el, Segment):
        return {el.a.x, el.a.y, el.b.x, el.b.y}
    return {el.from_dir.x, el.from_dir.y, el.to_dir.x, el.to_dir.y}


def test_is_full_disc():
    ok, center = is_full_disc(unit_disc())
    assert ok and center == vec(0, 0)
    ok, center = is_full_disc(unit_square())
    assert not ok and center is None


def test_bounding_box():
    lo, hi = unit_square().bounding_box()
    assert (lo, hi) == (vec(-1, -1), vec(1, 1))
    lo, hi = unit_disc().bounding_box()
    assert (lo, hi) == (vec(-1, -1), vec(1, 1))


def test_vertices_of_polygon():
    sq = unit_square()
    assert sq.vertices() == [vec(-1, -1), vec(1, -1), vec(1, 1), vec(-1, 1)]


def test_random_bodies_survive_validation():
    rng = random.Random(12)
    for _ in range(25):
        k = rng.randint(3, 8)
        pts = []
        while len(pts) < k:
            # Build a fan of direction-sorted integer steps; polygon() does
            # not sanitise, so retry until the walk is strictly convex.
            raw = [(rng.randint(-7, 7), rng.randint(-7, 7)) for _ in range(k)]
            raw = [p for p in raw if p != (0, 0)]
            raw.sort(key=lambda p: math.atan2(p[1], p[0]))
            pts = []
            x = y = 0
            for dx, dy in raw:
                pts.append((x, y))
                x += dx
                y += dy
            if (x, y) != (0, 0):
                pts = []
                continue
            try:
                validate(polygon(pts))
            except BodyValidationError:
                pts = []
