"""Contact sectors and circular direction sets."""

import math
import random
from fractions import Fraction

import pytest

import arc_reference
from containment_reference import reference_rotation
from immobilize2d.body import TangentData, boundary_point, tangents_at
from immobilize2d.errors import NearDegenerateError, OutOfRangeError
from immobilize2d.fixtures import unit_square
from immobilize2d.geom import LinearConstraint, Vec, cross, dot, vec
from immobilize2d.sectors import (
    SECTOR_KINDS,
    CircArc,
    _rotate_dir,
    arc_contains,
    direction_set,
    first_common_direction,
    grow_arc,
    make_sector,
    sector_contains,
    shrink_arc,
)


def corner_tangents():
    """Tangent data of the square's lower-right corner: edge in, edge out."""
    return vec(1, -1), TangentData(u_left=vec(2, 0), u_right=vec(0, 2))


def rand_dir(rng):
    c, s = reference_rotation(Fraction(rng.randint(-400, 400), 101))
    if rng.random() < 0.5:
        return Vec(-c, -s)
    return Vec(c, s)


def test_large_sector_is_union_of_open_halfplanes():
    apex, t = corner_tangents()
    left = make_sector("L", closed=False, apex=apex, t=t)
    # At the square's lower-right corner the open large left sector is the
    # complement of the closed cone spanned by the rays (1, 0) and (0, 1).
    assert sector_contains(left, apex + vec(0, -1)) == "IN"
    assert sector_contains(left, apex + vec(-1, 0)) == "IN"
    assert sector_contains(left, apex + vec(-1, -1)) == "IN"
    assert sector_contains(left, apex + vec(1, -1)) == "IN"
    assert sector_contains(left, apex + vec(-1, 1)) == "IN"
    assert sector_contains(left, apex + vec(1, -1).scaled(Fraction(1, 7))) == "IN"
    assert sector_contains(left, apex + vec(1, 0)) == "OUT"
    assert sector_contains(left, apex + vec(0, 1)) == "OUT"
    assert sector_contains(left, apex + vec(2, 2)) == "OUT"
    closed_left = make_sector("L", closed=True, apex=apex, t=t)
    assert sector_contains(closed_left, apex + vec(1, 0)) == "ON_BOUNDARY"
    assert sector_contains(closed_left, apex + vec(0, 1)) == "ON_BOUNDARY"
    assert sector_contains(closed_left, apex + vec(2, 2)) == "OUT"


@pytest.mark.parametrize("tol", [Fraction(-1), -0.5, float("nan"), "abc", True])
def test_sector_membership_refuses_a_negative_or_non_numeric_tolerance(tol):
    # A negative tol read a closed sector's rim as IN, nan passed silently and
    # a string met a bare TypeError; the tolerance is read as classify reads it.
    apex, t = corner_tangents()
    closed_left = make_sector("L", closed=True, apex=apex, t=t)
    rim = apex + vec(1, 0)
    with pytest.raises(OutOfRangeError):
        sector_contains(closed_left, rim, tol)
    assert sector_contains(closed_left, rim) == sector_contains(closed_left, rim, "0") == "ON_BOUNDARY"
    assert sector_contains(closed_left, apex + vec(-1, -1), "1/100") == "IN"


def test_sector_membership_decides_a_float_point_at_its_exact_value():
    # The row is 10 x >= 3; the float 0.3 lies a little below 3/10, so it is
    # OUT, although 10 * 0.3 - 3 rounds to 0.0 in float arithmetic.
    t = TangentData(u_left=vec(1, 0), u_right=vec(1, 0))
    s = make_sector("small_r", closed=True, apex=vec(Fraction(3, 10), 0), t=t)
    assert sector_contains(s, Vec(0.3, 0.0)) == "OUT"
    assert sector_contains(s, Vec(Fraction(3, 10), 0.0)) == "ON_BOUNDARY"
    assert sector_contains(s, Vec(0.30000000000000004, 0.0)) == "IN"
    with pytest.raises(OutOfRangeError):
        sector_contains(s, Vec(float("nan"), 0.0))
    # the row alone and the direction arc decide the same floats exactly: the ray
    # (1.0, 0.3) is not (10, 3)'s, though 10 * 0.3 - 3 is 0.0 in floats
    assert LinearConstraint(10, 0, 3).holds(Vec(0.3, 0.0)) is False
    assert LinearConstraint(10, 0, 3).margin(Vec(0.3, 0.0)) == 10 * Fraction(0.3) - 3 < 0
    assert arc_contains(CircArc(Vec(10, 3), Vec(10, 3)), Vec(1.0, 0.3)) is False
    assert arc_contains(CircArc(Vec(10, 3), Vec(10, 3)), Vec(1.0, Fraction(3, 10))) is True


def test_small_sector_is_intersection():
    apex, t = corner_tangents()
    small = make_sector("small_l", closed=False, apex=apex, t=t)
    # The open small left sector here is the open third-quadrant cone.
    assert sector_contains(small, apex + vec(-1, -1)) == "IN"
    assert sector_contains(small, apex + vec(-2, -1)) == "IN"
    assert sector_contains(small, apex + vec(-1, 0)) == "OUT"
    assert sector_contains(small, apex + vec(0, -1)) == "OUT"
    assert sector_contains(small, apex + vec(1, 1)) == "OUT"
    closed_small = make_sector("small_l", closed=True, apex=apex, t=t)
    assert sector_contains(closed_small, apex + vec(-1, 0)) == "ON_BOUNDARY"
    assert sector_contains(closed_small, apex + vec(0, -1)) == "ON_BOUNDARY"
    assert sector_contains(closed_small, apex + vec(1, 1)) == "OUT"


def test_closed_sectors_include_their_rim():
    apex, t = corner_tangents()
    for kind in SECTOR_KINDS:
        open_s = make_sector(kind, closed=False, apex=apex, t=t)
        closed_s = make_sector(kind, closed=True, apex=apex, t=t)
        rng = random.Random(hash(kind) % 1000)
        for _ in range(60):
            p = apex + Vec(Fraction(rng.randint(-9, 9), 4), Fraction(rng.randint(-9, 9), 4))
            o = sector_contains(open_s, p)
            c = sector_contains(closed_s, p)
            if o == "IN":
                assert c == "IN"
            if o == "ON_BOUNDARY":
                assert c in ("IN", "ON_BOUNDARY")
            if c == "OUT":
                assert o == "OUT"


def test_complement_identities_between_small_and_large():
    """The open small right sector is the complement of the closed large left one."""
    rng = random.Random(77)
    sq = unit_square()
    addresses = [(0, Fraction(1, 3)), (1, Fraction(0)), (2, Fraction(2, 3)), (3, Fraction(0))]
    for idx, param in addresses:
        bp = boundary_point(sq, idx, param)
        t = tangents_at(sq, bp)
        apex = bp.coords
        small_r = make_sector("small_r", closed=False, apex=apex, t=t)
        big_l = make_sector("L", closed=True, apex=apex, t=t)
        small_l = make_sector("small_l", closed=False, apex=apex, t=t)
        big_r = make_sector("R", closed=True, apex=apex, t=t)
        for _ in range(200):
            p = apex + Vec(Fraction(rng.randint(-40, 40), 16), Fraction(rng.randint(-40, 40), 16))
            assert (sector_contains(small_r, p) == "IN") == (sector_contains(big_l, p) == "OUT")
            assert (sector_contains(small_l, p) == "IN") == (sector_contains(big_r, p) == "OUT")


def test_sectors_are_cones():
    apex, t = corner_tangents()
    rng = random.Random(13)
    for kind in SECTOR_KINDS:
        s = make_sector(kind, closed=True, apex=apex, t=t)
        for _ in range(80):
            d = Vec(Fraction(rng.randint(-8, 8), 3), Fraction(rng.randint(-8, 8), 3))
            if d.is_zero():
                continue
            base = sector_contains(s, apex + d)
            for scale in (Fraction(1, 2), Fraction(2), Fraction(5)):
                assert sector_contains(s, apex + d.scaled(scale)) == base


def test_smooth_contact_collapses_large_onto_small():
    sq = unit_square()
    bp = boundary_point(sq, 2, Fraction(1, 2))
    t = tangents_at(sq, bp)
    apex = bp.coords
    rng = random.Random(3)
    for closed in (False, True):
        big = make_sector("L", closed=closed, apex=apex, t=t)
        small = make_sector("small_l", closed=closed, apex=apex, t=t)
        for _ in range(120):
            p = apex + Vec(Fraction(rng.randint(-9, 9), 5), Fraction(rng.randint(-9, 9), 5))
            assert sector_contains(big, p) == sector_contains(small, p)


def test_tolerance_snaps_only_near_rim_margins():
    """With tol > 0 a margin within tol * |n|_1 * |p - apex|_1 of zero, but not
    zero, raises NearDegenerateError whose guess is the verdict on the rim
    itself; rim points, the apex and clear points get the tol = 0 verdict."""
    tol = Fraction(1, 1000)
    corner_apex, corner_t = corner_tangents()
    contacts = [
        # corner at (1, -1): rims x = 1 and y = -1
        (corner_apex, corner_t, (vec(0, 1), vec(1, 0))),
        # smooth contact with normals of unequal length: one rim, x = 1/2
        (vec(Fraction(1, 2), 0), TangentData(u_left=vec(2, 0), u_right=vec(1, 0)), (vec(0, 1),)),
    ]
    guesses = set()
    for apex, t, rims in contacts:
        for kind in SECTOR_KINDS:
            for closed in (False, True):
                s = make_sector(kind, closed, apex, t)
                assert sector_contains(s, apex, tol) == sector_contains(s, apex)
                for along in rims:
                    across = Vec(along.y, -along.x)
                    for k in (-1, 1):
                        q = apex + along.scaled(k)
                        on_rim = sector_contains(s, q)
                        assert sector_contains(s, q, tol) == on_rim
                        for side in (-1, 1):
                            for offset in (Fraction(side, 10**6), Fraction(side, 10**4)):
                                with pytest.raises(NearDegenerateError) as err:
                                    sector_contains(s, q + across.scaled(offset), tol)
                                assert err.value.guess == on_rim, (kind, closed, q, offset)
                            guesses.add(on_rim)
                            # The snap shrinks with |p - apex|_1: 1/10^4 off the rim is
                            # clear 1/100 from the apex, and 1/100 off is clear anywhere here.
                            for p in (apex + along.scaled(Fraction(k, 100)) + across.scaled(Fraction(side, 10**4)),
                                      q + across.scaled(Fraction(side, 100))):
                                assert sector_contains(s, p, tol) == sector_contains(s, p), (kind, closed, p)
                for i in range(-8, 9):
                    for j in range(-8, 9):
                        p = apex + Vec(Fraction(i, 4), Fraction(j, 4))
                        assert sector_contains(s, p, tol) == sector_contains(s, p), (kind, closed, p)
    assert guesses == {"IN", "ON_BOUNDARY", "OUT"}


def test_arc_contains_point_arc():
    a = CircArc(start=vec(1, 0), end=vec(3, 0))
    assert a.is_point()
    assert arc_contains(a, vec(5, 0))
    assert not arc_contains(a, vec(-1, 0))
    assert not arc_contains(a, vec(1, 1))


def test_arc_contains_half_turn():
    a = CircArc(start=vec(1, 0), end=vec(-1, 0))
    assert arc_contains(a, vec(0, 1))
    assert arc_contains(a, vec(1, 0))
    assert arc_contains(a, vec(-1, 0))
    assert not arc_contains(a, vec(0, -1))
    assert not arc_contains(a, vec(1, -1))


def test_arc_contains_wide_arc():
    # CCW from (0,1) to (1,0) sweeps three quarters of the circle; only the
    # open first-quadrant cone is missing.
    a = CircArc(start=vec(0, 1), end=vec(1, 0))
    assert arc_contains(a, vec(-1, 0))
    assert arc_contains(a, vec(0, -1))
    assert arc_contains(a, vec(0, 1))
    assert arc_contains(a, vec(1, 0))
    assert arc_contains(a, vec(1, -5))
    assert not arc_contains(a, vec(1, 1))
    assert not arc_contains(a, Vec(Fraction(1), Fraction(1, 2)))


def test_direction_sets_match_sector_membership():
    """d is in the direction set of a kind iff apex + d lies in the closed sector."""
    sq = unit_square()
    rng = random.Random(29)
    addresses = [(0, Fraction(0)), (0, Fraction(1, 2)), (1, Fraction(0)), (3, Fraction(1, 4))]
    for idx, param in addresses:
        bp = boundary_point(sq, idx, param)
        t = tangents_at(sq, bp)
        apex = bp.coords
        for kind in SECTOR_KINDS:
            ds = direction_set(kind, apex, t)
            closed = make_sector(kind, closed=True, apex=apex, t=t)
            for _ in range(100):
                d = Vec(Fraction(rng.randint(-12, 12), 7), Fraction(rng.randint(-12, 12), 7))
                if d.is_zero():
                    continue
                inside = sector_contains(closed, apex + d) != "OUT"
                assert arc_contains(ds, d) == inside


def test_direction_set_of_smooth_contact_is_half_turn():
    # Midpoint of the square's bottom edge: inward normal points north, and
    # the left direction set is the closed west half-turn.
    sq = unit_square()
    bp = boundary_point(sq, 0, Fraction(1, 2))
    t = tangents_at(sq, bp)
    arc = direction_set("L", bp.coords, t)
    assert arc_contains(arc, vec(0, 1))
    assert arc_contains(arc, vec(0, -1))
    assert arc_contains(arc, vec(-1, 0))
    assert not arc_contains(arc, vec(1, 0))
    right = direction_set("R", bp.coords, t)
    assert arc_contains(right, vec(1, 0))
    assert not arc_contains(right, vec(-1, 0))


def _pseudo_angle(d):
    """Exact stand-in for the CCW angle of d in [0, 4): monotone in the angle."""
    x = d.x / (abs(d.x) + abs(d.y))
    return 1 - x if d.y >= 0 else 3 + x


def _ccw_from(u, d):
    return (_pseudo_angle(d) - _pseudo_angle(u)) % 4


NET = [vec(x, y) for x in range(-12, 13) for y in range(-12, 13) if math.gcd(x, y) == 1]


def rand_direction_set(rng):
    r = rng.random()
    if r < 0.5:
        t = TangentData(u_left=rand_dir(rng), u_right=rand_dir(rng))
        return direction_set(rng.choice(SECTOR_KINDS), vec(0, 0), t)
    if r < 0.6:
        a = rand_dir(rng)
        return CircArc(start=a, end=a.scaled(Fraction(rng.randint(1, 4), 3)))
    if r < 0.8:
        # endpoints from the net, so common directions often start on a net ray
        a, b = rng.choice(NET), rng.choice(NET)
        return CircArc(start=a, end=b)
    return CircArc(start=rand_dir(rng), end=rand_dir(rng))


def test_first_common_direction_against_a_sampled_net():
    rng = random.Random(41)
    outcomes = set()
    for _ in range(400):
        sets = [rand_direction_set(rng) for _ in range(rng.randint(1, 4))]
        got = first_common_direction(sets)
        common = [d for d in NET if all(arc_contains(a, d) for a in sets)]
        outcomes.add((got is None, bool(common)))
        if got is None:
            assert not common, (sets, common[:3])
            continue
        assert all(arc_contains(a, got) for a in sets), (sets, got)
        u = sets[0].start
        assert all(_ccw_from(u, d) >= _ccw_from(u, got) for d in common), (sets, got)
    assert outcomes >= {(True, False), (False, True), (False, False)}


def test_first_common_direction_edge_cases():
    # None stands for an arc a tolerance twin shrank away.
    a = CircArc(start=vec(1, 0), end=vec(0, 1))
    assert first_common_direction([]) == vec(1, 0)
    assert first_common_direction([a]) == a.start
    assert first_common_direction([a, a]) == a.start
    assert first_common_direction([None]) is None
    assert first_common_direction([a, None]) is None
    assert first_common_direction([None, a]) is None


def test_two_wide_arcs_intersect_in_two_pieces():
    # Each arc sweeps 270 degrees; the overlap is a piece from SE to NE around
    # east plus a piece from NW to SW around west.
    a = CircArc(start=vec(1, -1), end=vec(-1, -1))
    b = CircArc(start=vec(-1, 1), end=vec(1, 1))
    assert first_common_direction([a, b]) == vec(1, -1)
    assert first_common_direction([b, a]) == vec(-1, 1)
    # A third arc, anchored at north or south, that leaves out its own start:
    # the common piece met first counterclockwise from that start wins.
    north_to_se = CircArc(start=vec(0, 1), end=vec(1, -1))
    south_to_nw = CircArc(start=vec(0, -1), end=vec(-1, 1))
    assert first_common_direction([north_to_se, a, b]) == vec(-1, 1)
    assert first_common_direction([south_to_nw, a, b]) == vec(1, -1)


def test_shrink_arc_nests_and_empties():
    arc = CircArc(start=vec(1, 0), end=vec(0, 1))
    t = Fraction(1, 100)
    smaller = shrink_arc(arc, t)
    assert smaller is not None
    assert arc_contains(arc, smaller.start)
    assert arc_contains(arc, smaller.end)
    assert not arc_contains(smaller, vec(1, 0))
    assert not arc_contains(smaller, vec(0, 1))
    assert arc_contains(smaller, vec(1, 1))
    # Shrinking by more than the half-width leaves nothing.
    assert shrink_arc(arc, Fraction(2)) is None


def test_grow_arc_caps_at_full_turn():
    arc = CircArc(start=vec(1, 0), end=vec(0, 1))
    bigger = grow_arc(arc, Fraction(1, 100))
    assert arc_contains(bigger, vec(1, 0))
    assert arc_contains(bigger, vec(0, 1))
    assert arc_contains(bigger, Vec(Fraction(1), Fraction(-1, 100)))
    assert not arc_contains(bigger, vec(1, -1))
    # Growing past a full turn is refused: the arc comes back unchanged.
    wide = CircArc(start=vec(0, 1), end=vec(1, 0))
    assert grow_arc(wide, Fraction(10)) == wide


def test_shrink_then_grow_stays_inside_original():
    rng = random.Random(53)
    t = Fraction(1, 50)
    for _ in range(60):
        arc = CircArc(start=rand_dir(rng), end=rand_dir(rng))
        smaller = shrink_arc(arc, t)
        if smaller is None:
            continue
        back = grow_arc(smaller, t)
        for probe in (back.start, back.end, smaller.start, smaller.end):
            assert arc_contains(arc, probe)


def test_perturbed_arcs_nest_at_twice_the_turn():
    # Shrinking and growing turn each end by the angle of t, so an arc empties
    # once its sweep is twice that angle and grows to a full turn once it is
    # twice that angle short of one.  Sweeps just on either side of those two
    # points must still give a shrunk arc inside and a grown arc around.
    rng = random.Random(71)
    for _ in range(200):
        t = Fraction(rng.randint(1, 60), 100)
        c, s = reference_rotation(t * Fraction(rng.randint(95, 105), 100))
        a = rand_dir(rng)
        b = Vec(c * a.x - s * a.y, s * a.x + c * a.y)
        b = Vec(c * b.x - s * b.y, s * b.x + c * b.y)
        for arc in (CircArc(start=a, end=b), CircArc(start=b, end=a)):
            smaller = shrink_arc(arc, t)
            if smaller is not None:
                assert arc_contains(arc, smaller.start) and arc_contains(arc, smaller.end)
                assert not arc_contains(smaller, arc.start) and not arc_contains(smaller, arc.end)
            bigger = grow_arc(arc, t)
            assert arc_contains(bigger, arc.start) and arc_contains(bigger, arc.end)
            assert bigger == arc or not (arc_contains(arc, bigger.start) or arc_contains(arc, bigger.end))


def test_turned_rays_are_positive_integer_multiples_of_the_fraction_rays():
    rng = random.Random(8008)
    for _ in range(300):
        t = Fraction(rng.randint(1, 400), rng.choice([7, 100, 10**9]))
        d = rand_dir(rng) if rng.random() < 0.5 else Vec(rng.randint(-9, 9), rng.randint(-9, 9) or 1)
        for ccw in (True, False):
            ray, ref = _rotate_dir(d, t, ccw), arc_reference.rotate_dir(d, t, ccw)
            assert type(ray.x) is int and type(ray.y) is int, ray
            assert cross(ray, ref) == 0 and dot(ray, ref) > 0, (d, t, ccw)
