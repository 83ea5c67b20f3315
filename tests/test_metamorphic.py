"""Mirror race: a body and its contacts reflected in the y axis keep every verdict.

Reflecting x -> -x maps the body's counterclockwise chain to a clockwise one,
so the mirror body lists the reflected vertices in reverse order, and each
contact is found on it by ``locate`` at its reflected coordinates.  Left and
right trade places: a rotation center whose clockwise turns the contacts do
not block becomes, reflected, one whose counterclockwise turns they do not
block.  So, for both questions,

* the verdict's status is the same;
* ``openL`` has the status ``openR`` has on the other side, and ``closedL``
  the status of ``closedR``;
* ``directions`` keeps its status;
* when exactly one open test is nonempty, the witness's sense flips, and the
  mirror witness, reflected back, lies in every open sector of the side that
  was nonempty.  (When both are nonempty, each verdict takes ``openL``.)

These follow from the paper's definitions, not from this code, so a fault
confined to one side or one sense of the contact rows fails them.  The draws
are ``test_fuzz_corners.py``'s corner-rich draws on the fuzz's random
polygons and its sliding rectangles, so every status is reached.
"""

import random
from collections import Counter
from fractions import Fraction

from immobilize2d.body import boundary_point, locate, polygon, tangents_at
from immobilize2d.classify import CCW, CW, INDETERMINATE, NOT_ALMOST_FIX, NOT_WEAKLY_FIX, POSITIVE, classify_both
from immobilize2d.errors import DegenerateError
from immobilize2d.fixtures import random_convex_polygon
from immobilize2d.geom import Vec
from immobilize2d.sectors import contact_rows, sector_contains, sector_of
from test_fuzz_corners import MAX_POINTS, corner_points, rectangle, sliding_points

POLYGON_DRAWS = 240
RECTANGLE_DRAWS = 40

MIRROR_TEST = {"openL": "openR", "openR": "openL", "closedL": "closedR", "closedR": "closedL", "directions": "directions"}
OPEN_KINDS = {"FIX": ("L", "R"), "ALMOST_FIX": ("small_l", "small_r")}


def mirror(v: Vec) -> Vec:
    return Vec(-v.x, v.y)


def mirrored(body, pts):
    twin = polygon([mirror(v) for v in reversed(body.vertices())])
    return twin, [locate(twin, mirror(bp.coords)) for bp in pts]


def draws():
    rng = random.Random(7)
    for index in range(POLYGON_DRAWS):
        try:
            body = random_convex_polygon(7_000_003 + index * 101, rng.randint(4, 10))
        except DegenerateError:
            continue
        yield body, corner_points(body, rng, MAX_POINTS)
    for seed in range(RECTANGLE_DRAWS):
        body = rectangle(seed, 4)
        yield body, sliding_points(body, rng, MAX_POINTS)


def test_mirror_images_swap_left_and_right():
    statuses = Counter()
    flips = 0
    for body, pts in draws():
        twin, twin_pts = mirrored(body, pts)
        for verdict, image in zip(classify_both(body, pts), classify_both(twin, twin_pts)):
            statuses[verdict.status] += 1
            assert image.status == verdict.status, (pts, verdict, image)
            for test in verdict.tests:
                assert image.test(MIRROR_TEST[test.name]).status == test.status, (test.name, pts)
            open_l, open_r = verdict.test("openL").nonempty, verdict.test("openR").nonempty
            if open_l == open_r:
                continue
            flips += 1
            assert (verdict.witness.sense, image.witness.sense) == ((CW, CCW) if open_l else (CCW, CW))
            kind = OPEN_KINDS[verdict.question][0 if open_l else 1]
            back = mirror(image.witness.point)
            for bp in pts:
                sector = sector_of(contact_rows(bp.coords, tangents_at(body, bp)), kind, False)
                assert sector_contains(sector, back) == "IN", (bp, back)
    assert all(statuses[s] >= 10 for s in (POSITIVE, NOT_WEAKLY_FIX, NOT_ALMOST_FIX, INDETERMINATE)), statuses
    assert flips >= 10, flips


def test_mirror_contacts_are_the_reflected_addresses():
    body = polygon([(0, 0), (4, 0), (4, 3), (0, 3)])
    pts = [boundary_point(body, 0, 0), boundary_point(body, 1, 0), boundary_point(body, 0, Fraction(1, 4))]
    twin, twin_pts = mirrored(body, pts)
    assert twin.vertices() == [Vec(0, 3), Vec(-4, 3), Vec(-4, 0), Vec(0, 0)]
    # (0, 0) starts the mirror's last edge, (4, 0) its third, and (1, 0) lies 3/4 along that third edge
    assert [(bp.element_index, bp.param) for bp in twin_pts] == [(3, 0), (2, 0), (2, Fraction(3, 4))]
