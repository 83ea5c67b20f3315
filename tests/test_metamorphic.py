"""Metamorphic races: mirror images, added and permuted contacts, and the tolerance.

Mirror.  A body and its contacts reflected in the y axis keep every verdict.

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

Tolerance.  The tolerance twin only flags: every test keeps its status at
each tolerance from 0 to 1/2, and a test flagged near degenerate stays
flagged as the tolerance grows, since relaxing a system only adds points and
tightening it only removes them.

Added contacts.  With the statuses ordered NOT_* < INDETERMINATE < POSITIVE,
adding a distinct contact adds a sector to every system, so neither
question's status goes down.

Permutation.  Reordering the contacts keeps every test's status.  The
witness may change: ``first_branch`` picks the first nonempty branch in the
product order of the sectors, which the contacts' order sets.

These follow from the paper's definitions, not from this code, so a fault
confined to one side or one sense of the contact rows, or to one twin, fails
them.  The draws are ``test_fuzz_corners.py``'s corner-rich draws on the
fuzz's random polygons and its sliding rectangles, so every status is
reached; the tolerance, added-contact and permutation races run on
``example_e1``'s and ``example_e2``'s arcs too, where the twins flag.
"""

import functools
import random
from collections import Counter
from fractions import Fraction

from immobilize2d.body import boundary_point, locate, polygon, tangents_at
from immobilize2d.classify import CCW, CW, INDETERMINATE, NOT_ALMOST_FIX, NOT_WEAKLY_FIX, POSITIVE, classify_both
from immobilize2d.errors import DegenerateError
from immobilize2d.fixtures import example_e1, example_e2, random_convex_polygon
from immobilize2d.geom import Vec
from immobilize2d.sectors import contact_rows, sector_contains, sector_of
from test_fuzz_corners import MAX_POINTS, corner_points, rectangle, sliding_points

POLYGON_DRAWS = 240
RECTANGLE_DRAWS = 40

TOLERANCES = (Fraction(0), Fraction(1, 10**9), Fraction(1, 10**6), Fraction(1, 10**3), Fraction(1, 10), Fraction(1, 2))
RANK = {NOT_WEAKLY_FIX: 0, NOT_ALMOST_FIX: 0, INDETERMINATE: 1, POSITIVE: 2}
EVERY_STATUS = {"FIX": {NOT_WEAKLY_FIX, INDETERMINATE, POSITIVE}, "ALMOST_FIX": {NOT_ALMOST_FIX, INDETERMINATE, POSITIVE}}

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


def fixture_draws():
    """``example_e1``'s and ``example_e2``'s bodies, arcs at a positive tolerance, with their own contacts."""
    for fx in [example_e1(n) for n in range(2, 6)] + [example_e2(n) for n in range(2, 5)]:
        yield fx.body, list(fx.points)


@functools.lru_cache(maxsize=None)
def drawn_verdicts():
    """Every draw with its verdicts at the body's own tolerance, classified once for the races below."""
    return [(body, pts, classify_both(body, pts)) for body, pts in list(draws()) + list(fixture_draws())]


def reached(verdicts):
    """The statuses reached per question, checked against ``EVERY_STATUS``."""
    seen = {question: set() for question in EVERY_STATUS}
    for verdict in verdicts:
        seen[verdict.question].add(verdict.status)
    assert seen == EVERY_STATUS, seen


def statuses(verdicts):
    return [(v.question, v.status, tuple(t.status for t in v.tests)) for v in verdicts]


def test_the_tolerance_only_flags():
    checked, flagged = [], 0
    for body, pts, _ in drawn_verdicts():
        runs = [classify_both(body, pts, tol) for tol in TOLERANCES]
        for verdicts in runs[1:]:
            assert statuses(verdicts) == statuses(runs[0]), (pts, verdicts, runs[0])
        for lower, higher in zip(runs, runs[1:]):
            for low, high in zip(lower, higher):
                assert high.near_degenerate or not low.near_degenerate, (pts, low, high)
                for a, b in zip(low.tests, high.tests):
                    assert b.near_degenerate or not a.near_degenerate, (pts, a.name, low, high)
        checked += runs[0]
        flagged += sum(v.near_degenerate for verdicts in runs for v in verdicts)
    reached(checked)
    assert flagged >= 100, flagged


def test_an_added_contact_never_lowers_a_status():
    rng = random.Random(16)
    checked, raised = [], 0
    for body, pts, verdicts in drawn_verdicts():
        taken = {(bp.element_index, bp.param) for bp in pts}
        coords = {bp.coords for bp in pts}
        while True:
            param = Fraction(0) if rng.random() < 0.25 else Fraction(rng.randint(1, 2047), 2048)
            extra = boundary_point(body, rng.randrange(len(body.elements)), param)
            if (extra.element_index, extra.param) not in taken and extra.coords not in coords:
                break
        more = pts[:]
        more.insert(rng.randint(0, len(pts)), extra)
        for before, after in zip(verdicts, classify_both(body, more)):
            assert RANK[after.status] >= RANK[before.status], (pts, extra, before, after)
            raised += RANK[after.status] > RANK[before.status]
        checked += verdicts
    reached(checked)
    assert raised >= 10, raised


def test_permuting_the_contacts_keeps_every_test_status():
    rng = random.Random(17)
    checked, moved_witness = [], 0
    for body, pts, verdicts in drawn_verdicts():
        shuffled = pts[:]
        rng.shuffle(shuffled)
        permuted = classify_both(body, shuffled)
        assert statuses(permuted) == statuses(verdicts), (pts, shuffled)
        # Witnesses are not compared: first_branch picks in the product order the contacts' order sets.
        moved_witness += sum(a.witness != b.witness for a, b in zip(verdicts, permuted))
        checked += verdicts
    reached(checked)
    assert moved_witness, "no permutation changed a witness: the races would not tell order from content"
