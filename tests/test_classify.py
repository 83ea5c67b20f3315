"""First-order fixing and almost-fixing verdicts, and refinement."""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from containment_reference import reference_rotate, reference_rotation
from immobilize2d import classify, feasibility
from immobilize2d.body import BoundaryPoint, boundary_point, offset_along_boundary, polygon
from immobilize2d.classify import (
    CCW,
    CW,
    INDETERMINATE,
    NOT_ALMOST_FIX,
    NOT_WEAKLY_FIX,
    POSITIVE,
    TEST_NAMES,
    classify_almost_fix,
    classify_fix,
    refine_almost_to_fix,
)
from immobilize2d.errors import (
    InvalidPointError,
    NotAlmostPositiveError,
    OutOfRangeError,
    RefinementExhaustedError,
)
from immobilize2d.fixtures import (
    random_convex_polygon,
    rectangle_remark,
    regular_polygon,
    unit_square,
)
from immobilize2d.geom import vec


def square_opposite_corners():
    sq = unit_square()
    return sq, [boundary_point(sq, 0, Fraction(0)), boundary_point(sq, 2, Fraction(0))]


def square_edge_midpoints():
    sq = unit_square()
    return sq, [boundary_point(sq, i, Fraction(1, 2)) for i in range(4)]


def random_contact_points(body, rng, count):
    pts = []
    seen = set()
    while len(pts) < count:
        idx = rng.randrange(len(body.elements))
        param = Fraction(rng.randint(0, 2047), 2048)
        if (idx, param) in seen:
            continue
        seen.add((idx, param))
        pts.append(boundary_point(body, idx, param))
    return pts


def test_three_point_rectangle_contact_is_indeterminate():
    fx = rectangle_remark()
    v = classify_fix(fx.body, fx.points)
    assert v.status == INDETERMINATE
    for name in ("openL", "openR", "closedL", "closedR"):
        assert v.test(name).status == "EMPTY"
    d = v.test("directions")
    assert d.status == "NONEMPTY"
    assert d.witness in (vec(0, 1), vec(0, -1))
    assert v.witness.kind == "direction"
    # The limiting escape is the horizontal translation a quarter turn CCW
    # from the reported far-center direction.
    assert v.witness.translation in (vec(1, 0), vec(-1, 0))


def test_opposite_corners_fail_fix_but_almost_fix():
    sq, oc = square_opposite_corners()
    v = classify_fix(sq, oc)
    assert v.status == NOT_WEAKLY_FIX
    assert v.test("openL").status == "NONEMPTY"
    assert v.test("openL").witness == vec(0, 0)
    assert v.witness.kind == "rotation_center"
    assert v.witness.point == vec(0, 0)
    assert v.witness.sense == CW

    a = classify_almost_fix(sq, oc)
    assert a.status == POSITIVE
    assert a.witness is None
    assert all(a.test(n).status == "EMPTY" for n in TEST_NAMES)


def test_edge_midpoints_are_indeterminate_with_center_witness():
    sq, mids = square_edge_midpoints()
    v = classify_fix(sq, mids)
    assert v.status == INDETERMINATE
    assert v.test("openL").status == "EMPTY"
    assert v.test("openR").status == "EMPTY"
    assert v.test("closedL").status == "NONEMPTY"
    assert v.test("closedL").witness == vec(0, 0)
    assert v.witness.kind == "rotation_center"
    assert v.witness.point == vec(0, 0)

    a = classify_almost_fix(sq, mids)
    assert a.status == INDETERMINATE
    assert a.witness.point == vec(0, 0)


def test_almost_fix_at_smooth_contacts_solves_one_row_per_contact(monkeypatch):
    # At a smooth contact both tangents bound one half-plane, so each small
    # sector is that one row, not the row twice.
    rows = []
    solve = feasibility._feasible_exact

    def counting(constraints):
        rows.append(len(constraints))
        return solve(constraints)

    monkeypatch.setattr(feasibility, "_feasible_exact", counting)
    pentagon = regular_polygon(5, 3)
    for body, pts in (square_edge_midpoints(), (pentagon, [boundary_point(pentagon, i, Fraction(1, 3)) for i in range(5)])):
        rows.clear()
        classify_almost_fix(body, pts)
        assert rows and set(rows) == {len(pts)}


def test_both_questions_at_smooth_contacts_solve_only_what_fix_alone_solves(monkeypatch):
    # At smooth contacts ALMOST_FIX poses exactly FIX's systems, and classify_both
    # solves each distinct one once; at corners its systems differ and are solved too.
    calls = []
    solve = classify.sectors_intersection
    monkeypatch.setattr(classify, "sectors_intersection", lambda sectors, tol: calls.append(1) or solve(sectors, tol))
    pentagon, irregular = regular_polygon(5, 3), random_convex_polygon(0, 5)
    smooth = [
        square_edge_midpoints(),
        (pentagon, [boundary_point(pentagon, i, Fraction(1, 3)) for i in range(5)]),
        (irregular, [boundary_point(irregular, i, Fraction(1, 3)) for i in range(5)]),
    ]
    statuses = set()
    for (body, pts), tol in itertools.product(smooth, (None, Fraction(1, 100))):
        calls.clear()
        fix = classify_fix(body, pts, tol)
        alone = len(calls)
        calls.clear()
        assert classify.classify_both(body, pts, tol)[0] == fix
        assert len(calls) == alone > 0, (body, pts, tol)
        statuses.add(fix.status)
    assert statuses == {INDETERMINATE, NOT_WEAKLY_FIX, POSITIVE}, statuses
    sq, oc = square_opposite_corners()
    calls.clear()
    classify_fix(sq, oc)
    alone = len(calls)
    calls.clear()
    classify.classify_both(sq, oc)
    assert len(calls) > alone


def test_almost_fix_at_forty_edge_midpoints_is_positive():
    # 40 smooth contacts pose 40-row systems for both questions, under the row cap.
    body = regular_polygon(40, 5)
    mids = [boundary_point(body, i, Fraction(1, 2)) for i in range(40)]
    assert classify_fix(body, mids).status == POSITIVE
    assert classify_almost_fix(body, mids).status == POSITIVE


def test_verdict_carries_question_and_mode():
    sq, oc = square_opposite_corners()
    v = classify_fix(sq, oc)
    assert v.question == "FIX"
    a = classify_almost_fix(sq, oc)
    assert a.question == "ALMOST_FIX"
    assert not v.near_degenerate


def test_negative_tolerance_is_refused():
    sq, oc = square_opposite_corners()
    for ask in (classify_fix, classify_almost_fix):
        with pytest.raises(OutOfRangeError):
            ask(sq, oc, tol=Fraction(-1, 10))
    assert classify_fix(sq, oc, tol=Fraction(0)).status == NOT_WEAKLY_FIX


@pytest.mark.parametrize("tol", [0.001, 1e-9, "1/1000", "0.01", " 1/3 "])
def test_float_and_string_tolerances_read_as_scalars(tol):
    sq, oc = square_opposite_corners()
    for ask in (classify_fix, classify_almost_fix):
        assert ask(sq, oc, tol=tol) == ask(sq, oc, tol=Fraction(tol))


NOT_FINITE = [float("nan"), float("inf"), "1/0", "x/2", "abc", [Fraction(1)]]


@pytest.mark.parametrize("tol", NOT_FINITE)
def test_non_finite_or_malformed_tolerance_is_refused(tol):
    sq, oc = square_opposite_corners()
    for ask in (classify_fix, classify_almost_fix):
        with pytest.raises(OutOfRangeError):
            ask(sq, oc, tol=tol)


@pytest.mark.parametrize("tol", [True, False, "1e1000000"])
def test_boolean_or_huge_exponent_tolerance_is_refused(tol):
    # tol=True ran at tolerance 1 and flagged near-degeneracy.
    sq, oc = square_opposite_corners()
    for ask in (classify_fix, classify_almost_fix):
        with pytest.raises(OutOfRangeError):
            ask(sq, oc, tol=tol)


def test_duplicate_contact_points_collapse():
    sq, oc = square_opposite_corners()
    v = classify_fix(sq, [oc[0], oc[0], oc[1], oc[1]])
    assert v.status == classify_fix(sq, oc).status


def test_conflicting_addresses_for_same_coords_are_rejected():
    sq = unit_square()
    true_corner = boundary_point(sq, 1, Fraction(0))
    fake = BoundaryPoint(element_index=0, param=Fraction(1), coords=true_corner.coords)
    with pytest.raises(InvalidPointError):
        classify_fix(sq, [fake, true_corner])


def rigid_motion_cases():
    """Random contacts (negative), vertex sets, straddled regular polygons
    (POSITIVE) and the rectangle remark (INDETERMINATE)."""
    rng = random.Random(818)
    for trial in range(12):
        body = random_convex_polygon(900 + trial, rng.randint(4, 7))
        yield body, random_contact_points(body, rng, rng.randint(2, 4))
    for trial in range(8):
        body = random_convex_polygon(950 + trial, rng.randint(4, 7))
        n = len(body.elements)
        yield body, [boundary_point(body, j, Fraction(0)) for j in sorted(rng.sample(range(n), rng.randint(2, n)))]
    for k in (4, 5, 6):
        body = regular_polygon(k, 3)
        corners = [boundary_point(body, j, Fraction(0)) for j in range(k)]
        straddles = [offset_along_boundary(body, c, s) for c in corners for s in (Fraction(-1, 10), Fraction(1, 10))]
        yield body, corners + straddles
    fx = rectangle_remark()
    yield fx.body, list(fx.points)


def test_statuses_are_invariant_under_rigid_motions():
    # Turns of about 53 and 143 degrees, so every contact normal changes
    # quadrant under at least one of them.
    units = [reference_rotation(t) for t in (Fraction(1, 2), Fraction(3))]
    sx, sy = Fraction(7, 3), Fraction(-2)
    seen = set()
    for body, pts in rigid_motion_cases():
        statuses = [ask(body, pts).status for ask in (classify_fix, classify_almost_fix)]
        seen.update(statuses)
        for c, s in units:
            turned = (reference_rotate((0, 0), c, s, (q.x, q.y)) for q in body.vertices())
            moved_body = polygon([(x + sx, y + sy) for x, y in turned])
            moved_pts = [boundary_point(moved_body, p.element_index, p.param) for p in pts]
            assert [ask(moved_body, moved_pts).status for ask in (classify_fix, classify_almost_fix)] == statuses
    assert {POSITIVE, INDETERMINATE, NOT_WEAKLY_FIX, NOT_ALMOST_FIX} <= seen, seen


def test_statuses_are_invariant_under_scaling():
    rng = random.Random(515)
    for trial in range(12):
        body = random_convex_polygon(3000 + trial, rng.randint(4, 7))
        pts = random_contact_points(body, rng, rng.randint(2, 4))
        scaled = polygon([q.scaled(Fraction(3)) for q in body.vertices()])
        scaled_pts = [boundary_point(scaled, p.element_index, p.param) for p in pts]
        for ask in (classify_fix, classify_almost_fix):
            assert ask(body, pts).status == ask(scaled, scaled_pts).status


def test_fix_positive_implies_almost_positive():
    rng = random.Random(99)
    outcomes = set()
    for trial in range(60):
        body = random_convex_polygon(5000 + trial, rng.randint(4, 9))
        pts = random_contact_points(body, rng, rng.randint(2, 5))
        fixv = classify_fix(body, pts)
        almost = classify_almost_fix(body, pts)
        outcomes.add(fixv.status)
        if fixv.status == POSITIVE:
            assert almost.status == POSITIVE
        if almost.status == NOT_ALMOST_FIX:
            assert fixv.status == NOT_WEAKLY_FIX
    # The sample must exercise both sides of the implication to mean anything.
    assert POSITIVE in outcomes and NOT_WEAKLY_FIX in outcomes


def test_refine_opposite_corners_doubles_into_a_fixing_set():
    sq, oc = square_opposite_corners()
    placement, verdict = refine_almost_to_fix(sq, oc, Fraction(1, 5))
    assert verdict.status == POSITIVE
    assert placement.delta == Fraction(1, 10)
    assert [e.tag for e in placement.entries] == ["both_sides", "both_sides"]
    coords = sorted((p.coords.x, p.coords.y) for p in placement.points())
    assert coords == [
        (Fraction(-1), Fraction(-9, 10)),
        (Fraction(-9, 10), Fraction(-1)),
        (Fraction(9, 10), Fraction(1)),
        (Fraction(1), Fraction(9, 10)),
    ]
    # The doubled set really does classify POSITIVE for plain fixing.
    check = classify_fix(sq, placement.points())
    assert check.status == POSITIVE


def test_refine_scans_all_straddling_first_then_lexicographic(monkeypatch):
    sq, oc = square_opposite_corners()
    eps = Fraction(1, 5)
    # Every placement of the first 3 radii, keyed by its doubled points.
    placements = {}
    for k in (1, 2, 3):
        for tags in itertools.product(classify._TAG_ORDER, repeat=len(oc)):
            pl = classify._placement(sq, oc, tags, eps / 2**k)
            placements[tuple((p.element_index, p.param) for p in pl.points())] = (k, tags)
    assert len(placements) == 27
    seen = []
    real_classify_fix = classify.classify_fix

    def refusing_classify_fix(body, pts, tol=None):
        seen.append(placements[tuple((p.element_index, p.param) for p in pts)])
        if len(seen) <= 12:  # refuse the whole first radius and 3 of the second
            return SimpleNamespace(status="REFUSED")
        return real_classify_fix(body, pts, tol)

    monkeypatch.setattr(classify, "classify_fix", refusing_classify_fix)
    placement, verdict = refine_almost_to_fix(sq, oc, eps)
    assert verdict.status == POSITIVE
    assert seen[0] == (1, ("both_sides", "both_sides"))
    rank = {tag: i for i, tag in enumerate(classify._TAG_ORDER)}
    expected = sorted(placements.values(), key=lambda kt: (kt[0], [rank[t] for t in kt[1]]))
    assert len(seen) > 12
    assert seen == expected[: len(seen)]
    k, tags = seen[-1]
    assert placement.delta == eps / 2**k
    assert tags == tuple(e.tag for e in placement.entries)


def test_refine_needs_a_one_sided_placement_on_this_triangle():
    """A real input on which all-straddling fails at the radius where a
    one-sided placement fixes, so the placement scan is not dead code."""
    tri = polygon([(0, 0), (-10, 11), (-17, 1)])
    pts = [boundary_point(tri, 0, Fraction(5, 16)), boundary_point(tri, 2, 0), boundary_point(tri, 1, 0)]
    placement, verdict = refine_almost_to_fix(tri, pts, 8)
    assert verdict.status == POSITIVE
    assert placement.delta == 4
    assert [e.tag for e in placement.entries] == ["both_sides", "same_side_right", "both_sides"]
    straddling = classify._placement(tri, pts, ["both_sides"] * 3, Fraction(4))
    assert classify_fix(tri, straddling.points()).status == NOT_WEAKLY_FIX


def test_refine_rejects_non_almost_positive_input():
    fx = rectangle_remark()
    with pytest.raises(NotAlmostPositiveError):
        refine_almost_to_fix(fx.body, fx.points, Fraction(1, 5))


def test_refine_refuses_a_non_positive_epsilon(monkeypatch):
    sq, oc = square_opposite_corners()
    monkeypatch.setattr(classify, "classify_almost_fix", lambda *a, **k: pytest.fail("classified"))
    for eps in (0, -1, Fraction(-1, 5), "0"):
        with pytest.raises(OutOfRangeError):
            refine_almost_to_fix(sq, oc, eps)


@pytest.mark.parametrize("eps", NOT_FINITE + ["x", float("-inf")])
def test_refine_refuses_a_non_finite_or_malformed_epsilon(monkeypatch, eps):
    sq, oc = square_opposite_corners()
    monkeypatch.setattr(classify, "classify_almost_fix", lambda *a, **k: pytest.fail("classified"))
    with pytest.raises(OutOfRangeError, match="not a finite number"):
        refine_almost_to_fix(sq, oc, eps)


def test_refine_reports_exhaustion():
    sq, oc = square_opposite_corners()
    with pytest.raises(RefinementExhaustedError):
        refine_almost_to_fix(sq, oc, Fraction(1, 5), max_halvings=0)


def test_closed_tests_run_first_and_decide_empty_open_tests_at_tol_zero(monkeypatch):
    # Each call is recorded by its rows, strictness dropped: an open test
    # reads its closed test's rows, only strict.
    calls = []
    solve = classify.sectors_intersection

    def counting(sectors, tol):
        calls.append((sectors[0].closed, tuple((lc.nx, lc.ny, lc.c) for s in sectors for g in s.alternatives for lc in g)))
        return solve(sectors, tol)

    monkeypatch.setattr(classify, "sectors_intersection", counting)
    rng = random.Random(13)
    cases = [square_opposite_corners(), square_edge_midpoints()]
    for seed in range(6):
        body = random_convex_polygon(seed, 5 + seed % 3)
        cases.append((body, random_contact_points(body, rng, 2 + seed % 3)))
        cases.append((body, [boundary_point(body, i, Fraction(0)) for i in range(len(body.elements))]))
    opened = {0: 0, 1: 0}
    for body, pts in cases:
        for classify_question in (classify_fix, classify_almost_fix):
            for tol in (Fraction(0), Fraction(1, 100)):
                calls.clear()
                v = classify_question(body, pts, tol)
                assert tuple(t.name for t in v.tests) == TEST_NAMES
                (closed_l, rows_l), (closed_r, rows_r) = calls[:2]
                assert closed_l and closed_r
                if tol > 0:
                    assert calls[2:] == [(False, rows_l), (False, rows_r)]
                    continue
                ran = [rows for name, rows in (("closedL", rows_l), ("closedR", rows_r)) if v.test(name).nonempty]
                assert calls[2:] == [(False, rows) for rows in ran]
                opened[len(ran) > 0] += 1
                for name in ("openL", "openR"):
                    if not v.test("closed" + name[4:]).nonempty:
                        assert v.test(name) == classify.TestResult(name, "EMPTY", None)
    assert opened[0] and opened[1]  # both an all-skipped and a run open test were seen
