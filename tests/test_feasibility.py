"""Exact feasibility of half-plane systems, sector unions, direction sets."""

import math
import random
from fractions import Fraction

import pytest

import arc_reference
import branch_reference
import recentre_reference
from bruteforce import bruteforce_feasible, random_system
from containment_reference import reference_rotation
from immobilize2d import feasibility
from immobilize2d.body import TangentData, boundary_point, offset_along_boundary, tangents_at
from immobilize2d.classify import POSITIVE, classify_almost_fix, classify_fix
from immobilize2d.errors import ConstraintLimitError, OutOfRangeError
from immobilize2d.feasibility import (
    MAX_CONSTRAINTS,
    LinearConstraint,
    _anchor,
    _deepest_point,
    _feasible_exact,
    _improve_witness,
    _least_margin,
    _margin_system,
    directions_intersection,
    linear_feasible,
    sectors_intersection,
)
from immobilize2d.fixtures import regular_polygon
from immobilize2d.geom import Vec, _coprime_row, vec
from recentre_reference import to_anchor, to_point, to_vec
from immobilize2d.sectors import (
    SECTOR_KINDS,
    CircArc,
    contact_rows,
    direction_set,
    first_common_direction,
    grow_arc,
    make_sector,
    sector_of,
    shrink_arc,
)


def lc(nx, ny, c, strict=False):
    return LinearConstraint(Fraction(nx), Fraction(ny), Fraction(c), strict)


def corner_tangents():
    return TangentData(u_left=vec(2, 0), u_right=vec(0, 2))


def test_empty_system_is_feasible():
    res = linear_feasible([])
    assert res.feasible
    assert res.witness is not None


def test_single_halfplane():
    res = linear_feasible([lc(1, 0, 3)])
    assert res.feasible
    assert res.witness.x >= 3


def test_contradictory_pair_is_infeasible():
    assert not linear_feasible([lc(1, 0, 1), lc(-1, 0, 0)]).feasible


def test_equality_via_opposite_closed_halfplanes():
    # x >= 2 and -x >= -2 pin x to exactly 2.
    res = linear_feasible([lc(1, 0, 2), lc(-1, 0, -2), lc(0, 1, 0)])
    assert res.feasible
    assert res.witness.x == 2
    assert res.witness.y >= 0


def test_strict_against_closed_same_line():
    # x > 0 together with -x >= 0 has no solution; swap strictness to the
    # closed side and the line itself qualifies.
    assert not linear_feasible([lc(1, 0, 0, strict=True), lc(-1, 0, 0)]).feasible
    assert linear_feasible([lc(1, 0, 0), lc(-1, 0, 0)]).feasible


def test_strict_wedge_needs_interior_point():
    res = linear_feasible([lc(1, 0, 0, strict=True), lc(0, 1, 0, strict=True)])
    assert res.feasible
    w = res.witness
    assert w.x > 0 and w.y > 0


def test_witness_always_satisfies_the_system():
    rng = random.Random(202)
    for _ in range(400):
        rows = random_system(rng)
        cons = [lc(*row) for row in rows]
        res = linear_feasible(cons)
        if res.feasible:
            assert all(c.holds(res.witness) for c in cons)


def test_matches_bruteforce_oracle():
    rng = random.Random(4040)
    for _ in range(1500):
        rows = random_system(rng)
        got = linear_feasible([lc(*row) for row in rows]).feasible
        want = bruteforce_feasible(rows)
        assert got == want, rows


def test_adding_a_constraint_never_creates_solutions():
    rng = random.Random(11)
    for _ in range(200):
        rows = random_system(rng, max_rows=5)
        cons = [lc(*row) for row in rows]
        extra = random_system(rng, max_rows=1)
        if not extra:
            continue
        before = linear_feasible(cons).feasible
        after = linear_feasible(cons + [lc(*extra[0])]).feasible
        if not before:
            assert not after


def test_outside_rows_solve_as_their_coprime_int_rows():
    # Float and Fraction terms are read at their exact values and each row is
    # normalised: a row times a positive factor exact in binary (as floats) or
    # any positive rational (as Fractions) gives the coprime row's witness.
    rng = random.Random(303)
    for _ in range(600):
        rows = random_system(rng)
        ints = [_coprime_row(nx, ny, c, strict) for nx, ny, c, strict in rows]
        want = linear_feasible(ints)
        floats, fractions = [], []
        for nx, ny, c, strict in rows:
            k, q = rng.choice((0.25, 0.5, 1.5, 3.0, 1024.0)), Fraction(rng.randint(1, 9), rng.randint(1, 9))
            floats.append(LinearConstraint(k * nx, k * ny, k * c, strict))
            fractions.append(LinearConstraint(q * nx, q * ny, q * c, strict))
        for outside in (floats, fractions):
            got = linear_feasible(outside)
            assert (got.feasible, got.witness) == (want.feasible, want.witness), rows
            assert got.witness is None or (type(got.witness.x), type(got.witness.y)) == (Fraction, Fraction)
    # 0.3 is read at its exact value, a little below 3/10: a float row mixed with
    # int rows decides as its exact value does, not as the decimal 3/10 would.
    pinned = linear_feasible([LinearConstraint(1.0, 0, 0.3), LinearConstraint(-10, 0, -3)])
    assert pinned == linear_feasible([_coprime_row(Fraction(1), 0, Fraction(0.3), False), LinearConstraint(-10, 0, -3)])
    assert pinned.feasible and Fraction(0.3) <= pinned.witness.x <= Fraction(3, 10)
    assert linear_feasible([LinearConstraint(1.0, 0, 0.3, strict=True), LinearConstraint(-10, 0, -3)]).feasible
    assert not linear_feasible([LinearConstraint(10, 0, 3), LinearConstraint(-1.0, 0, -0.3)]).feasible


@pytest.mark.parametrize("term", [math.nan, math.inf, -math.inf, True, False, "x", None])
def test_non_finite_and_boolean_row_terms_raise_out_of_range(term):
    for at in range(3):
        terms = [1, 0, 0]
        terms[at] = term
        with pytest.raises(OutOfRangeError):
            linear_feasible([LinearConstraint(0, 1, 0), LinearConstraint(*terms)])


def test_anchor_ints_equal_the_reference_anchor():
    assert _anchor([]) == (0, 0, 1, 1)
    rng = random.Random(808)
    for _ in range(300):
        sectors = random_sectors(rng, rng.choice((small_apex, float_sized_apex)))
        ax, ay, s, d = _anchor(sectors)
        assert d > 0 and (Vec(Fraction(ax, d), Fraction(ay, d)), Fraction(s, d)) == branch_reference.anchor(sectors)


def integer_row(c, strict):
    """The row of ``c`` scaled to integers, as ``bruteforce_feasible`` takes it."""
    m = math.lcm(c.nx.denominator, c.ny.denominator, c.c.denominator)
    return (int(c.nx * m), int(c.ny * m), int(c.c * m), strict)


def tightened(constraints, t):
    """The rows closed and shifted inward by ``t`` times their L1 norm."""
    return [LinearConstraint(c.nx, c.ny, c.c + t * (abs(c.nx) + abs(c.ny))) for c in constraints]


def test_max_margin_is_the_exact_optimum():
    # p is optimal iff its smallest margin t is positive and the rows
    # tightened by t and made strict (no point of the box has a margin above
    # t) are infeasible.  p itself is the witness elimination gives for the
    # tightened rows.  None means no point of the box has every margin
    # positive: the best margin is 0, or the closed rows miss the box.
    rng = random.Random(515)
    seen = {"infeasible": 0, "zero": 0, "point": 0}
    for _ in range(400):
        rows = random_system(rng)
        if not rows:
            continue
        cons = [LinearConstraint(*row) for row in rows]
        anchor, size = vec(rng.randint(-4, 4), rng.randint(-4, 4)), Fraction(rng.randint(1, 6))
        box = recentre_reference.box_around(anchor, size)
        box_rows = [integer_row(b, False) for b in box]
        p = _deepest_point(_margin_system(cons), to_anchor(anchor, size), 1)
        if p is None:
            closed = bruteforce_feasible([integer_row(c, False) for c in cons] + box_rows)
            seen["zero" if closed else "infeasible"] += 1
            assert not bruteforce_feasible([integer_row(c, True) for c in cons] + box_rows), rows
            continue
        seen["point"] += 1
        m, n = _least_margin(cons, *p)
        t, p = Fraction(m, n * p[2]), to_vec(p)
        assert t == recentre_reference.min_margin(cons, p), (rows, p)
        assert t > 0 and all(b.holds(p) for b in box), (rows, p)
        tight = tightened(cons, t)
        assert not bruteforce_feasible([integer_row(c, True) for c in tight] + box_rows), (rows, t)
        assert to_vec(_feasible_exact([_coprime_row(c.nx, c.ny, c.c, c.strict) for c in tight] + box)) == p, (rows, t)
    assert min(seen.values()) > 0, seen


def test_recentring_makes_no_exact_solve(monkeypatch):
    solves, deepest = [], []
    exact, deepest_point = feasibility._feasible_exact, feasibility._deepest_point

    def counting(constraints):
        solves.append(len(constraints))
        return exact(constraints)

    def counting_deepest(system, anchor, size):
        deepest.append(size)
        return deepest_point(system, anchor, size)

    monkeypatch.setattr(feasibility, "_feasible_exact", counting)
    monkeypatch.setattr(feasibility, "_deepest_point", counting_deepest)
    rng = random.Random(616)
    searched = 0
    for _ in range(300):
        rows = random_system(rng)
        cons = [LinearConstraint(*row) for row in rows]
        res = linear_feasible(cons)
        if not res.feasible:
            continue
        anchor = (rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(1, 3), 1)
        solves.clear()
        deepest.clear()
        w = to_vec(_improve_witness(cons, to_point(res.witness), anchor))
        assert solves == [], rows
        assert len(deepest) in (0, len(feasibility._IMPROVE_BOXES)), rows
        searched += bool(deepest)
        assert all(c.holds(w) for c in cons), (rows, w)
    assert searched > 20


def test_constraint_cap_is_enforced():
    cons = [lc(1, 0, -i) for i in range(MAX_CONSTRAINTS)]
    linear_feasible(cons)
    with pytest.raises(ConstraintLimitError):
        linear_feasible(cons + [lc(0, 1, 0)])


def straddled_polygon(k):
    """Every vertex of the regular k-gon plus points 1/10 to either side: POSITIVE."""
    body = regular_polygon(k, 5)
    corners = [boundary_point(body, j, Fraction(0)) for j in range(k)]
    straddles = [offset_along_boundary(body, c, s) for c in corners for s in (Fraction(-1, 10), Fraction(1, 10))]
    return body, corners + straddles


def test_union_sectors_have_no_cap():
    body = regular_polygon(17, 5)
    corners = [boundary_point(body, j, Fraction(0)) for j in range(17)]
    for ask in (classify_fix, classify_almost_fix):
        assert ask(body, corners).status  # 17 union sectors per test, no cap on them
    assert classify_fix(*straddled_polygon(16)).status == POSITIVE
    # Every branch has the same number of rows, so the row cap fires before
    # any scan, for an empty system (facing open cones at one apex) and for a
    # nonempty one (the same cones apart) alike.
    t = corner_tangents()
    unions = [make_sector("L", closed=False, apex=vec(5 + i, -i), t=t) for i in range(MAX_CONSTRAINTS - 3)]
    for far in (0, 5):
        cones = [make_sector("small_r", False, vec(0, 0), t), make_sector("small_l", False, vec(far, far), t)]
        assert sectors_intersection(cones + unions[:-1]).feasible == bool(far)
        with pytest.raises(ConstraintLimitError):
            sectors_intersection(cones + unions)


def small_apex(rng):
    return Vec(Fraction(rng.randint(-6, 6), rng.choice([1, 2])), Fraction(rng.randint(-6, 6), rng.choice([1, 2])))


def float_sized_apex(rng):
    """An apex as mixed mode derives one: exact values of floats, with
    denominators of 2^52 and more."""
    return Vec(*(Fraction(math.cos(rng.uniform(0, 2 * math.pi))) * rng.randint(1, 6) for _ in range(2)))


def random_sectors(rng, draw_apex=small_apex):
    """A few sectors with small apexes (or ``draw_apex``'s) and tangents:
    corners, smooth contacts, all normals parallel, mixed kinds and openness."""
    dirs = [vec(1, 0), vec(0, 1), vec(1, 1), vec(-1, 0), vec(0, -1), vec(2, 1), vec(-1, 2), vec(1, -3), vec(-2, -1)]
    family, d0 = rng.choice(["free", "parallel", "smooth"]), rng.choice(dirs)
    kind, closed = rng.choice(SECTOR_KINDS), rng.random() < 0.5
    sectors = []
    for _ in range(rng.randint(1, 5)):
        apex = draw_apex(rng)
        if family == "parallel":
            u_left, u_right = rng.choice([d0, -d0]), rng.choice([d0, -d0])
        elif family == "smooth" and rng.random() < 0.6:
            u_left = u_right = rng.choice(dirs)
        else:
            u_left, u_right = rng.choice(dirs), rng.choice(dirs)
        k = kind if rng.random() < 0.6 else rng.choice(SECTOR_KINDS)
        c = closed if rng.random() < 0.7 else not closed
        sectors.append(make_sector(k, c, apex, TangentData(u_left, u_right)))
    return sectors


def test_first_branch_races_the_enumeration():
    rng = random.Random(6006)
    scanned = parallel = feasible = flagged = 0
    for _ in range(2400):
        sectors = random_sectors(rng)
        tol = rng.choice([Fraction(0), Fraction(1, 1000), Fraction(1, 20)])
        got = sectors_intersection(sectors, tol)
        want = branch_reference.sectors_intersection(sectors, tol)
        assert (got.feasible, got.witness, got.near_degenerate) == (want.feasible, want.witness, want.near_degenerate)
        if any(len(s.alternatives) > 1 for s in sectors):
            scanned += 1
            rows = [lc for s in sectors for group in s.alternatives for lc in group]
            parallel += all(lc.nx * rows[0].ny == lc.ny * rows[0].nx for lc in rows)
        feasible += want.feasible
        flagged += want.near_degenerate
    counts = (scanned, parallel, feasible, flagged)
    assert scanned > 1000 and parallel > 200 and 1000 < feasible < 2000 and flagged > 80, counts


def test_first_branch_races_the_enumeration_at_float_sized_apexes():
    # The anchor and the twin's unit are computed over one denominator: apexes
    # the size mixed mode feeds them must give the reference's answers too.
    rng = random.Random(6116)
    feasible = flagged = 0
    for _ in range(300):
        sectors = random_sectors(rng, float_sized_apex)
        tol = rng.choice([Fraction(1, 10**9), Fraction(1, 100)])
        got = sectors_intersection(sectors, tol)
        want = branch_reference.sectors_intersection(sectors, tol)
        assert (got.feasible, got.witness, got.near_degenerate) == (want.feasible, want.witness, want.near_degenerate)
        feasible += want.feasible
        flagged += want.near_degenerate
    assert 50 < feasible < 250 and flagged > 10, (feasible, flagged)


def mixed_sectors(rng):
    """One-alternative sectors (a smooth contact's large sector or any small
    one) next to union sectors (a large sector at a corner), so that every
    branch holds the fixed rows of the former."""
    dirs = [vec(1, 0), vec(0, 1), vec(1, 1), vec(-1, 0), vec(0, -1), vec(2, 1), vec(-1, 2), vec(1, -3), vec(-2, -1)]
    closed = rng.random() < 0.5
    sectors = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            u = rng.choice(dirs)
            sectors.append(make_sector(rng.choice(("L", "R")), closed, small_apex(rng), TangentData(u, u)))
        else:
            sectors.append(make_sector(rng.choice(("small_l", "small_r")), closed, small_apex(rng), TangentData(rng.choice(dirs), rng.choice(dirs))))
    for _ in range(rng.randint(1, 3)):
        u_left, u_right = rng.sample(dirs, 2)
        sectors.append(make_sector(rng.choice(("L", "R")), closed, small_apex(rng), TangentData(u_left, u_right)))
    rng.shuffle(sectors)
    return sectors


def test_fixed_rows_race_the_enumeration():
    # Empty fixed rows rule the union out before the scan; nonempty ones leave
    # it to the scan, whether some branch is nonempty or none is.
    rng = random.Random(7117)
    seen = {"fixed empty": 0, "every branch empty": 0, "nonempty": 0}
    for _ in range(2000):
        sectors = mixed_sectors(rng)
        alternatives = [s.alternatives for s in sectors]
        want = next((b for b in branch_reference.sector_branches(alternatives) if linear_feasible(b).feasible), None)
        assert feasibility.first_branch(alternatives) == want, sectors
        tol = rng.choice([Fraction(0), Fraction(1, 1000), Fraction(1, 20)])
        got, ref = sectors_intersection(sectors, tol), branch_reference.sectors_intersection(sectors, tol)
        assert (got.feasible, got.witness, got.near_degenerate) == (ref.feasible, ref.witness, ref.near_degenerate)
        fixed = [lc for alts in alternatives if len(alts) == 1 for lc in alts[0]]
        if not linear_feasible(fixed).feasible:
            seen["fixed empty"] += 1
        else:
            seen["nonempty" if want else "every branch empty"] += 1
    assert min(seen.values()) > 100, seen


def test_empty_fixed_rows_skip_the_crossing_scan(monkeypatch):
    # The POSITIVE corner draw: the straddling points' smooth sectors are
    # empty together, so no line crossing is visited.
    def refusing(*args):
        raise AssertionError("the crossing scan ran")

    body, pts = straddled_polygon(5)
    contacts = [contact_rows(bp.coords, tangents_at(body, bp)) for bp in pts]
    for kind in ("L", "R"):
        alternatives = [sector_of(c, kind, True).alternatives for c in contacts]
        assert any(len(alts) > 1 for alts in alternatives)
        monkeypatch.setattr(feasibility.itertools, "combinations", refusing)
        assert feasibility.first_branch(alternatives) is None
        monkeypatch.undo()
        assert next(branch_reference.sector_branches(alternatives), None) is not None
        assert not any(linear_feasible(b).feasible for b in branch_reference.sector_branches(alternatives))


def rand_dir(rng):
    c, s = reference_rotation(Fraction(rng.randint(-400, 400), 101))
    return Vec(-c, -s) if rng.random() < 0.5 else Vec(c, s)


def rand_direction_set(rng, t):
    r = rng.random()
    if r < 0.4:
        return direction_set(rng.choice(SECTOR_KINDS), vec(0, 0), TangentData(rand_dir(rng), rand_dir(rng)))
    if r < 0.6:
        # A sweep close to twice the perturbation angle, or that far short of a full turn.
        a = rand_dir(rng)
        c, s = reference_rotation(t * Fraction(rng.randint(95, 105), 100))
        b = Vec(c * a.x - s * a.y, s * a.x + c * a.y)
        b = Vec(c * b.x - s * b.y, s * b.x + c * b.y)
        return CircArc(a, b) if rng.random() < 0.5 else CircArc(b, a)
    return CircArc(rand_dir(rng), rand_dir(rng))


def test_sector_intersection_of_facing_cones():
    t = corner_tangents()
    small_r = make_sector("small_r", closed=True, apex=vec(0, 0), t=t)  # NE cone
    small_l = make_sector("small_l", closed=True, apex=vec(1, 1), t=t)  # SW cone
    res = sectors_intersection([small_r, small_l])
    assert res.feasible
    w = res.witness
    assert 0 <= w.x <= 1 and 0 <= w.y <= 1

    far = make_sector("small_l", closed=True, apex=vec(-2, -2), t=t)
    assert not sectors_intersection([small_r, far]).feasible


def test_sector_intersection_touching_only_at_apex():
    t = corner_tangents()
    ne_closed = make_sector("small_r", closed=True, apex=vec(0, 0), t=t)
    sw_closed = make_sector("small_l", closed=True, apex=vec(0, 0), t=t)
    res = sectors_intersection([ne_closed, sw_closed])
    assert res.feasible
    assert res.witness == vec(0, 0)

    ne_open = make_sector("small_r", closed=False, apex=vec(0, 0), t=t)
    sw_open = make_sector("small_l", closed=False, apex=vec(0, 0), t=t)
    assert not sectors_intersection([ne_open, sw_open]).feasible


def test_sector_intersection_flags_knife_edge():
    # A single-point intersection flips between empty and fat under the
    # two tolerance twins, so it must be reported as near-degenerate.
    t = corner_tangents()
    ne = make_sector("small_r", closed=True, apex=vec(0, 0), t=t)
    sw = make_sector("small_l", closed=True, apex=vec(0, 0), t=t)
    res = sectors_intersection([ne, sw], tol=Fraction(1, 1000))
    assert res.feasible
    assert res.near_degenerate

    fat = sectors_intersection(
        [ne, make_sector("small_l", closed=True, apex=vec(5, 5), t=t)], tol=Fraction(1, 1000)
    )
    assert fat.feasible
    assert not fat.near_degenerate


def test_sector_witnesses_clear_strict_rims():
    rng = random.Random(70)
    t = corner_tangents()
    for _ in range(100):
        ax = Fraction(rng.randint(-20, 20), 4)
        ay = Fraction(rng.randint(-20, 20), 4)
        ne = make_sector("small_r", closed=False, apex=Vec(ax, ay), t=t)
        res = sectors_intersection([ne])
        assert res.feasible
        assert res.witness.x > ax and res.witness.y > ay


def test_directions_intersection_quadrant():
    west = CircArc(start=vec(0, 1), end=vec(0, -1))
    north = CircArc(start=vec(1, 0), end=vec(-1, 0))
    res = directions_intersection([west, north])
    assert res.feasible
    w = res.witness
    assert w.x <= 0 and w.y >= 0 and not w.is_zero()
    assert abs(w.x) + abs(w.y) == 1  # reported as an L1 unit vector


def test_directions_intersection_empty_and_full():
    east = CircArc(start=vec(0, -1), end=vec(0, 1))
    strict_west = CircArc(start=Vec(Fraction(-1, 100), Fraction(1)), end=Vec(Fraction(-1, 100), Fraction(-1)))
    assert not directions_intersection([strict_west, east]).feasible

    # An empty system constrains nothing: the whole circle, reported as (1, 0).
    res = directions_intersection([])
    assert res.feasible and res.witness == vec(1, 0)


def test_directions_intersection_flags_pole_touch():
    # Closed west and closed east half-turns meet only at the two poles.
    west = CircArc(start=vec(0, 1), end=vec(0, -1))
    east = CircArc(start=vec(0, -1), end=vec(0, 1))
    res = directions_intersection([west, east], tol=Fraction(1, 1000))
    assert res.feasible
    assert res.near_degenerate
    solo = directions_intersection([west], tol=Fraction(1, 1000))
    assert solo.feasible and not solo.near_degenerate


def test_one_twin_flags_as_both_twins_did():
    # The relaxed twin contains the exact system and the tightened one lies
    # in it, so the twin on the exact answer's own side never differs from it.
    rng = random.Random(7007)
    flagged = 0
    for _ in range(1000):
        tol = rng.choice([Fraction(1, 1000), Fraction(1, 20), Fraction(1, 5)])
        sectors = random_sectors(rng)
        both = branch_reference.twin_any(sectors, tol) != branch_reference.twin_any(sectors, -tol)
        assert sectors_intersection(sectors, tol).near_degenerate == both
        sets = [rand_direction_set(rng, tol) for _ in range(rng.randint(1, 4))]
        grown = first_common_direction([grow_arc(a, tol) for a in sets])
        shrunk = first_common_direction([shrink_arc(a, tol) for a in sets])
        assert directions_intersection(sets, tol).near_degenerate == ((grown is None) != (shrunk is None))
        flagged += both + ((grown is None) != (shrunk is None))
    assert flagged > 200, flagged


def test_direction_twin_races_the_fraction_arcs():
    # The twin turns integer rays; the reference turns Fraction rays.
    rng = random.Random(9009)
    flagged = 0
    for _ in range(600):
        tol = rng.choice([Fraction(1, 10**9), Fraction(1, 100), Fraction(1, 3)])
        arcs = [rand_direction_set(rng, tol) for _ in range(rng.randint(1, 4))]
        want = arc_reference.near_degenerate(arcs, tol)
        assert directions_intersection(arcs, tol).near_degenerate == want
        flagged += want
    assert flagged > 50, flagged
