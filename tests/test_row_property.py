"""Property test: a row is four coprime ints, the tolerance twin's row is the
rational row moved by a unit taken from the sector's apex, and no positive
factor on a row changes a pick, a witness, a twin or a coordinate's type.

``halfplane_constraint`` is checked against the rational row it stands for:
``nx, ny, c`` are coprime Python ints with the same direction and ``c /
norm1(n)``.  Each segment's row in ``ConvexBody.rows`` must be that same
coprime form of its closed left half-plane.  The rows
``_twin_any`` hands to ``first_branch`` must be each sector row's rational
form ``n . p >= n . apex``, for any positive multiple ``n`` of the row's
normal, moved by ``slack norm1(n) (1 + norm1(apex))``.  Then every row of a
random sector system is multiplied by its own positive rational, which
leaves Fraction rows: ``first_branch`` must pick the same alternatives,
``linear_feasible`` must return the same witness, whose coordinates are
``Fraction``s, never floats, ``_improve_witness``, which reads int rows only,
must re-centre it to the same point, as ints, on the rows cleared of their
denominators, and both twins must give the same answer.

The integer builders are raced against ``Fraction`` references too: a row
must equal ``_coprime_row`` on the rational terms, every ``(kind, closed)``
sector read off a contact's ``ContactRows``, smooth contacts included, must
equal the sector this file builds row by row from ``+-u`` in ``Fraction``s
(the intersection of the contact's distinct rows for a small sector, their
union for a large one, so both sides' large and small sectors agree at a
smooth contact, which has one row),
and the primitive integer rays of ``direction_set`` must point along the
``Fraction`` rays ``rot90_ccw(u)``, contain the same probes, and give
``directions_intersection`` the same ``Fraction`` witness and flag.

A contact's rows come from one integer builder, ``rows_from_tangents``, fed
by ``classify`` from the body's int tangents (``tangent_ints``).  On every
contact of seeded polygon, fuzz-style and fixture draws, arcs and a
mixed-mode junction snapped to straight included, those tangents must point
along ``tangents_at``'s, and the rows must be the ones ``halfplane_constraint``
builds from ``tangents_at``; the rows each ``classify`` call builds must be
``contact_rows`` on the same contacts.
"""

import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from immobilize2d import classify, cli, feasibility  # noqa: E402
from immobilize2d.body import (  # noqa: E402
    MIXED_INEXACT,
    ConvexBody,
    Segment,
    TangentData,
    boundary_point,
    polygon,
    tangent_ints,
    tangents_at,
    validate,
)
from immobilize2d.fixtures import example_e1, example_e2, random_convex_polygon, unit_disc  # noqa: E402
from immobilize2d.feasibility import (  # noqa: E402
    _improve_witness,
    _twin_any,
    directions_intersection,
    first_branch,
    linear_feasible,
)
from immobilize2d.geom import LinearConstraint, Vec, _coprime_row, cross, dot, halfplane_constraint, norm1, rot90_ccw  # noqa: E402
from recentre_reference import to_anchor, to_point, to_vec  # noqa: E402
from immobilize2d.sectors import (  # noqa: E402
    SECTOR_KINDS,
    CircArc,
    Sector,
    arc_contains,
    contact_rows,
    direction_set,
    make_sector,
    rows_from_tangents,
    sector_of,
)

SETTINGS = hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)

rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
positives = st.builds(Fraction, st.integers(1, 60), st.integers(1, 60))
points = st.builds(Vec, rationals, rationals)
nonzero = points.filter(lambda v: not v.is_zero())
sectors = st.builds(make_sector, st.sampled_from(SECTOR_KINDS), st.booleans(), points, st.builds(TangentData, nonzero, nonzero))


def assert_coprime_form(lc, nx, ny, c, strict):
    """``lc`` is the row ``nx x + ny y >= c`` as coprime ints."""
    assert all(type(v) is int for v in (lc.nx, lc.ny, lc.c)), lc
    assert gcd(lc.nx, lc.ny, lc.c) == 1 and lc.strict == strict
    n1, m1 = abs(lc.nx) + abs(lc.ny), abs(nx) + abs(ny)
    assert (Fraction(lc.nx, n1), Fraction(lc.ny, n1)) == (nx / m1, ny / m1)
    assert Fraction(lc.c, n1) == c / m1


def test_a_row_is_its_four_terms():
    assert [f.name for f in fields(LinearConstraint)] == ["nx", "ny", "c", "strict"]


@SETTINGS
@hypothesis.given(points, nonzero, st.booleans())
def test_rows_are_coprime_ints_with_the_rational_rows_terms(base, normal, closed):
    row = halfplane_constraint(base, normal, closed)
    assert_coprime_form(row, normal.x, normal.y, dot(normal, base), not closed)


@SETTINGS
@hypothesis.given(points, nonzero, st.booleans())
def test_integer_rows_are_the_fraction_normalisers_rows(base, normal, closed):
    assert halfplane_constraint(base, normal, closed) == _coprime_row(normal.x, normal.y, dot(normal, base), not closed)


@st.composite
def tangents(draw):
    """A corner's two tangents, or a smooth contact's (one a positive multiple of the other)."""
    u = draw(nonzero)
    v = draw(st.one_of(nonzero, positives.map(u.scaled)))
    return TangentData(u, v)


def reference_row(n: Vec, apex: Vec, strict: bool) -> LinearConstraint:
    """``n . p >= n . apex`` times the one positive rational making it coprime ints."""
    terms = (n.x, n.y, n.x * apex.x + n.y * apex.y)
    den = lcm(*(v.denominator for v in terms))
    ints = [int(v * den) for v in terms]
    g = gcd(*ints)
    return LinearConstraint(ints[0] // g, ints[1] // g, ints[2] // g, strict)


def is_smooth(t: TangentData) -> bool:
    ul, ur = t.u_left, t.u_right
    return ul.x * ur.y == ul.y * ur.x and ul.x * ur.x + ul.y * ur.y > 0


def reference_sector(kind: str, closed: bool, apex: Vec, t: TangentData) -> Sector:
    """A small sector is the intersection of the contact's distinct rows, a
    large one their union; a smooth contact has one row."""
    ul, ur = (-t.u_left, -t.u_right) if kind in ("L", "small_l") else (t.u_left, t.u_right)
    left, right = reference_row(ul, apex, not closed), reference_row(ur, apex, not closed)
    rows = (left,) if is_smooth(t) else (left, right)
    return Sector(apex, closed, (rows,) if kind.startswith("small") else tuple((lc,) for lc in rows))


@SETTINGS
@hypothesis.given(points, tangents())
def test_sectors_read_off_contact_rows_are_the_fraction_sectors(apex, t):
    rows = contact_rows(apex, t)
    assert (len(rows.rows) == 1) == is_smooth(t)
    for kind in SECTOR_KINDS:
        for closed in (False, True):
            expected = reference_sector(kind, closed, apex, t)
            assert sector_of(rows, kind, closed) == expected == make_sector(kind, closed, apex, t)
        if is_smooth(t) and not kind.startswith("small"):
            small = "small_l" if kind == "L" else "small_r"
            assert all(sector_of(rows, kind, closed) == sector_of(rows, small, closed) for closed in (False, True))


def reference_direction_set(kind: str, t: TangentData) -> CircArc:
    """``direction_set`` with the ``Fraction`` rays ``rot90_ccw(u)``."""
    nl, nr = rot90_ccw(t.u_left), rot90_ccw(t.u_right)
    arc = CircArc(nl, -nl) if is_smooth(t) else (CircArc(nl, -nr) if kind in ("L", "R") else CircArc(nr, -nl))
    return CircArc(-arc.start, -arc.end) if kind in ("R", "small_r") else arc


def assert_same_ray(ray: Vec, ref: Vec):
    assert type(ray.x) is int and type(ray.y) is int and gcd(ray.x, ray.y) == 1, ray
    assert cross(ray, ref) == 0 and dot(ray, ref) > 0, (ray, ref)


@SETTINGS
@hypothesis.given(points, tangents(), st.lists(nonzero, max_size=6))
def test_integer_rays_point_along_the_fraction_rays(apex, t, probes):
    edges = [rot90_ccw(t.u_left), rot90_ccw(t.u_right)]
    for kind in SECTOR_KINDS:
        arc, ref = direction_set(kind, apex, t), reference_direction_set(kind, t)
        assert_same_ray(arc.start, ref.start)
        assert_same_ray(arc.end, ref.end)
        for d in probes + edges + [-e for e in edges]:
            assert arc_contains(arc, d) == arc_contains(ref, d)


@SETTINGS
@hypothesis.given(st.lists(st.tuples(points, tangents()), min_size=1, max_size=4), st.sampled_from([Fraction(0), Fraction(1, 100), Fraction(1, 10**6)]))
def test_directions_witness_is_the_fraction_rays_witness(contacts, tol):
    for kind in ("L", "small_l"):
        got = directions_intersection([direction_set(kind, apex, t) for apex, t in contacts], tol)
        expected = directions_intersection([reference_direction_set(kind, t) for _, t in contacts], tol)
        assert got == expected
        if got.witness is not None:
            assert_fractions(got.witness)


@SETTINGS
@hypothesis.given(points, points)
def test_segment_rows_are_the_builders_coprime_form(a, b):
    hypothesis.assume(a != b)
    # an exact body's table entry is the row (A, B, C) with A x + B y + C >= 0, and no tolerance
    nx, ny, c, s = ConvexBody((Segment(a, b),)).rows[0]
    n = rot90_ccw(b - a)
    assert s == 0
    assert_coprime_form(LinearConstraint(nx, ny, -c), n.x, n.y, dot(n, a), False)


@SETTINGS
@hypothesis.given(st.lists(sectors, min_size=1, max_size=4), rationals, positives)
def test_twin_rows_are_the_rational_rows_moved_by_the_apex_unit(system, slack, k):
    with mock.patch.object(feasibility, "first_branch", wraps=first_branch) as spy:
        _twin_any(system, slack)
    (twin,), _ = spy.call_args
    assert len(twin) == len(system)
    for s, alts in zip(system, twin):
        assert [len(group) for group in alts] == [len(group) for group in s.alternatives]
        for group, moved in zip(s.alternatives, alts):
            for lc, row in zip(group, moved):
                n = Vec(lc.nx * k, lc.ny * k)
                assert lc.margin(s.apex) == 0
                assert_coprime_form(row, n.x, n.y, dot(n, s.apex) - slack * norm1(n) * (1 + norm1(s.apex)), lc.strict)


@st.composite
def sector_systems(draw):
    """Random sectors, and the same sectors with each row times its own positive rational."""
    system = draw(st.lists(sectors, min_size=1, max_size=4))

    def scaled(lc):
        k = draw(positives)
        return LinearConstraint(lc.nx * k, lc.ny * k, lc.c * k, lc.strict)

    rescaled = [Sector(s.apex, s.closed, tuple(tuple(scaled(lc) for lc in group) for group in s.alternatives)) for s in system]
    return system, rescaled, draw(points), draw(positives), draw(rationals)


def picks(alternatives, branch):
    """The alternative of each sector that ``branch`` is made of."""
    out, at = [], 0
    for alts in alternatives:
        j = next(j for j, group in enumerate(alts) if all(a is b for a, b in zip(group, branch[at:])))
        out.append(j)
        at += len(alts[j])
    return out


def cleared(lc):
    """The row times the least positive integer that clears its denominators."""
    k = lcm(lc.nx.denominator, lc.ny.denominator, lc.c.denominator)
    return LinearConstraint(int(lc.nx * k), int(lc.ny * k), int(lc.c * k), lc.strict)


def assert_fractions(p):
    assert type(p.x) is Fraction and type(p.y) is Fraction, p


@SETTINGS
@hypothesis.given(sector_systems())
def test_row_factors_change_no_pick_and_no_witness(system):
    original, rescaled, anchor, spread, slack = system
    assert _twin_any(original, slack) == _twin_any(rescaled, slack)
    alternatives = [s.alternatives for s in original]
    scaled_alternatives = [s.alternatives for s in rescaled]
    branch, other = first_branch(alternatives), first_branch(scaled_alternatives)
    assert (branch is None) == (other is None)
    if branch is None:
        return
    assert picks(alternatives, branch) == picks(scaled_alternatives, other)
    res, res_other = linear_feasible(branch), linear_feasible(other)
    assert res.feasible == res_other.feasible and res.witness == res_other.witness
    if not res.feasible:
        return
    assert_fractions(res.witness)
    assert_fractions(res_other.witness)
    point, anchor = to_point(res.witness), to_anchor(anchor, spread)
    better = _improve_witness(branch, point, anchor)
    assert to_vec(better) == to_vec(_improve_witness([cleared(lc) for lc in other], point, anchor))
    assert all(type(v) is int for v in better)
    assert all(lc.holds(to_vec(better)) for lc in branch)


# -- contact rows from the body's int tangents ---------------------------------


def halfplane_rows(apex: Vec, t: TangentData) -> tuple[LinearConstraint, ...]:
    """The contact's rows from ``halfplane_constraint``: the left row, and the
    right one unless the ``Fraction`` tangents point the same way."""
    left = halfplane_constraint(apex, t.u_left, True)
    if cross(t.u_left, t.u_right) == 0 and dot(t.u_left, t.u_right) > 0:
        return (left,)
    return (left, halfplane_constraint(apex, t.u_right, True))


def contact_kind(body, bp) -> str:
    el = body.elements[bp.element_index]
    if bp.param == 0:
        return "vertex"
    return "segment" if isinstance(el, Segment) else "arc"


def race_rows(body, pts, kinds: Counter) -> None:
    """The integer rows of each contact against ``halfplane_constraint``, and
    the rows one ``classify_both`` call builds against ``contact_rows``."""
    for bp in pts:
        t = tangents_at(body, bp)
        left, right = tangent_ints(body, bp)
        for ints, u in ((left, t.u_left), (right, t.u_right)):
            assert all(type(v) is int for v in ints), ints
            assert cross(Vec(*ints), u) == 0 and dot(Vec(*ints), u) > 0, (ints, u)
        rows = rows_from_tangents(bp.coords, left, right)
        assert rows.apex == bp.coords
        assert rows.rows == halfplane_rows(bp.coords, t), bp
        kinds[contact_kind(body, bp), len(rows.rows)] += 1
    built = []

    def recording(apex, left, right):
        built.append(rows_from_tangents(apex, left, right))
        return built[-1]

    with mock.patch.object(classify, "rows_from_tangents", recording):
        classify.classify_both(body, pts)
    deduped = classify._dedupe_points(list(pts))
    assert built == [contact_rows(bp.coords, tangents_at(body, bp)) for bp in deduped]


def test_integer_contact_rows_race_the_halfplane_rows():
    kinds: Counter = Counter()
    rng = random.Random(32)
    for seed in range(40):
        body = random_convex_polygon(seed, 3 + seed % 8)
        n = len(body.elements)
        vertices = [boundary_point(body, i, 0) for i in range(n)]
        inside = [boundary_point(body, i, Fraction(rng.randint(1, 2047), 2048)) for i in range(n)]
        race_rows(body, vertices[: rng.randint(1, n)], kinds)
        race_rows(body, inside[: rng.randint(1, n)], kinds)
        race_rows(body, cli._fuzz_points(body, rng, 5), kinds)
    fixtures = [(unit_disc(), ())]
    fixtures += [(fx.body, fx.points) for fx in [example_e1(n) for n in range(2, 6)] + [example_e2(n) for n in range(2, 5)]]
    for body, points in fixtures:
        n = len(body.elements)
        pts = [boundary_point(body, i, param) for i in range(n) for param in (0, Fraction(1, 3))]
        race_rows(body, list(points) + pts[:4], kinds)
        race_rows(body, pts, kinds)
    # A clockwise junction within tolerance, which validate snaps to straight:
    # its tangents differ, so the contact keeps two rows.
    eps = Fraction(1, 10**12)
    snapped = polygon([(0, 0), (1, eps), (2, 0), (2, 2), (0, 2)], mode=MIXED_INEXACT)
    validate(snapped)
    race_rows(snapped, [boundary_point(snapped, 1, 0), boundary_point(snapped, 1, Fraction(1, 2))], kinds)
    race_rows(snapped, [boundary_point(snapped, 1, 0), boundary_point(snapped, 3, 0)], kinds)
    assert kinds["vertex", 1] and kinds["vertex", 2] and kinds["segment", 1] and kinds["arc", 1], kinds


def test_a_zero_tangent_has_no_row():
    for left, right in (((0, 0), (1, 0)), ((1, 0), (0, 0))):
        with pytest.raises(ValueError, match="nonzero normal"):
            rows_from_tangents(Vec(1, 2), left, right)
        with pytest.raises(ValueError, match="nonzero normal"):
            contact_rows(Vec(1, 2), TangentData(Vec(*left), Vec(*right)))
