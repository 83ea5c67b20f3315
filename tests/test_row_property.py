"""Property test: a row is coprime ints in one form, and no positive factor
on a row changes a pick, a witness or a coordinate's type.

``halfplane_constraint`` and ``shifted`` are checked against the rational
row they stand for: ``nx, ny, c`` are coprime Python ints with the same
direction, ``c / norm1(n)`` and ``scale / norm1(n)``.  ``Segment.row``, built
from the endpoints on its own, must be that same coprime form.  Then every
row of a random sector system is multiplied by its own positive rational,
which leaves Fraction rows: ``first_branch`` must pick the same
alternatives, and ``linear_feasible`` and ``_improve_witness`` must return
the same witness, whose coordinates are ``Fraction``s, never floats.
"""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from immobilize2d.body import Segment, TangentData  # noqa: E402
from immobilize2d.feasibility import _improve_witness, first_branch, linear_feasible  # noqa: E402
from immobilize2d.geom import LinearConstraint, Vec, dot, halfplane_constraint, norm1, rot90_ccw  # noqa: E402
from immobilize2d.sectors import SECTOR_KINDS, make_sector  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)

rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
positives = st.builds(Fraction, st.integers(1, 60), st.integers(1, 60))
points = st.builds(Vec, rationals, rationals)
nonzero = points.filter(lambda v: not v.is_zero())


def assert_coprime_form(lc, nx, ny, c, strict, scale):
    """``lc`` is the row ``nx x + ny y >= c`` with tolerance unit ``scale``, as coprime ints."""
    assert all(type(v) is int for v in (lc.nx, lc.ny, lc.c)), lc
    assert gcd(lc.nx, lc.ny, lc.c) == 1 and lc.strict == strict
    n1, m1 = abs(lc.nx) + abs(lc.ny), abs(nx) + abs(ny)
    assert (Fraction(lc.nx, n1), Fraction(lc.ny, n1)) == (nx / m1, ny / m1)
    assert Fraction(lc.c, n1) == c / m1 and lc.scale / n1 == scale / m1


@SETTINGS
@hypothesis.given(points, nonzero, st.booleans(), rationals)
def test_rows_are_coprime_ints_with_the_rational_rows_terms(base, normal, closed, slack):
    scale = norm1(normal) * (1 + norm1(base))
    row = halfplane_constraint(base, normal, closed)
    assert_coprime_form(row, normal.x, normal.y, dot(normal, base), not closed, scale)
    twin = row.shifted(slack)
    assert_coprime_form(twin, normal.x, normal.y, dot(normal, base) - slack * scale, not closed, scale)


@SETTINGS
@hypothesis.given(points, points)
def test_segment_rows_are_the_builders_coprime_form(a, b):
    hypothesis.assume(a != b)
    lc = halfplane_constraint(a, rot90_ccw(b - a), True)
    assert Segment(a, b).row == (lc.nx, lc.ny, -lc.c, abs(lc.nx) + abs(lc.ny))


@st.composite
def sector_systems(draw):
    """Random sectors, and the same rows each times its own positive rational."""
    sectors = [
        make_sector(
            draw(st.sampled_from(SECTOR_KINDS)), draw(st.booleans()), draw(points), TangentData(draw(nonzero), draw(nonzero))
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    alternatives = [s.alternatives for s in sectors]

    def scaled(lc):
        k = draw(positives)
        return LinearConstraint(lc.nx * k, lc.ny * k, lc.c * k, lc.strict, lc.scale * k)

    rescaled = [tuple(tuple(scaled(lc) for lc in group) for group in alts) for alts in alternatives]
    return alternatives, rescaled, draw(points), draw(positives)


def picks(alternatives, branch):
    """The alternative of each sector that ``branch`` is made of."""
    out, at = [], 0
    for alts in alternatives:
        j = next(j for j, group in enumerate(alts) if all(a is b for a, b in zip(group, branch[at:])))
        out.append(j)
        at += len(alts[j])
    return out


def assert_fractions(p):
    assert type(p.x) is Fraction and type(p.y) is Fraction, p


@SETTINGS
@hypothesis.given(sector_systems())
def test_row_factors_change_no_pick_and_no_witness(system):
    alternatives, rescaled, anchor, spread = system
    branch, other = first_branch(alternatives), first_branch(rescaled)
    assert (branch is None) == (other is None)
    if branch is None:
        return
    assert picks(alternatives, branch) == picks(rescaled, other)
    res, res_other = linear_feasible(branch), linear_feasible(other)
    assert res.feasible == res_other.feasible and res.witness == res_other.witness
    if not res.feasible:
        return
    assert_fractions(res.witness)
    assert_fractions(res_other.witness)
    better = _improve_witness(branch, res.witness, anchor, spread)
    assert better == _improve_witness(other, res_other.witness, anchor, spread)
    assert_fractions(better)
    assert all(lc.holds(better) for lc in branch)
