"""The oracle's integer escape probes raced against ``tests/escape_reference.py``.

The probes take the points and the center as ``(x, y, w)`` ints, put over
one denominator once per search; the reference moves ``Fraction`` points
with the ``Fraction`` formulas of ``tests/containment_reference.py``.
Bodies are seeded random polygons (exact) and ``example_e1``,
``example_e2`` and ``unit_disc`` (mixed mode, with arcs, where a near-degenerate point counts as not clear).  Each case probes its
contact points together and each one alone.  Rotations cover both senses,
centers on every contact point, on every vertex and off the body, and each
half-angle of the default schedule plus 1/3; translations cover seven
directions at each default magnitude.  A spy on ``contains_over`` pins the
ints each probe hands it, not only their ratios.
"""

from fractions import Fraction
from math import lcm

import escape_reference as ref
import pytest
from containment_reference import reference_rotation
from immobilize2d import fixtures, oracle
from immobilize2d.body import boundary_point
from immobilize2d.geom import Vec, over_one_denominator

HALF_ANGLES = oracle.DEFAULT_ROTATION_SCHEDULE + (Fraction(1, 3),)
DIRECTIONS = [Vec(Fraction(1), Fraction(0)), Vec(Fraction(0), Fraction(1)), Vec(*reference_rotation(Fraction(1, 2)))]
DIRECTIONS += [-d for d in DIRECTIONS] + [Vec(Fraction(5, 7), Fraction(-2, 3))]


def cases():
    """(name, body, contact points) triples."""
    for seed in range(8):
        body = fixtures.random_convex_polygon(seed, 3 + seed % 5)
        n = len(body.elements)
        yield f"random{seed}-mid", body, [boundary_point(body, j, Fraction(1, 2)) for j in range(n)]
        yield f"random{seed}-vertex", body, [boundary_point(body, 0, Fraction(0)), boundary_point(body, n // 2, Fraction(0))]
    for make in (fixtures.example_e1, fixtures.example_e2):
        for n in (2, 3):
            fx = make(n)
            yield f"{make.__name__}({n})", fx.body, list(fx.points)
    disc = fixtures.unit_disc()
    yield "unit_disc", disc, [boundary_point(disc, 0, Fraction(0)), boundary_point(disc, 1, Fraction(1, 2))]


def centers(body, pts):
    lo, hi = body.bounding_box()
    off = Vec(hi.x + (hi.x - lo.x) / 3, (lo.y + hi.y) / 2)
    return [bp.coords for bp in pts] + body.vertices() + [off]


CASES = list(cases())


def point_sets(pts):
    """All the contact points, then each one alone, so that both outcomes occur."""
    return [pts] + [[bp] for bp in pts]


@pytest.mark.parametrize("name, body, pts", CASES, ids=[c[0] for c in CASES])
def test_rotation_probes_match_the_fraction_reference(name, body, pts):
    seen = set()
    for subset in point_sets(pts):
        over_one = oracle._homogeneous(subset)
        for center in centers(body, pts):
            (ox, oy), ow = over_one_denominator(center.x, center.y)
            for sense in (oracle.CW, oracle.CCW):
                for t in HALF_ANGLES:
                    expected = ref.rotation_clear(body, subset, center, sense, t)
                    assert oracle._rotation_clear(body, over_one, (ox, oy, ow), sense, t) == expected, (subset, center, sense, t)
                    seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("name, body, pts", CASES, ids=[c[0] for c in CASES])
def test_translation_probes_match_the_fraction_reference(name, body, pts):
    seen = set()
    for subset in point_sets(pts):
        over_one = oracle._homogeneous(subset)
        for d in DIRECTIONS:
            for m in oracle.DEFAULT_TRANSLATION_SCHEDULE:
                v = d.scaled(m)
                expected = ref.translation_clear(body, subset, v)
                assert oracle._translation_clear(body, over_one, v) == expected, (subset, v)
                seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("name, body, pts", CASES, ids=[c[0] for c in CASES])
def test_probes_hand_contains_over_the_same_ints(monkeypatch, name, body, pts):
    seen = []
    real = oracle.contains_over
    monkeypatch.setattr(oracle, "contains_over", lambda body, x, y, w: seen.append((x, y, w)) or real(body, x, y, w))
    over_one = oracle._homogeneous(pts)

    def check(clear, expected):
        assert seen and seen == expected[: len(seen)]
        assert not clear or len(seen) == len(expected)
        seen.clear()

    for center in centers(body, pts):
        (ox, oy), ow = over_one_denominator(center.x, center.y)
        for sense in (oracle.CW, oracle.CCW):
            for t in HALF_ANGLES:
                p, q = t.numerator, t.denominator
                c, s, d = q * q - p * p, (2 * p * q if sense == oracle.CCW else -2 * p * q), q * q + p * p
                expected = []
                for px, py, pw in over_one:
                    dx, dy = px * ow - ox * pw, py * ow - oy * pw
                    expected.append((ox * d * pw + c * dx - s * dy, oy * d * pw + s * dx + c * dy, ow * d * pw))
                check(oracle._rotation_clear(body, over_one, (ox, oy, ow), sense, t), expected)
    for direction in DIRECTIONS:
        for m in oracle.DEFAULT_TRANSLATION_SCHEDULE:
            v = direction.scaled(m)
            vw = lcm(v.x.denominator, v.y.denominator)
            vx, vy = v.x.numerator * (vw // v.x.denominator), v.y.numerator * (vw // v.y.denominator)
            expected = [(px * vw + vx * pw, py * vw + vy * pw, pw * vw) for px, py, pw in over_one]
            check(oracle._translation_clear(body, over_one, v), expected)
