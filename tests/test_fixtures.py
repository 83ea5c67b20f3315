"""Built-in example bodies and their pinned classifications."""

from fractions import Fraction

import pytest

from immobilize2d.body import MIXED_INEXACT, validate
from immobilize2d.classify import classify_almost_fix, classify_fix
from immobilize2d.errors import OutOfRangeError
from immobilize2d.fixtures import (
    example_e1,
    example_e2,
    random_convex_polygon,
    rectangle_remark,
    regular_polygon,
    unit_disc,
    unit_square,
)


def test_remark_fixture_matches_its_expected_block():
    fx = rectangle_remark()
    validate(fx.body)
    assert len(fx.points) == 3
    v = classify_fix(fx.body, fx.points)
    assert v.status == fx.expected["fix_status"]
    assert v.test("closedL").status == fx.expected["closedL"]
    assert v.test("closedR").status == fx.expected["closedR"]
    assert v.test("directions").status == fx.expected["directions"]
    assert not fx.truncated


def test_smooth_tangent_body_is_indeterminate_but_flagged():
    # Arc-and-tangent bodies are stored with floating snaps, so the verdict
    # must carry the near-degeneracy flag while still reproducing the
    # first-order stalemate.
    for n in (2, 6):
        fx = example_e1(n)
        validate(fx.body)
        assert fx.body.mode == MIXED_INEXACT
        assert fx.truncated
        assert len(fx.points) == 4
        v = classify_fix(fx.body, fx.points)
        assert v.status == fx.expected["fix_status"] == "FIRST_ORDER_INDETERMINATE"
        assert v.near_degenerate


def test_spiked_disc_keeps_closed_witnesses_on_both_sides():
    for n in (2, 4):
        fx = example_e2(n)
        validate(fx.body)
        assert fx.body.mode == MIXED_INEXACT
        v = classify_fix(fx.body, fx.points)
        a = classify_almost_fix(fx.body, fx.points)
        assert v.status == "FIRST_ORDER_INDETERMINATE"
        assert a.status == "FIRST_ORDER_INDETERMINATE"
        assert v.near_degenerate
        assert v.test("closedL").status == "NONEMPTY"
        assert v.test("closedL").near_degenerate
        assert v.test("closedR").status == "NONEMPTY"
        assert v.test("closedR").near_degenerate
        assert v.test("directions").status == "EMPTY"
        assert not v.test("directions").near_degenerate


def test_element_counts_scale_with_the_knob():
    assert len(example_e1(2).body.elements) == 6
    assert len(example_e1(6).body.elements) == 14
    assert len(example_e2(2).body.elements) == 7
    assert len(example_e2(4).body.elements) == 13


def test_parameter_bounds():
    with pytest.raises(OutOfRangeError):
        example_e1(1)
    with pytest.raises(OutOfRangeError):
        example_e1(21)
    with pytest.raises(OutOfRangeError):
        example_e2(1)
    with pytest.raises(OutOfRangeError):
        example_e2(13)
    with pytest.raises(OutOfRangeError):
        regular_polygon(2, 1)
    with pytest.raises(OutOfRangeError):
        regular_polygon(65, 1)
    for circumradius in (-1, 0):
        with pytest.raises(OutOfRangeError):
            regular_polygon(5, circumradius)
    with pytest.raises(OutOfRangeError):
        random_convex_polygon(0, 2)
    with pytest.raises(OutOfRangeError):
        random_convex_polygon(0, 65)


def test_simple_bodies_validate():
    validate(unit_square())
    validate(unit_disc())
    for k in (3, 5, 12):
        body = regular_polygon(k, Fraction(2))
        validate(body)
        assert len(body.elements) == k


def test_random_polygons_validate_and_replay():
    for seed in (1, 2, 77, 4096):
        a = random_convex_polygon(seed, 6)
        b = random_convex_polygon(seed, 6)
        validate(a)
        assert a == b
    assert random_convex_polygon(1, 6) != random_convex_polygon(2, 6)
