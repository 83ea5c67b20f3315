"""Numeric escape-motion oracle: witness validation and the sampling search."""

import sys
from fractions import Fraction

import pytest
from containment_reference import reference_rotation
from test_escape_bytes import escape_cases

from immobilize2d import geom, oracle
from immobilize2d.body import boundary_point
from immobilize2d.errors import InexactModeUnsupportedError, OutOfRangeError
from immobilize2d.fixtures import rectangle_remark, unit_disc, unit_square
from immobilize2d.geom import Vec, rotation_unit, vec


def square_opposite_corners():
    sq = unit_square()
    return sq, [boundary_point(sq, 0, Fraction(0)), boundary_point(sq, 2, Fraction(0))]


def square_edge_midpoints():
    sq = unit_square()
    return sq, [boundary_point(sq, i, Fraction(1, 2)) for i in range(4)]


def test_corner_pair_rotation_validates_both_senses():
    sq, oc = square_opposite_corners()
    assert oracle.validate_rotation_witness(sq, oc, vec(0, 0), "CW")
    assert oracle.validate_rotation_witness(sq, oc, vec(0, 0), "CCW")


def test_midpoint_rotation_fails_validation():
    # Rotating the four edge midpoints about the center drags them onto the
    # inscribed circle's interior chords: every magnitude penetrates.
    sq, mids = square_edge_midpoints()
    assert not oracle.validate_rotation_witness(sq, mids, vec(0, 0), "CW")
    assert not oracle.validate_rotation_witness(sq, mids, vec(0, 0), "CCW")


def test_translation_witness_validation():
    fx = rectangle_remark()
    assert oracle.validate_translation_witness(fx.body, fx.points, vec(1, 0))
    assert oracle.validate_translation_witness(fx.body, fx.points, vec(-1, 0))
    assert not oracle.validate_translation_witness(fx.body, fx.points, vec(0, 1))
    assert not oracle.validate_translation_witness(fx.body, fx.points, vec(0, -1))


def test_validation_requires_exact_bodies():
    disc = unit_disc()
    pts = [boundary_point(disc, 0, Fraction(0))]
    with pytest.raises(InexactModeUnsupportedError):
        oracle.validate_rotation_witness(disc, pts, vec(2, 0), "CW")
    with pytest.raises(InexactModeUnsupportedError):
        oracle.validate_translation_witness(disc, pts, vec(1, 0))


def test_validators_evaluate_only_the_last_three_magnitudes(monkeypatch):
    sq = unit_square()
    pts = [boundary_point(sq, 0, Fraction(1, 2))]
    seen = []

    def fake_rotation_clear(body, pts, center, sense, t):
        seen.append(t)
        return t not in failing

    def fake_translation_clear(body, pts, v):
        seen.append(v.x)
        return v.x not in failing

    monkeypatch.setattr(oracle, "_rotation_clear", fake_rotation_clear)
    monkeypatch.setattr(oracle, "_translation_clear", fake_translation_clear)
    validators = (
        (oracle.DEFAULT_ROTATION_SCHEDULE, lambda: oracle.validate_rotation_witness(sq, pts, vec(0, 0), oracle.CW)),
        (oracle.DEFAULT_TRANSLATION_SCHEDULE, lambda: oracle.validate_translation_witness(sq, pts, vec(1, 0))),
    )
    for schedule, validate in validators:
        tail = schedule[-3:]
        for mask in range(1 << len(schedule)):
            failing = {m for k, m in enumerate(schedule) if mask >> k & 1}
            seen.clear()
            ok = validate()
            assert ok == (not failing & set(tail)), (schedule, failing)
            assert set(seen) <= set(tail), (schedule, failing, seen)


def test_validators_refuse_a_non_move(monkeypatch):
    # the identity leaves pinned points where they are, so it would "validate"
    sq, mids = square_edge_midpoints()
    probes = []
    monkeypatch.setattr(oracle, "_translation_clear", lambda *args: probes.append(args) or True)
    with pytest.raises(OutOfRangeError):
        oracle.validate_translation_witness(sq, mids, vec(0, 0))
    assert probes == []


def test_validators_refuse_a_non_finite_argument(monkeypatch):
    sq, mids = square_edge_midpoints()
    probes = []
    monkeypatch.setattr(oracle, "_rotation_clear", lambda *args: probes.append(args) or True)
    monkeypatch.setattr(oracle, "_translation_clear", lambda *args: probes.append(args) or True)
    # a Vec reads its coordinates when it is made, so a non-finite one never reaches a validator
    for x, y in ((float("nan"), Fraction(0)), (Fraction(1), float("inf")), ("x", Fraction(0)), (True, Fraction(0))):
        with pytest.raises(OutOfRangeError):
            Vec(x, y)
    for bad in (None, (Fraction(1), Fraction(0))):
        with pytest.raises(OutOfRangeError, match="is not a Vec"):
            oracle.validate_translation_witness(sq, mids, bad)
        with pytest.raises(OutOfRangeError, match="is not a Vec"):
            oracle.validate_rotation_witness(sq, mids, bad, oracle.CW)
    assert probes == []


def test_rotation_probes_read_t_as_a_scalar_and_refuse_an_unknown_sense():
    sq, oc = square_opposite_corners()
    oc = oracle._homogeneous(oc)
    for sense in (oracle.CW, oracle.CCW):
        assert oracle._rotation_clear(sq, oc, (0, 0, 1), sense, "1/10") == oracle._rotation_clear(sq, oc, (0, 0, 1), sense, Fraction(1, 10))
        assert oracle._rotation_clear(sq, oc, (3, 1, 1), sense, 1) == oracle._rotation_clear(sq, oc, (3, 1, 1), sense, Fraction(1))
    with pytest.raises(ValueError, match="unknown sense"):
        oracle._rotation_clear(sq, oc, (0, 0, 1), "cw", Fraction(1, 10))


def test_escape_search_finds_the_sliding_rectangle():
    fx = rectangle_remark()
    rep = oracle.escape_search(fx.body, fx.points, samples=300, seed=0)
    assert rep is not None
    assert rep.family == "translation"
    assert rep.direction in (vec(1, 0), vec(-1, 0))
    assert rep.magnitudes == oracle.DEFAULT_TRANSLATION_SCHEDULE
    assert all(rep.penetration_free)


def test_escape_search_finds_the_corner_pivot():
    sq, oc = square_opposite_corners()
    rep = oracle.escape_search(sq, oc, samples=400, seed=0)
    assert rep is not None
    assert rep.family == "rotation"
    assert rep.center == vec(0, 0)
    assert rep.sense == "CW"
    assert rep.magnitudes == oracle.DEFAULT_ROTATION_SCHEDULE


def test_translation_directions_are_the_eager_net_in_order():
    for net in (1, 2, 3, 7, 60):
        eager = []
        for k in range(net + 1):
            d = Vec(*reference_rotation(Fraction(k, net)))
            eager += [d, -d]
        eager += [vec(0, 1), vec(0, -1)]
        assert [Vec(Fraction(c, d), Fraction(s, d)) for c, s, d in oracle._directions(net)] == eager


def test_a_rotation_escape_builds_no_translation_direction(monkeypatch):
    # a half-angle unit asked for outside the rotation probe is a translation direction
    calls, unit, probe = [], oracle.half_angle_unit, oracle._rotation_clear.__code__

    def counted(t):
        if sys._getframe(1).f_code is not probe:
            calls.append(t)
        return unit(t)

    monkeypatch.setattr(oracle, "half_angle_unit", counted)
    sq, oc = square_opposite_corners()
    for radius, samples in ((None, 400), (Fraction(1, 2), 20)):
        assert oracle.escape_search(sq, oc, radius=radius, samples=samples, seed=0).family == "rotation"
    assert calls == []
    # a translation escape does read the net, and stops at the direction it reports
    fx = rectangle_remark()
    assert oracle.escape_search(fx.body, fx.points, samples=300, seed=0).family == "translation"
    assert calls == [Fraction(0)]
    # over the pinned searches, exactly the rotation reports read none of it
    for body, pts, radius in escape_cases():
        calls.clear()
        report = oracle.escape_search(body, pts, radius=radius, samples=400, seed=3)
        assert (calls == []) == (report is not None and report.family == "rotation")


def test_a_rotation_escape_reads_its_units_from_the_table(monkeypatch):
    # the table holds each default step's unit in both senses, CW first
    assert list(oracle._ROTATION_UNITS) == [oracle.CW, oracle.CCW]
    for sense, steps in oracle._ROTATION_UNITS.items():
        assert steps == tuple((t, rotation_unit(t, sense)) for t in oracle.DEFAULT_ROTATION_SCHEDULE)
    # so a search that reports a rotation builds no half-angle unit, here or in rotation_unit
    calls = []
    for module in (oracle, geom):
        monkeypatch.setattr(module, "half_angle_unit", lambda t, unit=module.half_angle_unit: calls.append(t) or unit(t))
    sq, oc = square_opposite_corners()
    assert oracle.escape_search(sq, oc, samples=400, seed=0).family == "rotation"
    assert calls == []
    rotations = 0
    for body, pts, radius in escape_cases():
        report = oracle.escape_search(body, pts, radius=radius, samples=400, seed=3)
        if report is not None and report.family == "rotation":
            rotations += 1
            assert calls == []
        calls.clear()
    assert rotations


def test_escape_search_exhausts_on_pinned_midpoints():
    sq, mids = square_edge_midpoints()
    assert oracle.escape_search(sq, mids, samples=240, seed=0) is None


def test_escape_search_skips_the_disc_spin():
    # Spinning a disc about its own center moves no material: it must not be
    # reported as an escape for three spread contacts.
    disc = unit_disc()
    pts = [
        boundary_point(disc, 0, Fraction(0)),
        boundary_point(disc, 1, Fraction(1, 2)),
        boundary_point(disc, 3, Fraction(1, 2)),
    ]
    assert oracle.escape_search(disc, pts, samples=150, seed=2) is None


def test_escape_search_slides_a_two_point_disc():
    disc = unit_disc()
    pts = [boundary_point(disc, 0, Fraction(0)), boundary_point(disc, 2, Fraction(0))]
    rep = oracle.escape_search(disc, pts, samples=200, seed=1)
    assert rep is not None
    assert rep.family == "translation"
    assert rep.direction in (vec(0, 1), vec(0, -1))


def test_escape_search_sample_budget():
    sq, oc = square_opposite_corners()
    with pytest.raises(OutOfRangeError):
        oracle.escape_search(sq, oc, samples=10**6 + 1)
    with pytest.raises(OutOfRangeError):
        oracle.escape_search(sq, oc, samples=-1)


def test_escape_search_refuses_a_sample_budget_that_is_not_an_int():
    sq, oc = square_opposite_corners()
    for samples in ("5", 2.5, True, False, None, Fraction(20)):
        with pytest.raises(OutOfRangeError):
            oracle.escape_search(sq, oc, samples=samples)


def test_escape_search_refuses_a_non_finite_radius():
    sq, oc = square_opposite_corners()
    for radius in (float("nan"), float("inf"), "x", "1/0"):
        with pytest.raises(OutOfRangeError):
            oracle.escape_search(sq, oc, radius=radius, samples=20)


def test_escape_search_refuses_a_non_positive_radius():
    sq, oc = square_opposite_corners()
    for radius in (0, -1, Fraction(-1, 2), "0"):
        with pytest.raises(OutOfRangeError):
            oracle.escape_search(sq, oc, radius=radius, samples=20)
    report = oracle.escape_search(sq, oc, radius=Fraction(1, 2), samples=20)
    assert report is not None and report.family == "rotation"
