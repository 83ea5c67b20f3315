"""JSON round trips for bodies, contact points, witnesses, and reports."""

import time
from fractions import Fraction

import pytest

from immobilize2d import io
from immobilize2d.body import boundary_point
from immobilize2d.classify import classify_fix
from immobilize2d.errors import InvalidPointError, OutOfRangeError
from immobilize2d.fixtures import rectangle_remark, unit_disc, unit_square
from immobilize2d.geom import vec
from immobilize2d.oracle import escape_search


def test_scalar_forms_all_parse_exactly():
    assert io.scalar_from_json("3/4") == Fraction(3, 4)
    assert io.scalar_from_json("0.75") == Fraction(3, 4)
    assert io.scalar_from_json(0.75) == Fraction(3, 4)
    assert io.scalar_from_json(-2) == Fraction(-2)
    assert io.scalar_from_json("-7/2") == Fraction(-7, 2)
    assert io.scalar_to_json(Fraction(22, 7)) == "22/7"


def test_decimal_exponents_past_the_digit_limit_are_refused_before_parsing():
    # Fraction("1e-10000000") alone takes seconds to build: the bound is checked first.
    started = time.perf_counter()
    for v in ("1e-10000000", "1e-1_000_000", "1E4301", "-2.5e-4301", "3e+4_301", " 1e99999 "):
        with pytest.raises(OutOfRangeError, match="exponent"):
            io.scalar_from_json(v)
    assert time.perf_counter() - started < 1
    assert io.scalar_from_json("1e-4300") == Fraction(1, 10**4300)
    assert io.scalar_from_json("-1_5e4_300") == -15 * 10**4300
    assert io.scalar_from_json("2.5E-3") == Fraction(1, 400)
    for v in ("1e", "1e5e5", "e5"):
        with pytest.raises(OutOfRangeError, match="not a finite number"):
            io.scalar_from_json(v)


def test_terms_past_the_digit_limit_are_out_of_range():
    with pytest.raises(OutOfRangeError, match="too long to print"):
        io.scalar_to_json(Fraction(1, 10**4300))
    assert io.scalar_to_json(Fraction(1, 10**4299)) == "1/1" + "0" * 4299
    with pytest.raises(OutOfRangeError, match="malformed JSON"):
        io.loads('{"x": ' + "7" * 5001 + "}")
    assert io.loads('{"x": ' + "7" * 4300 + "}") == {"x": int("7" * 4300)}


def test_vector_round_trip_and_rejection():
    v = vec(Fraction(1, 3), Fraction(-5, 7))
    assert io.vec_from_json(io.vec_to_json(v)) == v
    with pytest.raises(InvalidPointError):
        io.vec_from_json({"x": "1"})
    with pytest.raises(InvalidPointError):
        io.vec_from_json(["1", "2"])


def test_polygon_body_round_trip():
    sq = unit_square()
    doc = io.body_to_json(sq)
    assert io.body_from_json(doc) == sq
    assert doc["mode"] == "exact_polygon"


def test_arc_body_round_trip():
    disc = unit_disc()
    doc = io.body_to_json(disc)
    assert io.body_from_json(doc) == disc
    kinds = [el["type"] for el in doc["elements"]]
    assert kinds == ["arc"] * 4


def test_points_round_trip_by_address_and_by_coords():
    sq = unit_square()
    pts = [boundary_point(sq, 0, Fraction(0)), boundary_point(sq, 2, Fraction(1, 2))]
    doc = io.points_to_json(pts)
    assert io.points_from_json(doc, sq) == pts

    by_coords = [{"coords": {"x": "1", "y": "0"}}]
    got = io.points_from_json(by_coords, sq)
    assert got[0].coords == vec(1, 0)
    assert (got[0].element_index, got[0].param) == (1, Fraction(1, 2))


def test_verdict_json_shape_and_witness_round_trip():
    fx = rectangle_remark()
    v = classify_fix(fx.body, fx.points)
    doc = io.verdict_to_json(v)
    assert doc["question"] == "FIX"
    assert doc["status"] == "FIRST_ORDER_INDETERMINATE"
    assert set(doc["tests"]) == {"openL", "openR", "closedL", "closedR", "directions"}
    assert doc["tests"]["directions"]["status"] == "NONEMPTY"
    assert doc["metadata"]["mode"] == "exact_polygon"
    assert "durations" not in doc["metadata"]

    w = io.witness_from_json(doc["witness"])
    assert w == v.witness

    timed = io.verdict_to_json(v, durations={"classify": 0.5})
    assert timed["metadata"]["durations"] == {"classify": 0.5}


def test_escape_report_json():
    fx = rectangle_remark()
    rep = escape_search(fx.body, fx.points, samples=300, seed=0)
    doc = io.escape_report_to_json(rep)
    assert doc["escape"]["family"] == "translation"
    assert doc["escape"]["direction"] == {"x": "1", "y": "0"}
    assert io.escape_report_to_json(None) == {"escape": None}


def test_dumps_is_stable_and_newline_terminated():
    sq = unit_square()
    a = io.dumps(io.body_to_json(sq))
    b = io.dumps(io.body_to_json(sq))
    assert a == b
    assert a.endswith("\n")
    assert io.loads(a) == io.body_to_json(sq)
