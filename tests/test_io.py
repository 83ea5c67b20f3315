"""JSON round trips for bodies, contact points, witnesses, and reports."""

import json
import math
import time
from fractions import Fraction

import pytest

from immobilize2d import cli, io
from immobilize2d.body import boundary_point, polygon
from immobilize2d.classify import classify_fix
from immobilize2d.errors import InvalidPointError, OutOfRangeError
from immobilize2d.fixtures import rectangle_remark, unit_disc, unit_square
from immobilize2d.geom import read_scalar, vec
from immobilize2d.oracle import escape_search
from test_cli import BAD_BODIES, BAD_PARAMS, BAD_POINTS, BROKEN_JSON


def test_scalar_forms_all_parse_exactly():
    assert read_scalar("3/4") == Fraction(3, 4)
    assert read_scalar("0.75") == Fraction(3, 4)
    assert read_scalar(0.75) == Fraction(3, 4)
    assert read_scalar(-2) == Fraction(-2)
    assert read_scalar("-7/2") == Fraction(-7, 2)
    assert io.scalar_to_json(Fraction(22, 7)) == "22/7"


def test_decimal_exponents_past_the_digit_limit_are_refused_before_parsing():
    # Fraction("1e-10000000") alone takes seconds to build: the bound is checked first.
    started = time.perf_counter()
    for v in ("1e-10000000", "1e-1_000_000", "1E4301", "-2.5e-4301", "3e+4_301", " 1e99999 "):
        with pytest.raises(OutOfRangeError, match="exponent"):
            read_scalar(v)
    assert time.perf_counter() - started < 1
    assert read_scalar("1e-4300") == Fraction(1, 10**4300)
    with pytest.raises(OutOfRangeError, match="inside it"):  # Fraction reads "_" only from CPython 3.11
        read_scalar("-1_5e4_300")
    assert read_scalar("2.5E-3") == Fraction(1, 400)
    for v in ("1e", "1e5e5", "e5"):
        with pytest.raises(OutOfRangeError, match="not a finite number"):
            read_scalar(v)


def test_digit_separators_and_inner_spaces_are_refused_on_every_python():
    # Fraction reads "1_0" only from CPython 3.11 and "1 / 2" only from 3.12 on.
    for v in ("1_0/4", "-1_5e4_300", "1.2_5", "1e1_0", "_1", " 1 / 2 ", "1/ 2", "1 /2", "+1/ 2"):
        with pytest.raises(OutOfRangeError, match="inside it"):
            read_scalar(v)
        with pytest.raises(OutOfRangeError, match="inside it"):
            io.points_from_json([{"element": 0, "param": v}], unit_square())
    assert read_scalar(" 1/2 ") == read_scalar("\t1/2\n") == Fraction(1, 2)


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

    # an element is read by read_scalar and must be an integer: ints, integral floats and strings
    for element in (2, 2.0, "2", " 2 ", "4/2"):
        assert io.points_from_json([{"element": element, "param": "1/2"}], sq) == pts[1:]
    for element in ("0_1", "1_0", 1.5, "3/2", True, "nan", float("inf"), None, [2]):
        with pytest.raises(InvalidPointError, match="integer 'element'"):
            io.points_from_json([{"element": element, "param": "1/2"}], sq)

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


ONE_BY_ONE = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def square_doc(*coords):
    """``ONE_BY_ONE``'s body document with its four vertices' coordinates as
    given, each vertex written twice, as in ``body_to_json``."""
    xy = [{"x": x, "y": y} for x, y in coords]
    return {
        "mode": "exact_polygon",
        "elements": [{"type": "segment", "a": xy[i], "b": xy[(i + 1) % 4]} for i in range(4)],
    }


def test_each_distinct_vector_is_read_once_per_document():
    body = io.body_from_json(square_doc((0, 0), (1, 0), (1, 1), (0, 1)))
    assert body == ONE_BY_ONE
    for el, nxt in zip(body.elements, body.elements[1:] + body.elements[:1]):
        assert el.b is nxt.a
    # 1, 1.0 and "1" read alike, each in its own entry
    for one in (1, 1.0, "1", "1/1", "1.0"):
        assert io.body_from_json(square_doc((0, 0), (one, 0), (one, one), (0, one))) == ONE_BY_ONE, one
    mixed = square_doc((0, 0), (1, 0), (1.0, "1"), ("0", 1))
    mixed["elements"][1]["a"] = {"x": "1", "y": 0.0}
    assert io.body_from_json(mixed) == ONE_BY_ONE


def run_main(argv, capsys) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().err


def test_a_boolean_after_a_number_is_still_refused(tmp_path, capsys):
    # true == 1 and hash(true) == hash(1): a vector read as (1, 0) must not stand in for (true, 0)
    doc = square_doc((0, 0), (1, 0), (1, 1), (0, 1))
    doc["elements"][1]["a"] = {"x": True, "y": 0}
    with pytest.raises(OutOfRangeError, match="boolean"):
        io.body_from_json(doc)
    body, points = tmp_path / "body.json", tmp_path / "points.json"
    body.write_text(json.dumps(doc))
    points.write_text(json.dumps([{"element": 0, "param": "1/2"}]))
    code, err = run_main(["classify", "--mode", "fix", "--body", str(body), "--points", str(points), "--exact"], capsys)
    assert code == 1 and "error[OUT_OF_RANGE]" in err and "boolean" in err, err


@pytest.mark.parametrize(
    "good, bad",
    [(1, True), (0, False), (1, "1/0"), (1, None), (1, [1]), (1, {"x": 1}), (1, math.nan), (1, math.inf), (1, "1e99999"), ("1", " 1 / 1 ")],
)
def test_a_refusal_does_not_depend_on_what_was_read_before(good, bad):
    # Only vectors read without error are kept, keyed by their coordinates' types:
    # a bad vector raises as it does when nothing was read before it.
    alone = square_doc((bad, 0), (1, 0), (1, 1), (0, 1))
    after = square_doc((0, 0), (good, 0), (1, 1), (0, 1))
    after["elements"][1]["a"] = {"x": bad, "y": 0}
    with pytest.raises(OutOfRangeError) as first:
        io.body_from_json(alone)
    with pytest.raises(OutOfRangeError) as second:
        io.body_from_json(after)
    assert str(first.value) == str(second.value)


def test_every_bad_document_keeps_its_exit_code_and_error_code(tmp_path, capsys):
    square, corners, bad = tmp_path / "square.json", tmp_path / "corners.json", tmp_path / "bad.json"
    square.write_text(io.dumps(io.body_to_json(unit_square())))
    corners.write_text(json.dumps([{"element": 0, "param": "0"}, {"element": 2, "param": "0"}]))

    def classify(body, points):
        return ["classify", "--mode", "fix", "--body", str(body), "--points", str(points), "--exact"]

    cases = [(doc, classify(square, bad), "INVALID_POINT") for doc in BAD_POINTS]
    cases += [(doc, classify(bad, corners), "OUT_OF_RANGE") for doc in BAD_BODIES + (BROKEN_JSON,)]
    cases += [(f'[{{"element": 0, "param": {param}}}]', classify(square, bad), "OUT_OF_RANGE") for param in BAD_PARAMS]
    for coordinate in BAD_PARAMS:
        doc = io.body_to_json(unit_square())
        doc["elements"][2]["a"]["x"] = "@"  # the square's (1, 1) vertex, read fine as the b before it
        cases.append((json.dumps(doc).replace('"@"', coordinate), classify(bad, corners), "OUT_OF_RANGE"))
    for doc, argv, code in cases:
        bad.write_text(doc)
        status, err = run_main(argv, capsys)
        assert status == 1, doc
        assert err.startswith(f"error[{code}]"), (doc, err)


def test_a_witness_of_unknown_kind_or_sense_is_out_of_range():
    center = {"kind": "rotation_center", "point": {"x": "1/2", "y": "1/2"}, "sense": "CW"}
    direction = {"kind": "direction", "direction": {"x": "1", "y": "0"}, "translation": {"x": "0", "y": "1"}}
    assert io.witness_from_json(center).sense == "CW"
    assert io.witness_from_json({**center, "sense": "CCW"}).sense == "CCW"
    assert io.witness_from_json(direction).kind == "direction"
    bad = [{**center, "sense": sense} for sense in ("<script>alert(1)</script>", 5, None, "cw", "", ["CW"])]
    bad += [{**w, "kind": kind} for w in (center, direction) for kind in ("bogus", None, 5, "", ["direction"])]
    for d in bad:
        with pytest.raises(OutOfRangeError, match="witness (sense|kind) must be"):
            io.witness_from_json(d)


def test_render_refuses_a_verdict_whose_witness_sense_or_kind_is_unknown(tmp_path, capsys):
    # a square held at the midpoints of edges 0 and 2 is indeterminate, blocked about its center
    square, mids, verdict, svg = (tmp_path / name for name in ("square.json", "mids.json", "v.json", "scene.svg"))
    square.write_text(io.dumps(io.body_to_json(unit_square())))
    mids.write_text(json.dumps([{"element": 0, "param": "1/2"}, {"element": 2, "param": "1/2"}]))
    assert cli.main(["classify", "--mode", "fix", "--body", str(square), "--points", str(mids), "--out", str(verdict)]) == 20
    capsys.readouterr()
    doc = json.loads(verdict.read_text())
    assert doc["witness"]["kind"] == "rotation_center"
    render = ["render", "--body", str(square), "--points", str(mids), "--verdict", str(verdict), "--svg", str(svg)]
    assert run_main(render, capsys) == (0, "")
    assert "center (CW)" in svg.read_text()
    svg.unlink()
    for key, value in (("sense", "<script>alert(1)</script>"), ("sense", 5), ("sense", None), ("kind", "bogus")):
        verdict.write_text(json.dumps({**doc, "witness": {**doc["witness"], key: value}}))
        status, err = run_main(render, capsys)
        assert status == 1 and err.startswith("error[OUT_OF_RANGE]") and "Traceback" not in err, (key, value, err)
        assert not svg.exists(), (key, value)
