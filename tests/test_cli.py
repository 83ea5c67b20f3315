"""Command-line interface: exit codes, JSON artifacts, determinism."""

import json
import subprocess
import sys
import time

import pytest

from immobilize2d import cli, io
from immobilize2d.errors import NotOnBoundaryError, OutOfRangeError, RefinementExhaustedError
from immobilize2d.geom import read_scalar


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "immobilize2d", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture()
def square_files(tmp_path):
    body = tmp_path / "square.json"
    r = run_cli("fixture", "--name", "square", "--body-out", str(body))
    assert r.returncode == 0
    corners = tmp_path / "corners.json"
    corners.write_text(json.dumps([
        {"element": 0, "param": "0"},
        {"element": 2, "param": "0"},
    ]))
    mids = tmp_path / "mids.json"
    mids.write_text(json.dumps([
        {"element": i, "param": "1/2"} for i in range(4)
    ]))
    return body, corners, mids


@pytest.fixture()
def remark_files(tmp_path):
    body = tmp_path / "remark_body.json"
    points = tmp_path / "remark_points.json"
    r = run_cli("fixture", "--name", "remark", "--body-out", str(body), "--points-out", str(points))
    assert r.returncode == 0
    summary = json.loads(r.stdout)
    assert summary["name"] == "remark"
    return body, points


def test_classify_exit_codes_cover_the_trichotomy(square_files, remark_files):
    sq, corners, _ = square_files
    remark_body, remark_points = remark_files

    r = run_cli("classify", "--mode", "fix", "--body", str(remark_body), "--points", str(remark_points), "--exact")
    assert r.returncode == 20
    doc = json.loads(r.stdout)
    assert doc["status"] == "FIRST_ORDER_INDETERMINATE"

    r = run_cli("classify", "--mode", "fix", "--body", str(sq), "--points", str(corners), "--exact")
    assert r.returncode == 10
    doc = json.loads(r.stdout)
    assert doc["status"] == "NOT_WEAKLY_FIX"
    assert doc["witness"]["kind"] == "rotation_center"

    r = run_cli("classify", "--mode", "almost", "--body", str(sq), "--points", str(corners), "--exact")
    assert r.returncode == 0
    assert json.loads(r.stdout)["status"] == "POSITIVE"


def test_classify_writes_out_file(square_files, tmp_path):
    sq, corners, _ = square_files
    out = tmp_path / "verdict.json"
    r = run_cli("classify", "--mode", "fix", "--body", str(sq), "--points", str(corners), "--exact", "--out", str(out))
    assert r.returncode == 10
    assert json.loads(out.read_text())["status"] == "NOT_WEAKLY_FIX"


def test_classify_timings_flag_adds_durations(square_files):
    sq, corners, _ = square_files
    plain = run_cli("classify", "--mode", "fix", "--body", str(sq), "--points", str(corners), "--exact")
    timed = run_cli("classify", "--mode", "fix", "--body", str(sq), "--points", str(corners), "--exact", "--timings")
    assert "durations" not in json.loads(plain.stdout)["metadata"]
    assert "durations" in json.loads(timed.stdout)["metadata"]


def test_exact_and_tol_are_mutually_exclusive(square_files):
    sq, corners, _ = square_files
    r = run_cli("classify", "--mode", "fix", "--body", str(sq), "--points", str(corners), "--exact", "--tol", "1/10")
    assert r.returncode == 2


def test_refine_exit_codes(square_files, remark_files):
    sq, corners, _ = square_files
    remark_body, remark_points = remark_files

    r = run_cli("refine", "--body", str(sq), "--points", str(corners), "--epsilon", "1/5")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["placement"]["delta"] == "1/10"
    assert doc["verdict"]["status"] == "POSITIVE"

    r = run_cli("refine", "--body", str(remark_body), "--points", str(remark_points), "--epsilon", "1/5")
    assert r.returncode == 11


def test_refine_exhausted_exits_12_through_main(square_files, monkeypatch, capsys):
    sq, corners, _ = square_files

    def exhausted(body, pts, eps):
        raise RefinementExhaustedError("no fixing placement found down to radius 1/5/2**20")

    monkeypatch.setattr(cli.cls, "refine_almost_to_fix", exhausted)
    assert cli.main(["refine", "--body", str(sq), "--points", str(corners), "--epsilon", "1/5"]) == 12
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[REFINEMENT_EXHAUSTED]: no fixing placement found down to radius 1/5/2**20\n"


def test_escape_reports_the_sliding_family(remark_files):
    body, points = remark_files
    r = run_cli("escape", "--body", str(body), "--points", str(points), "--samples", "300")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["escape"]["family"] == "translation"
    assert doc["escape"]["direction"]["y"] == "0"


def test_escape_exhausted_is_its_own_exit(square_files):
    sq, _, mids = square_files
    r = run_cli("escape", "--body", str(sq), "--points", str(mids), "--samples", "240")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["escape"] is None
    assert doc["body_is_disc"] is False


def test_fuzz_accepts_zero_and_rejects_out_of_range():
    assert run_cli("fuzz", "--trials", "0").returncode == 0
    r = run_cli("fuzz", "--trials", "-1")
    assert r.returncode == 1
    assert "OUT_OF_RANGE" in r.stderr
    r = run_cli("fuzz", "--trials", "100001")
    assert r.returncode == 1


def test_fuzz_refuses_max_points_out_of_range(monkeypatch, capsys):
    trials = []

    def fake_trial(seed, index, max_points):
        trials.append(max_points)
        return {"trial": index, "skipped": True}

    monkeypatch.setattr(cli, "_fuzz_trial", fake_trial)
    for bad in (1, 0, 33, 100000):
        assert cli.main(["fuzz", "--trials", "3", "--max-points", str(bad)]) == 1
        assert "error[OUT_OF_RANGE]" in capsys.readouterr().err
    assert trials == []
    for good in (2, 32):
        assert cli.main(["fuzz", "--trials", "1", "--max-points", str(good)]) == 0
    assert trials == [2, 32]


def test_negative_tolerance_and_sample_budget_are_coded_errors(square_files, capsys):
    sq, corners, _ = square_files
    for argv in (
        ["classify", "--mode", "fix", "--body", str(sq), "--points", str(corners), "--tol=-1/10"],
        ["classify", "--mode", "almost", "--body", str(sq), "--points", str(corners), "--tol=-1/10"],
        ["escape", "--body", str(sq), "--points", str(corners), "--samples", "-5"],
    ):
        assert cli.main(argv) == 1, argv
        out = capsys.readouterr()
        assert "error[OUT_OF_RANGE]" in out.err and out.out == "", (argv, out)


def test_non_positive_radius_and_epsilon_and_infinite_window_are_coded_errors(square_files, tmp_path, capsys):
    sq, corners, _ = square_files
    svg = tmp_path / "x.svg"
    argvs = [["escape", "--body", str(sq), "--points", str(corners), "--samples", "20", f"--radius={r}"] for r in ("0", "-1")]
    argvs += [["refine", "--body", str(sq), "--points", str(corners), f"--epsilon={e}"] for e in ("0", "-1")]
    argvs += [
        ["render", "--body", str(sq), "--svg", str(svg), f"--window={w}"]
        for w in ("0,0,inf,1", "-inf,0,1,1", "0,0,1,1e400", "0,-Infinity,1,1", "-1e308,0,1e308,1")
    ]
    body_out = tmp_path / "regular.json"
    argvs += [["fixture", "--name", "regular", f"--circumradius={r}", "--body-out", str(body_out)] for r in ("-1", "0")]
    for argv in argvs:
        assert cli.main(argv) == 1, argv
        out = capsys.readouterr()
        assert "error[OUT_OF_RANGE]" in out.err and "Traceback" not in out.err and out.out == "", (argv, out)
    assert not svg.exists() and not body_out.exists()
    assert cli.main(["escape", "--body", str(sq), "--points", str(corners), "--samples", "20", "--radius=1/2"]) == 0
    assert json.loads(capsys.readouterr().out)["escape"]["family"] == "rotation"


def _write_body(path, mode, elements):
    path.write_text(json.dumps({"mode": mode, "elements": elements}))
    return path


def _corner(x, y):
    return {"x": str(x), "y": str(y)}


def test_coordinates_past_float_range_are_coded_errors(tmp_path, capsys):
    # Coordinates of 10^200 and 10^400 overflow the float steps (arc area and
    # sweep, segment length, drawing): OUT_OF_RANGE, never a traceback.
    verts = tmp_path / "verts.json"
    verts.write_text(json.dumps([{"element": i, "param": "0"} for i in range(3)]))
    svg = tmp_path / "x.svg"
    argvs = []
    for e in (200, 400):
        r = 10**e
        quarter = _write_body(tmp_path / f"quarter{e}.json", "mixed_inexact", [
            {"type": "segment", "a": _corner(0, 0), "b": _corner(r, 0)},
            {"type": "arc", "center": _corner(0, 0), "radius": str(r), "from": _corner(r, 0), "to": _corner(0, r)},
            {"type": "segment", "a": _corner(0, r), "b": _corner(0, 0)},
        ])
        triangle = _write_body(tmp_path / f"triangle{e}.json", "exact_polygon", [
            {"type": "segment", "a": _corner(0, 0), "b": _corner(r, 0)},
            {"type": "segment", "a": _corner(r, 0), "b": _corner(0, r)},
            {"type": "segment", "a": _corner(0, r), "b": _corner(0, 0)},
        ])
        argvs.append(["classify", "--mode", "fix", "--body", str(quarter), "--points", str(verts)])
        if e == 200:
            argvs.append(["refine", "--epsilon", "1/5", "--body", str(triangle), "--points", str(verts)])
        else:
            argvs.append(["render", "--body", str(triangle), "--points", str(verts), "--svg", str(svg)])
    for argv in argvs:
        assert cli.main(argv) == 1, argv
        out = capsys.readouterr()
        assert "error[OUT_OF_RANGE]" in out.err and out.out == "", (argv, out)
    assert not svg.exists()


def test_exponents_and_digits_past_the_limit_are_coded_errors(square_files, tmp_path, capsys):
    # Fraction builds 10 ** exponent: "1e-1000000" used to take over 30 s, and
    # terms past 4 300 digits used to end in an uncoded ValueError.
    sq, corners, _ = square_files
    big = "1e-1000000"
    body = json.loads(sq.read_text())
    body["elements"][0]["a"]["x"] = body["elements"][3]["b"]["x"] = big
    coord = tmp_path / "coord.json"
    coord.write_text(json.dumps(body))
    body["elements"][0]["a"]["x"] = body["elements"][3]["b"]["x"] = -1
    literal = tmp_path / "literal.json"
    literal.write_text(json.dumps(body).replace('"y": "-1"', '"y": ' + "1" * 5001, 1))
    param = tmp_path / "param.json"
    param.write_text(json.dumps([{"element": 0, "param": big}]))
    argvs = [
        ["classify", "--mode", "fix", "--body", str(coord), "--points", str(corners)],
        ["classify", "--mode", "fix", "--body", str(sq), "--points", str(param)],
        ["classify", "--mode", "fix", "--body", str(sq), "--points", str(corners), f"--tol={big}"],
        ["refine", "--body", str(sq), "--points", str(corners), f"--epsilon={big}"],
        ["classify", "--mode", "fix", "--body", str(literal), "--points", str(corners)],
        # Passes the exponent bound, but the verdict's tolerance has 4 301 digits.
        ["classify", "--mode", "fix", "--body", str(sq), "--points", str(corners), "--tol=1e-4300"],
    ]
    for argv in argvs:
        started = time.perf_counter()
        assert cli.main(argv) == 1, argv
        assert time.perf_counter() - started < 10, argv
        out = capsys.readouterr()
        assert "error[OUT_OF_RANGE]" in out.err and out.out == "", (argv, out)


def test_fuzz_small_run_is_clean_and_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    r1 = run_cli("fuzz", "--trials", "20", "--seed", "5", "--out", str(out1))
    r2 = run_cli("fuzz", "--trials", "20", "--seed", "5", "--out", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["trials"] == 20
    assert doc["violations"] == []


def test_fuzz_reports_each_violation_and_exits_13(monkeypatch, tmp_path):
    # each case fakes the two verdicts, the witness check and the escape search
    # so that exactly one of the trial's consistency checks fails
    from types import SimpleNamespace

    from immobilize2d import classify as cls
    from immobilize2d import oracle

    fix_point, almost_point, report = object(), object(), object()
    cases = (
        (cls.POSITIVE, cls.INDETERMINATE, None, None, "fix POSITIVE but almost-fix not POSITIVE"),
        (cls.INDETERMINATE, cls.NOT_ALMOST_FIX, None, None, "NOT_ALMOST_FIX without NOT_WEAKLY_FIX"),
        (cls.NOT_WEAKLY_FIX, cls.NOT_ALMOST_FIX, fix_point, None, "fix rotation witness failed exact validation"),
        (cls.NOT_WEAKLY_FIX, cls.NOT_ALMOST_FIX, almost_point, None, "almost rotation witness failed exact validation"),
        (cls.POSITIVE, cls.POSITIVE, None, report, "escape motion found despite POSITIVE fix verdict"),
    )
    for fix, almost, refuted, escape, message in cases:
        fix_verdict = SimpleNamespace(status=fix, witness=SimpleNamespace(point=fix_point, sense="CW"))
        almost_verdict = SimpleNamespace(status=almost, witness=SimpleNamespace(point=almost_point, sense="CCW"))
        monkeypatch.setattr(cls, "classify_both", lambda body, pts, v=(fix_verdict, almost_verdict): v)
        monkeypatch.setattr(oracle, "validate_rotation_witness", lambda body, pts, point, sense, r=refuted: point is not r)
        monkeypatch.setattr(oracle, "escape_search", lambda body, pts, samples, seed, e=escape: e)
        assert cli._fuzz_trial(5, 0, 5)["violations"] == [message]
        out = tmp_path / "fuzz.json"
        assert cli.main(["fuzz", "--trials", "1", "--seed", "5", "--out", str(out)]) == cli.EXIT_FUZZ_VIOLATION == 13
        assert json.loads(out.read_text())["violations"] == [{"trial": 0, "violation": message}]


def test_render_produces_svg(square_files, tmp_path):
    sq, corners, _ = square_files
    verdict = tmp_path / "v.json"
    run_cli("classify", "--mode", "fix", "--body", str(sq), "--points", str(corners), "--exact", "--out", str(verdict))
    svg = tmp_path / "scene.svg"
    r = run_cli("render", "--body", str(sq), "--points", str(corners), "--verdict", str(verdict), "--svg", str(svg))
    assert r.returncode == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert 'class="body"' in text
    assert 'class="contact"' in text
    assert 'class="witness"' in text


def test_render_window_validation(square_files, tmp_path):
    sq, _, _ = square_files
    svg = tmp_path / "x.svg"
    r = run_cli("render", "--body", str(sq), "--svg", str(svg), "--window", "1,2,3")
    assert r.returncode == 1 and "OUT_OF_RANGE" in r.stderr
    r = run_cli("render", "--body", str(sq), "--svg", str(svg), "--window", "2,0,1,1")
    assert r.returncode == 1 and "positive extent" in r.stderr
    # each corner is read by the one number reader, which refuses digit separators
    r = run_cli("render", "--body", str(sq), "--svg", str(svg), "--window", "1_0,0,20,10")
    assert r.returncode == 1 and "error[OUT_OF_RANGE]" in r.stderr and "window coordinate" in r.stderr
    assert not svg.exists()


def test_missing_input_file_is_a_plain_error(square_files, tmp_path):
    sq, corners, _ = square_files
    r = run_cli("classify", "--mode", "fix", "--body", str(tmp_path / "nope.json"), "--points", str(corners), "--exact")
    assert r.returncode == 1
    assert "error" in r.stderr


def test_invalid_body_reports_validation_code(tmp_path, square_files):
    _, corners, _ = square_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "mode": "exact_polygon",
        "elements": [
            {"type": "segment", "a": {"x": "0", "y": "0"}, "b": {"x": "0", "y": "1"}},
            {"type": "segment", "a": {"x": "0", "y": "1"}, "b": {"x": "1", "y": "1"}},
            {"type": "segment", "a": {"x": "1", "y": "1"}, "b": {"x": "1", "y": "0"}},
            {"type": "segment", "a": {"x": "1", "y": "0"}, "b": {"x": "0", "y": "0"}},
        ],
    }))
    r = run_cli("classify", "--mode", "fix", "--body", str(bad), "--points", str(corners), "--exact")
    assert r.returncode == 1
    assert "NOT_CCW" in r.stderr


# Raw JSON for the param: a zero denominator, non-finite numbers (json.loads
# accepts Infinity and NaN; 1e400 overflows to inf), malformed strings and
# booleans, which Python would otherwise read as 1 and 0.
BAD_PARAMS = ('"1/0"', "Infinity", "-Infinity", "1e400", "NaN", '"inf"', '"nan"', '"x/2"', '"1/x"', '"1/2/3"', '""', "true", "false")


def test_zero_denominator_is_a_coded_error(square_files, tmp_path):
    sq, _, _ = square_files
    pts = tmp_path / "bad_param.json"
    for param in BAD_PARAMS:
        pts.write_text(f'[{{"element": 0, "param": {param}}}]')
        r = run_cli("classify", "--mode", "fix", "--body", str(sq), "--points", str(pts), "--exact")
        assert r.returncode == 1, param
        assert "error[OUT_OF_RANGE]" in r.stderr, (param, r.stderr)
        assert "Traceback" not in r.stderr, param


# Forms with a space, a sign or a digit separator around the slash, which the
# reader refuses on every Python, and forms it takes: every reader of a number
# agrees on each.
SCALAR_STRINGS = ("3/4", " 1/2 ", " 1 / 2 ", "+1/ 2", "1/-2", "1/+2", "2.5E-3", "1_0/4", "1/0", "nan")


def test_flags_documents_and_library_read_a_scalar_alike(square_files, tmp_path, capsys):
    sq, corners, _ = square_files
    pts = tmp_path / "param.json"
    body = io.body_from_json(json.loads(sq.read_text()))
    for text in SCALAR_STRINGS:
        try:
            value = read_scalar(text)
        except OutOfRangeError:
            value = None
        status = cli.main(["classify", "--mode", "fix", "--body", str(sq), "--points", str(corners), f"--tol={text}"])
        out = capsys.readouterr()
        pts.write_text(json.dumps([{"element": 0, "param": text}]))
        try:
            param = io.points_from_json(json.loads(pts.read_text()), body)[0].param
        except (OutOfRangeError, NotOnBoundaryError) as exc:
            param = exc
        if value is None:
            assert status == 1 and "error[OUT_OF_RANGE]" in out.err, (text, out)
            assert isinstance(param, OutOfRangeError), (text, param)
        else:
            assert json.loads(out.out)["metadata"]["tolerances"]["tol"] == io.scalar_to_json(value), text
            if value < 1:
                assert param == value, text
            else:  # read alike, then placed: past the element's end
                assert isinstance(param, NotOnBoundaryError) and f"param {value} outside" in str(param), (text, param)


def test_unknown_body_mode_is_a_coded_error(square_files, tmp_path):
    sq, corners, _ = square_files
    doc = json.loads(sq.read_text())
    doc["mode"] = "bogus"
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps(doc))
    r = run_cli("classify", "--mode", "fix", "--body", str(bogus), "--points", str(corners), "--exact")
    assert r.returncode == 1
    assert "error[OUT_OF_RANGE]" in r.stderr
    assert r.stdout == ""


# Structurally malformed points files (INVALID_POINT) and body files
# (OUT_OF_RANGE), as raw JSON.
BAD_POINTS = (
    '[{"element": 0, "param": null}]',
    '[{"element": "a", "param": "1/2"}]',
    '[{"element": 0}]',
    '{"element": 0, "param": "1/2"}',
    "[5]",
    '[{"element": 1.5, "param": "1/2"}]',
    '[{"element": true, "param": "1/2"}]',
    # read_scalar refuses a digit separator on every Python, where int() would read "0_1" as 1
    '[{"element": "0_1", "param": "1/2"}, {"element": 3, "param": "1/2"}]',
    '[{"element": "1_0", "param": "1/2"}]',
    '[{"coords": {"x": null, "y": "0"}}]',
)
BAD_BODIES = (
    '{"mode": "exact_polygon"}',
    "[]",
    '{"mode": "exact_polygon", "elements": [5]}',
    '{"mode": "exact_polygon", "elements": 5}',
    '{"mode": "exact_polygon", "elements": [{"type": "segment", "a": {"x": "0", "y": "0"}}]}',
    '{"mode": "exact_polygon", "elements": [{"type": "spline"}]}',
    '{"mode": "exact_polygon", "elements": [{"type": "segment", "a": 5, "b": {"x": "1", "y": "0"}}]}',
)


# Verdict files handed to render --verdict (OUT_OF_RANGE).
_CENTER = '{"kind": "rotation_center", "point": {"x": "1", "y": "0"}, "sense": "CW"}'
BAD_VERDICTS = (
    '{"witness": 5}',
    '{"tests": 3, "witness": ' + _CENTER + "}",
    '{"tests": {"openL": 3}, "witness": ' + _CENTER + "}",
    '{"witness": {"kind": "rotation_center", "point": {"x": "1/0", "y": "0"}, "sense": "CW"}}',
    '{"witness": {"kind": "rotation_center", "sense": "CW"}}',
    '{"witness": {"kind": "spiral"}}',
    '{"witness": {"kind": "rotation_center", "point": 5, "sense": "CW"}}',
    "[]",
    '{"question": [], "tests": {"openL": {"status": "NONEMPTY"}}, "witness": ' + _CENTER + "}",
    '{"question": "BOTH", "tests": {"openL": {"status": "NONEMPTY"}}, "witness": ' + _CENTER + "}",
)
BROKEN_JSON = '{"mode": "exact_polygon", '


def test_malformed_documents_are_coded_errors(square_files, tmp_path):
    sq, corners, _ = square_files
    bad = tmp_path / "bad.json"
    svg = tmp_path / "bad.svg"

    def classify(body, points):
        return ("classify", "--mode", "fix", "--body", str(body), "--points", str(points), "--exact")

    render = ("render", "--body", str(sq), "--points", str(corners), "--verdict", str(bad), "--svg", str(svg))
    cases = [(doc, classify(sq, bad), "INVALID_POINT") for doc in BAD_POINTS]
    cases += [(doc, classify(bad, corners), "OUT_OF_RANGE") for doc in BAD_BODIES + (BROKEN_JSON,)]
    cases += [(BROKEN_JSON, classify(sq, bad), "OUT_OF_RANGE")]
    cases += [(doc, render, "OUT_OF_RANGE") for doc in BAD_VERDICTS + (BROKEN_JSON,)]
    cases += [("{}", ("render", "--body", str(sq), "--svg", str(svg), "--window", "a,b,c,d"), "OUT_OF_RANGE")]
    for doc, argv, code in cases:
        bad.write_text(doc)
        r = run_cli(*argv)
        assert r.returncode == 1, doc
        assert f"error[{code}]" in r.stderr, (doc, r.stderr)
        assert "Traceback" not in r.stderr, doc


def test_an_oversized_value_is_echoed_in_one_short_line(square_files, tmp_path):
    # an error message echoes at most 40 characters of the value it refuses
    sq, _, _ = square_files
    bad = tmp_path / "bad.json"
    cases = (
        (json.dumps([{"element": 0, "param": "1" * 1_000_000}]), "OUT_OF_RANGE"),
        (json.dumps({"points": "x" * 4_986}), "INVALID_POINT"),
        # an integral index past the int-string digit limit: the message does not echo it
        (json.dumps([{"element": "1e4300", "param": "1/2"}]), "NOT_ON_BOUNDARY"),
    )
    for doc, code in cases:
        bad.write_text(doc)
        r = run_cli("classify", "--mode", "fix", "--body", str(sq), "--points", str(bad), "--exact")
        assert r.returncode == 1, code
        assert r.stderr.startswith(f"error[{code}]") and "Traceback" not in r.stderr, r.stderr[:300]
        assert r.stderr.count("\n") == 1 and len(r.stderr.encode()) < 300, r.stderr[:300]


def test_repeated_runs_are_byte_identical(square_files, remark_files, tmp_path):
    sq, corners, _ = square_files
    remark_body, remark_points = remark_files

    v1 = run_cli("classify", "--mode", "fix", "--body", str(sq), "--points", str(corners), "--exact")
    v2 = run_cli("classify", "--mode", "fix", "--body", str(sq), "--points", str(corners), "--exact")
    assert v1.stdout == v2.stdout

    e1 = run_cli("escape", "--body", str(remark_body), "--points", str(remark_points), "--samples", "300", "--seed", "7")
    e2 = run_cli("escape", "--body", str(remark_body), "--points", str(remark_points), "--samples", "300", "--seed", "7")
    assert e1.stdout == e2.stdout

    s1 = tmp_path / "r1.svg"
    s2 = tmp_path / "r2.svg"
    run_cli("render", "--body", str(sq), "--points", str(corners), "--svg", str(s1))
    run_cli("render", "--body", str(sq), "--points", str(corners), "--svg", str(s2))
    assert s1.read_bytes() == s2.read_bytes()


def test_one_process_serves_alternating_commands(square_files, remark_files, capsys):
    """The parser built once serves every call: exit codes and bytes match fresh processes."""
    sq, corners, _ = square_files
    remark_body, remark_points = remark_files
    runs = [
        ("classify", "--mode", "fix", "--body", str(sq), "--points", str(corners), "--exact"),
        ("classify", "--mode", "almost", "--body", str(remark_body), "--points", str(remark_points)),
        ("escape", "--body", str(remark_body), "--points", str(remark_points), "--samples", "200", "--seed", "3"),
        ("classify", "--mode", "fix", "--exact"),  # usage error: no --body, no --points
    ]
    codes = []
    for argv in runs + runs[::-1]:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        r = run_cli(*argv)
        assert (code, out, err) == (r.returncode, r.stdout, r.stderr), argv
        codes.append(code)
    assert codes[0] == 10 and codes[3] == 2, codes


def test_fixture_export_random_body_is_seed_stable(tmp_path):
    a = tmp_path / "ra.json"
    b = tmp_path / "rb.json"
    assert run_cli("fixture", "--name", "random", "--k", "6", "--seed", "9", "--body-out", str(a)).returncode == 0
    assert run_cli("fixture", "--name", "random", "--k", "6", "--seed", "9", "--body-out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
