"""Mutated body and points documents are coded errors, never tracebacks.

Each example takes a valid document (a polygon or the unit disc as a body
document, contacts by address or by coordinates as a points document) and
breaks it in one of four ways: it drops a key, which every key of both
documents needs; puts a value no reader takes (a boolean, null, an array or an
object, a non-finite float, an integer literal past the digit limit, a string
that is no number) in place of any node; nests a node one to three levels
deep, or past the interpreter's recursion limit; or truncates the document's
text.  ``classify`` must then exit 1 with an ``error[CODE]`` line and no
traceback, within seconds.  The reader's own catch-all prints ``error:``
with no code, so a ``KeyError``, ``TypeError`` or ``ValueError`` that slips
out of a reader fails too.
"""

import contextlib
import copy
import io as _stdio
import json
import re
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from immobilize2d import cli, io  # noqa: E402
from immobilize2d.errors import OutOfRangeError  # noqa: E402
from immobilize2d.fixtures import random_convex_polygon, unit_disc  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
TIME_LIMIT_S = 5

HUGE = "@huge@"  # stands for an integer literal json.dumps cannot write
MARK = "@mark@"  # stands for a node nested as text
BAD_VALUES = (True, False, None, [], {}, float("nan"), float("inf"), float("-inf"), "1/0", "x", "1e99999", "", HUGE)

BODIES = [io.body_to_json(random_convex_polygon(3, 6)), io.body_to_json(unit_disc())]
POINTS = [
    [{"element": 0, "param": "0"}, {"element": 2, "param": "1/2"}],
    [{"coords": {"x": "1", "y": "0"}}, {"element": 1, "param": 0.25}],
]
GOOD_BODY = io.dumps(BODIES[0])
GOOD_POINTS = json.dumps([{"element": 0, "param": "0"}])


def paths(node, at=()):
    """Every node's path from the root, the root's included."""
    yield at
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, at + (key,))


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def replaced(doc, path, new):
    """A copy of ``doc`` with the node at ``path`` replaced by ``new``."""
    if not path:
        return new
    out = copy.deepcopy(doc)
    node_at(out, path[:-1])[path[-1]] = new
    return out


def nested(node, depth: int, as_object: bool) -> str:
    """The text of ``node`` wrapped ``depth`` times in an array or an object;
    written as text, since json.dumps meets the recursion limit first."""
    opening, closing = ('{"v": ', "}") if as_object else ("[", "]")
    return opening * depth + json.dumps(node) + closing * depth


@st.composite
def mutants(draw, docs):
    """The text of one document of ``docs`` broken in one way."""
    doc = draw(st.sampled_from(docs))
    how = draw(st.sampled_from(("drop", "swap", "nest", "truncate")))
    if how == "truncate":
        text = json.dumps(doc)
        return text[: draw(st.integers(0, len(text) - 1))]
    if how == "drop":
        path = draw(st.sampled_from([p for p in paths(doc) if p and isinstance(p[-1], str)]))
        out = copy.deepcopy(doc)
        del node_at(out, path[:-1])[path[-1]]
        return json.dumps(out)
    path = draw(st.sampled_from(list(paths(doc))))
    if how == "swap":
        bad = draw(st.sampled_from(BAD_VALUES))
        return json.dumps(replaced(doc, path, bad)).replace(f'"{HUGE}"', "7" * 5000)
    depth, as_object = draw(st.sampled_from((1, 2, 3, 5000))), draw(st.booleans())
    return json.dumps(replaced(doc, path, MARK)).replace(f'"{MARK}"', nested(node_at(doc, path), depth, as_object))


def classify_exits_with_a_code(tmp_path, body_text: str, points_text: str) -> None:
    body, points = tmp_path / "body.json", tmp_path / "points.json"
    body.write_text(body_text)
    points.write_text(points_text)
    out, err = _stdio.StringIO(), _stdio.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(["classify", "--mode", "fix", "--body", str(body), "--points", str(points), "--exact"])
    assert time.perf_counter() - started < TIME_LIMIT_S
    assert status == 1, (body_text[:300], points_text[:300], out.getvalue()[:300])
    assert re.match(r"error\[[A-Z_]+\]", err.getvalue()), err.getvalue()[:300]
    assert "Traceback" not in err.getvalue()
    assert out.getvalue() == ""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


@SETTINGS
@hypothesis.given(mutants(BODIES))
def test_mutated_body_documents_are_coded_errors(workdir, text):
    classify_exits_with_a_code(workdir, text, GOOD_POINTS)


@SETTINGS
@hypothesis.given(mutants(POINTS))
def test_mutated_points_documents_are_coded_errors(workdir, text):
    classify_exits_with_a_code(workdir, GOOD_BODY, text)


def test_a_document_nested_past_the_recursion_limit_is_out_of_range(tmp_path):
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(OutOfRangeError, match="malformed JSON"):
        io.loads(deep)
    classify_exits_with_a_code(tmp_path, deep, GOOD_POINTS)
    classify_exits_with_a_code(tmp_path, GOOD_BODY, deep)
