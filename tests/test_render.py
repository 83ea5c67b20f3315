"""SVG rendering: the shaded region lies in the verdict question's sectors,
FIX drawings are pinned bytes, and coordinates past float range are a coded
library error."""

import hashlib
import math
import random
import re
from fractions import Fraction

import pytest

from immobilize2d import fixtures, io, render
from immobilize2d.body import boundary_point, polygon, tangents_at
from immobilize2d.classify import _QUESTION_KINDS, CCW, classify_almost_fix, classify_fix
from immobilize2d.errors import DegenerateError, ImmobilizeError, OutOfRangeError
from immobilize2d.render import render_svg
from immobilize2d.sectors import contact_rows, sector_of

# sha256 of the concatenated SVGs of ``fix_drawings``, recorded before the
# renderer read its normals and regions off the classifier's sector rows.
FIX_SVG_SHA256 = "dc477ba509dce180608bfd240b2906ea18997ed8fb85bb6143da7227b0772c84"


def contact_sets(seeds):
    """(body, contacts) pairs: a random pentagon per seed with 2-4 vertex or edge contacts."""
    for seed in seeds:
        try:
            body = fixtures.random_convex_polygon(seed, 5)
        except DegenerateError:
            continue
        rng = random.Random(seed)
        keys = set()
        for _ in range(rng.randint(2, 4)):
            keys.add((rng.randrange(5), Fraction(0) if rng.random() < 0.5 else Fraction(rng.randint(1, 15), 16)))
        yield body, [boundary_point(body, j, param) for j, param in sorted(keys)]


def midpoint_sets():
    """(body, contacts) pairs: polygons touched at edge midpoints, whose closed
    sectors meet at the centre only, so the verdicts carry closed witnesses."""
    sq = fixtures.unit_square()
    yield sq, [boundary_point(sq, j, Fraction(1, 2)) for j in range(3)]
    for body in (sq, fixtures.regular_polygon(3, 1), fixtures.regular_polygon(5, 1), fixtures.regular_polygon(6, 1)):
        yield body, [boundary_point(body, j, Fraction(1, 2)) for j in range(len(body.elements))]


def region_vertices(svg: str, body) -> list[tuple[float, float]] | None:
    """The shaded region's corners in body coordinates, or None when none is drawn."""
    m = re.search(r'<path class="region" d="([^"]*) Z"/>', svg)
    if m is None:
        return None
    xs = [float(t) for t in m.group(1).split() if t not in ("M", "L")]
    fr = render._Frame(render._default_window(body))
    return [
        (fr.x0 + (sx - render._MARGIN) / fr.scale, fr.y1 - (sy - render._MARGIN) / fr.scale)
        for sx, sy in zip(xs[::2], xs[1::2])
    ]


def in_closed_sector(sector, p, slack: float) -> bool:
    return any(
        all((lc.nx * p[0] + lc.ny * p[1] - lc.c) / math.hypot(lc.nx, lc.ny) >= -slack for lc in alt)
        for alt in sector.alternatives
    )


@pytest.mark.parametrize("ask", [classify_fix, classify_almost_fix])
def test_region_lies_in_the_closed_sectors_of_the_verdict_question(ask):
    drawn = {"open": 0, "closed": 0}
    for body, pts in [*contact_sets(range(150)), *midpoint_sets()]:
        verdict = ask(body, pts)
        w = verdict.witness
        if w is None or w.kind != "rotation_center":
            continue
        region = region_vertices(render_svg(body, tuple(pts), io.verdict_to_json(verdict)), body)
        if region is None:
            continue
        kind = _QUESTION_KINDS[verdict.question][w.sense == CCW]
        sectors = [sector_of(contact_rows(bp.coords, tangents_at(body, bp)), kind, True) for bp in pts]
        (x0, _, x1, _) = render._default_window(body)
        for p in region:
            assert all(in_closed_sector(s, p, 1e-6 * (x1 - x0)) for s in sectors), (verdict.status, p)
        side = "R" if w.sense == CCW else "L"
        drawn["open" if verdict.test("open" + side).nonempty else "closed"] += 1
    assert drawn["open"] > 0 and drawn["closed"] > 0, drawn


def fix_drawings():
    """(body, contacts) pairs: 40 random pentagons, the remark rectangle, e1 and
    e2 at n = 3 (arcs, so smooth contacts), and the disc at its four poles."""
    yield from contact_sets(range(40))
    for fx in (fixtures.rectangle_remark(), fixtures.example_e1(3), fixtures.example_e2(3)):
        yield fx.body, list(fx.points)
    disc = fixtures.unit_disc()
    yield disc, [boundary_point(disc, j, 0) for j in range(4)]


def test_fix_drawings_are_pinned():
    digest, regions, arrows = hashlib.sha256(), 0, 0
    for body, pts in fix_drawings():
        svg = render_svg(body, tuple(pts), io.verdict_to_json(classify_fix(body, pts)))
        digest.update(svg.encode())
        regions += 'class="region"' in svg
        arrows += 'class="arrow"' in svg
    assert regions > 0 and arrows > 0
    assert digest.hexdigest() == FIX_SVG_SHA256


def test_a_verdict_without_a_question_draws_no_region():
    body, pts = next(contact_sets(range(1)))
    doc = io.verdict_to_json(classify_fix(body, pts))
    assert 'class="region"' in render_svg(body, tuple(pts), doc)
    del doc["question"]
    svg = render_svg(body, tuple(pts), doc)
    assert 'class="region"' not in svg and 'class="witness"' in svg


def test_render_past_float_range_raises_out_of_range():
    r = 10**400
    triangle = polygon([(0, 0), (r, 0), (0, r)])
    pts = tuple(boundary_point(triangle, i, 0) for i in range(3))
    with pytest.raises(OutOfRangeError) as exc:
        render_svg(triangle, pts)
    assert isinstance(exc.value, ImmobilizeError) and exc.value.code == "OUT_OF_RANGE"
