"""Pinned bytes: the canonical escape reports of a fixed set of searches.

Hashes ``io.dumps(io.escape_report_to_json(...))`` of ``escape_search`` at
``samples=400``, ``seed=3`` over ``example_e1``/``example_e2`` at n = 2..4
(mixed mode, arcs), the remark rectangle at radius 7/3, 30 random convex
polygons touched at their edge midpoints and at two vertices (radius None
or 5/7 by seed), and a disc, whose own center the search skips.  The digest
was recorded before the probes moved to integer arithmetic; a change to the
candidate order, the probe arithmetic or the report changes it.  The number
of probe calls over the same searches is pinned too: the benchmark's tracer
counts those calls as ``oracle.probes``, so the count stays comparable
across versions.
"""

import hashlib
from fractions import Fraction

from immobilize2d import fixtures, io, oracle
from immobilize2d.body import boundary_point
from immobilize2d.oracle import escape_search

ESCAPE_SHA256 = "dde92e5c75438b53ca95c374a60901d237f816d51e0b49e3f0e1dae9437668a1"
# rotation and translation probe calls over escape_cases()
PROBE_CALLS = {"_rotation_clear": 9268, "_translation_clear": 3257}


def escape_cases():
    """(body, points, radius) triples of the pinned set."""
    for make in (fixtures.example_e1, fixtures.example_e2):
        for n in (2, 3, 4):
            fx = make(n)
            yield fx.body, list(fx.points), None
    fx = fixtures.rectangle_remark()
    yield fx.body, list(fx.points), Fraction(7, 3)
    for seed in range(30):
        body = fixtures.random_convex_polygon(seed, 3 + seed % 7)
        radius = None if seed % 2 else Fraction(5, 7)
        n = len(body.elements)
        yield body, [boundary_point(body, j, Fraction(1, 2)) for j in range(n)], radius
        yield body, [boundary_point(body, 0, Fraction(0)), boundary_point(body, n // 2, Fraction(0))], radius
    disc = fixtures.unit_disc()
    yield disc, [boundary_point(disc, 0, Fraction(0)), boundary_point(disc, 1, Fraction(1, 2)), boundary_point(disc, 3, Fraction(1, 2))], None


def test_escape_reports_are_pinned():
    digest, families = hashlib.sha256(), set()
    for body, pts, radius in escape_cases():
        report = escape_search(body, pts, radius=radius, samples=400, seed=3)
        digest.update(io.dumps(io.escape_report_to_json(report)).encode())
        families.add(report.family if report else None)
    assert families == {"rotation", "translation", None}
    assert digest.hexdigest() == ESCAPE_SHA256


def test_probe_calls_are_pinned(monkeypatch):
    calls = dict.fromkeys(PROBE_CALLS, 0)
    for name in PROBE_CALLS:
        probe = getattr(oracle, name)

        def counted(*args, name=name, probe=probe):
            calls[name] += 1
            return probe(*args)

        monkeypatch.setattr(oracle, name, counted)
    for body, pts, radius in escape_cases():
        escape_search(body, pts, radius=radius, samples=400, seed=3)
    assert calls == PROBE_CALLS
