"""Acceptance gate: the nine go/no-go checks, one printed verdict line each.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the CRITERION lines.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from bruteforce import bruteforce_feasible, random_system
from immobilize2d import cli, oracle
from immobilize2d.body import boundary_point, offset_along_boundary, tangents_at
from immobilize2d.classify import (
    classify_almost_fix,
    classify_fix,
    refine_almost_to_fix,
)
from immobilize2d.feasibility import LinearConstraint, linear_feasible
from immobilize2d.fixtures import (
    random_convex_polygon,
    rectangle_remark,
    unit_square,
)
from immobilize2d.geom import Vec, vec
from immobilize2d.sectors import (
    SECTOR_KINDS,
    direction_set,
    direction_set_contains,
    make_sector,
    sector_contains,
)


def test_criterion_1_three_point_rectangle_is_first_order_indeterminate():
    t0 = time.perf_counter()
    fx = rectangle_remark()
    v = classify_fix(fx.body, fx.points)
    assert v.status == "FIRST_ORDER_INDETERMINATE"
    for name in ("openL", "openR", "closedL", "closedR"):
        assert v.test(name).status == "EMPTY"
    d = v.test("directions")
    assert d.status == "NONEMPTY"
    assert d.witness in (vec(0, 1), vec(0, -1))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"CRITERION 1 PASS: indeterminate with direction witness {tuple(map(str, (d.witness.x, d.witness.y)))}, sector tests empty, {elapsed:.3f}s")


def test_criterion_2_rectangle_slides_out_horizontally():
    t0 = time.perf_counter()
    fx = rectangle_remark()
    rep = oracle.escape_search(fx.body, fx.points, samples=300, seed=0)
    assert rep is not None
    assert rep.family == "translation"
    assert rep.direction in (vec(1, 0), vec(-1, 0))
    expected = tuple(Fraction(1, 2**k) for k in range(1, 11))
    assert rep.magnitudes == expected
    assert all(rep.penetration_free)
    assert oracle.validate_translation_witness(fx.body, fx.points, rep.direction)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"CRITERION 2 PASS: translation escape ({rep.direction.x},{rep.direction.y}) clear at all 10 magnitudes down to 1/1024, {elapsed:.3f}s")


def test_criterion_3_opposite_corner_suite():
    t0 = time.perf_counter()
    sq = unit_square()
    oc = [boundary_point(sq, 0, Fraction(0)), boundary_point(sq, 2, Fraction(0))]

    v = classify_fix(sq, oc)
    assert v.status == "NOT_WEAKLY_FIX"
    assert v.witness.kind == "rotation_center"
    assert v.witness.point == vec(0, 0)
    assert oracle.DEFAULT_ROTATION_SCHEDULE == tuple(Fraction(1, 10**k) for k in range(2, 9))
    assert oracle.validate_rotation_witness(sq, oc, v.witness.point, v.witness.sense)

    a = classify_almost_fix(sq, oc)
    assert a.status == "POSITIVE"

    placement, refined_verdict = refine_almost_to_fix(sq, oc, Fraction(1, 5))
    assert placement.delta == Fraction(1, 10)
    assert all(e.tag == "both_sides" for e in placement.entries)
    four = placement.points()
    assert len(four) == 4
    assert refined_verdict.status == "POSITIVE"
    assert classify_fix(sq, four).status == "POSITIVE"

    assert oracle.escape_search(sq, four, samples=10**4, seed=0) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"CRITERION 3 PASS: corner pair pivots at (0,0), doubles at delta=1/10 into a fixing quad, no escape in 10^4 samples, {elapsed:.1f}s")


def test_criterion_4_edge_midpoints_resist_sampling():
    t0 = time.perf_counter()
    sq = unit_square()
    mids = [boundary_point(sq, i, Fraction(1, 2)) for i in range(4)]
    v = classify_fix(sq, mids)
    assert v.status == "FIRST_ORDER_INDETERMINATE"
    closed_witnesses = [v.test(n).witness for n in ("closedL", "closedR") if v.test(n).status == "NONEMPTY"]
    assert vec(0, 0) in closed_witnesses
    assert oracle.escape_search(sq, mids, samples=10**4, seed=0) is None
    elapsed = time.perf_counter() - t0
    print(f"CRITERION 4 PASS: midpoints indeterminate with closed witness (0,0), no escape in 10^4 samples, {elapsed:.1f}s")


def test_criterion_5_consistency_lattice_fuzz(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "fuzz.json"
    rc = cli.main(["fuzz", "--trials", "500", "--seed", "5", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["trials"] == 500
    assert doc["violations"] == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    mix = {**doc["fix_statuses"]}
    print(f"CRITERION 5 PASS: 500 random systems, zero lattice violations (fix mix {mix}), {elapsed:.1f}s")


def test_criterion_6_feasibility_engine_matches_bruteforce():
    t0 = time.perf_counter()
    rng = random.Random(64)
    disagreements = 0
    feasible_count = 0
    for _ in range(10**4):
        rows = random_system(rng)
        cons = [LinearConstraint(Fraction(nx), Fraction(ny), Fraction(c), strict) for nx, ny, c, strict in rows]
        got = linear_feasible(cons)
        want = bruteforce_feasible(rows)
        if got.feasible != want:
            disagreements += 1
        if got.feasible:
            feasible_count += 1
            assert all(lc.holds(got.witness) for lc in cons)
    assert disagreements == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"CRITERION 6 PASS: 10^4 systems, 0 disagreements ({feasible_count} feasible), {elapsed:.1f}s")


def _random_boundary_point(body, rng):
    idx = rng.randrange(len(body.elements))
    if rng.random() < 0.4:
        return boundary_point(body, idx, Fraction(0))
    return boundary_point(body, idx, Fraction(rng.randint(1, 2047), 2048))


def test_criterion_7_sector_identities_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(777)
    pairs = 0
    checks = 0
    while pairs < 100:
        body = random_convex_polygon(10_000 + pairs * 7, rng.randint(4, 9))
        bp = _random_boundary_point(body, rng)
        t = tangents_at(body, bp)
        apex = bp.coords
        smooth = t.u_left == t.u_right
        sectors = {
            (kind, closed): make_sector(kind, closed=closed, apex=apex, t=t)
            for kind in SECTOR_KINDS
            for closed in (False, True)
        }
        dsets = {kind: direction_set(kind, apex, t) for kind in SECTOR_KINDS}
        lo, hi = body.bounding_box()
        span = max(hi.x - lo.x, hi.y - lo.y, Fraction(1))
        for _ in range(200):
            d = Vec(
                span * Fraction(rng.randint(-512, 512), 256),
                span * Fraction(rng.randint(-512, 512), 256),
            )
            if d.is_zero():
                continue
            p = apex + d
            # Complement identities: open small r is the complement of
            # closed large L, and open small l of closed large R.
            assert (sector_contains(sectors[("small_r", False)], p) == "IN") == (
                sector_contains(sectors[("L", True)], p) == "OUT"
            )
            assert (sector_contains(sectors[("small_l", False)], p) == "IN") == (
                sector_contains(sectors[("R", True)], p) == "OUT"
            )
            # Cone property: membership only depends on the ray of d.
            for kind in SECTOR_KINDS:
                base = sector_contains(sectors[(kind, True)], p)
                assert sector_contains(sectors[(kind, True)], apex + d.scaled(Fraction(3, 2))) == base
                assert sector_contains(sectors[(kind, True)], apex + d.scaled(Fraction(1, 4))) == base
            # Direction/sector coherence: d in the direction set iff the
            # translated apex point lies in the closed sector.
            for kind in SECTOR_KINDS:
                inside = sector_contains(sectors[(kind, True)], p) != "OUT"
                assert direction_set_contains(dsets[kind], d) == inside
            # Smooth boundary points collapse large onto small.
            if smooth:
                for closed in (False, True):
                    assert sector_contains(sectors[("L", closed)], p) == sector_contains(sectors[("small_l", closed)], p)
                    assert sector_contains(sectors[("R", closed)], p) == sector_contains(sectors[("small_r", closed)], p)
            checks += 1
        pairs += 1
    elapsed = time.perf_counter() - t0
    print(f"CRITERION 7 PASS: {pairs} body/point pairs, {checks} probes, all identities hold, {elapsed:.1f}s")


def test_criterion_8_straddle_sectors_converge_to_the_vertex_sector():
    t0 = time.perf_counter()
    rng = random.Random(88)
    vertices_checked = 0
    while vertices_checked < 20:
        body = random_convex_polygon(20_000 + vertices_checked * 13, rng.randint(4, 9))
        idx = rng.randrange(len(body.elements))
        a = boundary_point(body, idx, Fraction(0))
        small = make_sector("small_l", closed=True, apex=a.coords, t=tangents_at(body, a))
        lo, hi = body.bounding_box()
        span = max(hi.x - lo.x, hi.y - lo.y)
        probes = [
            a.coords
            + Vec(
                span * Fraction(rng.randint(-1024, 1024), 512),
                span * Fraction(rng.randint(-1024, 1024), 512),
            )
            for _ in range(1000)
        ]
        fractions_by_delta = []
        for k in range(1, 11):
            delta = Fraction(1, 2**k)
            before = offset_along_boundary(body, a, -delta)
            after = offset_along_boundary(body, a, delta)
            sec_b = make_sector("L", closed=True, apex=before.coords, t=tangents_at(body, before))
            sec_a = make_sector("L", closed=True, apex=after.coords, t=tangents_at(body, after))
            bad = 0
            for p in probes:
                straddle = (
                    sector_contains(sec_b, p) != "OUT" and sector_contains(sec_a, p) != "OUT"
                )
                limit = sector_contains(small, p) != "OUT"
                if straddle != limit:
                    bad += 1
            fractions_by_delta.append(Fraction(bad, len(probes)))
        for earlier, later in zip(fractions_by_delta, fractions_by_delta[1:]):
            assert later <= earlier
        assert fractions_by_delta[-1] == 0
        vertices_checked += 1
    elapsed = time.perf_counter() - t0
    print(f"CRITERION 8 PASS: 20 vertices, misclassification non-increasing and 0 at delta=2^-10, {elapsed:.1f}s")


def test_criterion_9_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    body_file = tmp_path / "body.json"
    points_file = tmp_path / "points.json"

    def run(*args):
        r = subprocess.run([sys.executable, "-m", "immobilize2d", *args], capture_output=True)
        return r.returncode, r.stdout

    rc, _ = run("fixture", "--name", "remark", "--body-out", str(body_file), "--points-out", str(points_file))
    assert rc == 0

    pairs = []
    code1, out1 = run("classify", "--mode", "fix", "--body", str(body_file), "--points", str(points_file), "--exact")
    code2, out2 = run("classify", "--mode", "fix", "--body", str(body_file), "--points", str(points_file), "--exact")
    assert code1 == code2 == 20
    pairs.append((out1, out2))

    code1, out1 = run("escape", "--body", str(body_file), "--points", str(points_file), "--samples", "300", "--seed", "11")
    code2, out2 = run("escape", "--body", str(body_file), "--points", str(points_file), "--samples", "300", "--seed", "11")
    assert code1 == code2 == 0
    pairs.append((out1, out2))

    svg1 = tmp_path / "one.svg"
    svg2 = tmp_path / "two.svg"
    rc1, _ = run("render", "--body", str(body_file), "--points", str(points_file), "--svg", str(svg1))
    rc2, _ = run("render", "--body", str(body_file), "--points", str(points_file), "--svg", str(svg2))
    assert rc1 == rc2 == 0
    pairs.append((svg1.read_bytes(), svg2.read_bytes()))

    for first, second in pairs:
        assert first == second
    elapsed = time.perf_counter() - t0
    print(f"CRITERION 9 PASS: classify, escape, and render reruns byte-identical, {elapsed:.1f}s")
