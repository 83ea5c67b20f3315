"""Command-line driver: classify, refine, escape, fuzz, fixture, render.

Exit codes
    classify   0 POSITIVE, 10 NOT_WEAKLY_FIX / NOT_ALMOST_FIX, 20 INDETERMINATE
    refine     0 success, 11 not almost-positive, 12 refinement exhausted
    fuzz       0 clean, 13 invariant violation
    any        1 on parse, validation, or usage errors in input files
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import classify as cls
from . import fixtures, io, oracle
from .body import ConvexBody, boundary_point, is_full_disc, validate
from .errors import (
    BodyValidationError,
    DegenerateError,
    ImmobilizeError,
    NotAlmostPositiveError,
    OutOfRangeError,
    RefinementExhaustedError,
)
from .render import render_svg

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 10
EXIT_INDETERMINATE = 20
EXIT_ERROR = 1
EXIT_NOT_ALMOST_POSITIVE = 11
EXIT_REFINEMENT_EXHAUSTED = 12
EXIT_FUZZ_VIOLATION = 13

_STATUS_EXIT = {
    cls.POSITIVE: EXIT_POSITIVE,
    cls.NOT_WEAKLY_FIX: EXIT_NEGATIVE,
    cls.NOT_ALMOST_FIX: EXIT_NEGATIVE,
    cls.INDETERMINATE: EXIT_INDETERMINATE,
}
# Library errors with an exit code of their own; every other one exits EXIT_ERROR.
_ERROR_EXIT = {
    NotAlmostPositiveError: EXIT_NOT_ALMOST_POSITIVE,
    RefinementExhaustedError: EXIT_REFINEMENT_EXHAUSTED,
}


def _load_body(path: str) -> ConvexBody:
    body = io.body_from_json(io.loads(Path(path).read_text()))
    validate(body)
    return body


def _load_points(path: str, body: ConvexBody):
    return io.points_from_json(io.loads(Path(path).read_text()), body)


def _emit(doc, out: str | None) -> None:
    text = io.dumps(doc)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# -- classify -----------------------------------------------------------------


def cmd_classify(args) -> int:
    body = _load_body(args.body)
    pts = _load_points(args.points, body)
    if args.exact:
        tol = Fraction(0)
    elif args.tol is not None:
        tol = io.scalar_from_json(args.tol)
    else:
        tol = body.tolerance()
    started = time.perf_counter()
    if args.mode == "fix":
        verdict = cls.classify_fix(body, pts, tol=tol)
    else:
        verdict = cls.classify_almost_fix(body, pts, tol=tol)
    durations = None
    if args.timings:
        durations = {"classify_seconds": round(time.perf_counter() - started, 6)}
    _emit(io.verdict_to_json(verdict, tol=tol, durations=durations), args.out)
    return _STATUS_EXIT[verdict.status]


# -- refine -------------------------------------------------------------------


def cmd_refine(args) -> int:
    body = _load_body(args.body)
    pts = _load_points(args.points, body)
    eps = io.scalar_from_json(args.epsilon)
    placement, verdict = cls.refine_almost_to_fix(body, pts, eps)
    doc = {
        "placement": io.placement_to_json(placement),
        "points": io.points_to_json(placement.points()),
        "verdict": io.verdict_to_json(verdict, tol=body.tolerance()),
    }
    _emit(doc, args.out)
    return 0


# -- escape -------------------------------------------------------------------


def cmd_escape(args) -> int:
    body = _load_body(args.body)
    pts = _load_points(args.points, body)
    radius = io.scalar_from_json(args.radius) if args.radius is not None else None
    report = oracle.escape_search(body, pts, radius=radius, samples=args.samples, seed=args.seed)
    doc = io.escape_report_to_json(report)
    doc["body_is_disc"] = is_full_disc(body)[0]
    _emit(doc, args.out)
    return 0


# -- fuzz ---------------------------------------------------------------------


def _fuzz_points(body: ConvexBody, rng: random.Random, max_points: int):
    count = rng.randint(2, max_points)
    pts, seen = [], set()
    while len(pts) < count:
        key = (rng.randrange(len(body.elements)), Fraction(rng.randint(0, 2047), 2048))
        if key in seen:
            continue
        seen.add(key)
        pts.append(boundary_point(body, key[0], key[1]))
    return pts


def _fuzz_trial(seed: int, index: int, max_points: int) -> dict:
    rng = random.Random(f"{seed}:{index}")
    body = None
    for attempt in range(32):
        try:
            body = fixtures.random_convex_polygon(seed * 1_000_003 + index * 101 + attempt, rng.randint(4, 10))
            break
        except DegenerateError:
            continue
    if body is None:
        return {"trial": index, "skipped": True, "violations": []}
    pts = _fuzz_points(body, rng, max_points)
    fix = cls.classify_fix(body, pts)
    almost = cls.classify_almost_fix(body, pts)
    violations = []
    if fix.status == cls.POSITIVE and almost.status != cls.POSITIVE:
        violations.append("fix POSITIVE but almost-fix not POSITIVE")
    if almost.status == cls.NOT_ALMOST_FIX and fix.status != cls.NOT_WEAKLY_FIX:
        violations.append("NOT_ALMOST_FIX without NOT_WEAKLY_FIX")
    for label, verdict in (("fix", fix), ("almost", almost)):
        if verdict.status in (cls.NOT_WEAKLY_FIX, cls.NOT_ALMOST_FIX):
            w = verdict.witness
            if not oracle.validate_rotation_witness(body, pts, w.point, w.sense):
                violations.append(f"{label} rotation witness failed exact validation")
    if fix.status == cls.POSITIVE:
        if oracle.escape_search(body, pts, samples=240, seed=index) is not None:
            violations.append("escape motion found despite POSITIVE fix verdict")
    return {
        "trial": index,
        "skipped": False,
        "fix": fix.status,
        "almost": almost.status,
        "violations": violations,
    }


def cmd_fuzz(args) -> int:
    if not 0 <= args.trials <= 10**5:
        raise OutOfRangeError("trials must be between 0 and 100000")
    if not 2 <= args.max_points <= 32:  # 32 contacts give the 64 rows MAX_CONSTRAINTS allows
        raise OutOfRangeError("max-points must be between 2 and 32")
    results = [_fuzz_trial(args.seed, i, args.max_points) for i in range(args.trials)]
    fix_counts: dict[str, int] = {}
    almost_counts: dict[str, int] = {}
    skipped = 0
    violations = []
    for r in results:
        if r["skipped"]:
            skipped += 1
            continue
        fix_counts[r["fix"]] = fix_counts.get(r["fix"], 0) + 1
        almost_counts[r["almost"]] = almost_counts.get(r["almost"], 0) + 1
        for v in r["violations"]:
            violations.append({"trial": r["trial"], "violation": v})
    summary = {
        "seed": args.seed,
        "trials": args.trials,
        "max_points": args.max_points,
        "fix_statuses": {k: fix_counts[k] for k in sorted(fix_counts)},
        "almost_statuses": {k: almost_counts[k] for k in sorted(almost_counts)},
        "skipped": skipped,
        "violations": violations,
    }
    _emit(summary, args.out)
    return EXIT_FUZZ_VIOLATION if violations else 0


# -- fixture export -----------------------------------------------------------


def _fixture_payload(args):
    name = args.name
    if name == "remark":
        fx = fixtures.rectangle_remark()
        return fx.body, fx.points, {"expected": fx.expected, "notes": fx.notes}
    if name == "square":
        return fixtures.unit_square(), (), {}
    if name == "disc":
        return fixtures.unit_disc(), (), {}
    if name == "e1":
        fx = fixtures.example_e1(args.n)
        return fx.body, fx.points, {"expected": fx.expected, "notes": fx.notes, "truncated": fx.truncated}
    if name == "e2":
        fx = fixtures.example_e2(args.n)
        return fx.body, fx.points, {"expected": fx.expected, "notes": fx.notes, "truncated": fx.truncated}
    if name == "regular":
        return fixtures.regular_polygon(args.k, io.scalar_from_json(args.circumradius)), (), {}
    return fixtures.random_convex_polygon(args.seed, args.k), (), {}


def cmd_fixture(args) -> int:
    body, pts, info = _fixture_payload(args)
    Path(args.body_out).write_text(io.dumps(io.body_to_json(body)))
    if args.points_out:
        Path(args.points_out).write_text(io.dumps(io.points_to_json(pts)))
    doc = {"name": args.name, "elements": len(body.elements), "points": len(pts)}
    doc.update(info)
    _emit(doc, None)
    return 0


# -- render -------------------------------------------------------------------


def cmd_render(args) -> int:
    body = _load_body(args.body)
    pts = _load_points(args.points, body) if args.points else []
    verdict_doc = io.loads(Path(args.verdict).read_text()) if args.verdict else None
    window = None
    if args.window:
        parts = args.window.split(",")
        if len(parts) != 4:
            raise OutOfRangeError("window must be x0,y0,x1,y1")
        try:
            x0, y0, x1, y1 = (float(p) for p in parts)
        except ValueError:
            raise OutOfRangeError(f"window coordinates must be numbers, got {args.window!r}") from None
        if not all(map(math.isfinite, (x0, y0, x1, y1, x1 - x0, y1 - y0))):
            raise OutOfRangeError(f"window corners and extent must be finite, got {args.window!r}")
        if not (x0 < x1 and y0 < y1):
            raise OutOfRangeError("window must have positive extent")
        window = (x0, y0, x1, y1)
    Path(args.svg).write_text(render_svg(body, tuple(pts), verdict_doc, window))
    return 0


# -- argument plumbing ---------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="immobilize2d",
        description="First-order immobilization analysis of planar convex bodies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a body/points pair for fixing or almost-fixing")
    p.add_argument("--mode", choices=("fix", "almost"), required=True)
    p.add_argument("--body", required=True)
    p.add_argument("--points", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", help="force tolerance 0")
    group.add_argument("--tol", help="near-degeneracy reporting tolerance, e.g. 1/1000000000")
    p.add_argument("--out", help="write the verdict JSON here instead of stdout")
    p.add_argument("--timings", action="store_true", help="include wall-clock durations in metadata")

    p = sub.add_parser("refine", help="double almost-fixing contacts into a fixing placement")
    p.add_argument("--body", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--epsilon", required=True, help="neighbourhood radius, e.g. 1/5")
    p.add_argument("--out")

    p = sub.add_parser("escape", help="search for a first-order escape motion")
    p.add_argument("--body", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--radius", help="rotation-center search radius (default: 4x bounding box extent)")
    p.add_argument("--samples", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("fuzz", help="random bodies/points through the consistency invariants")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-points", type=int, default=5)
    p.add_argument("--out")

    p = sub.add_parser("fixture", help="export a built-in fixture to body/points JSON")
    p.add_argument("--name", choices=("remark", "square", "disc", "e1", "e2", "regular", "random"), required=True)
    p.add_argument("--body-out", required=True)
    p.add_argument("--points-out")
    p.add_argument("-n", type=int, default=6, help="tangent/spike count for e1/e2")
    p.add_argument("--k", type=int, default=5, help="vertex count for regular/random polygons")
    p.add_argument("--circumradius", default="1")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("render", help="draw body, contacts, normal rays, and witnesses to SVG")
    p.add_argument("--body", required=True)
    p.add_argument("--points")
    p.add_argument("--verdict")
    p.add_argument("--svg", required=True)
    p.add_argument("--window", help="x0,y0,x1,y1 in body coordinates")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # Looked up at call time, so a wrapper installed over cmd_* is the one called.
        return globals()[f"cmd_{args.command}"](args)
    except BodyValidationError as exc:
        where = f" element {exc.element}" if exc.element is not None else ""
        print(f"error[{exc.code}]{where}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ImmobilizeError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return _ERROR_EXIT.get(type(exc), EXIT_ERROR)
    except OverflowError as exc:  # a float step (trig, lengths, drawing) met a coordinate past float range
        print(f"error[{OutOfRangeError.code}]: coordinates too large for floating point ({exc})", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
