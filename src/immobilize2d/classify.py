"""Trichotomy classifiers for immobilization questions, with certificates.

Two questions are asked of a contact set on a convex body's boundary:

* FIX        can every nearby nonidentical rigid motion be blocked?
* ALMOST_FIX can the contacts be doubled into nearby pairs that fix?

Both run the same five first-order tests over the contact sectors (large
sectors for FIX, small sectors for ALMOST_FIX):

1/2. open left/right sector systems  - a common point is a rotation center
     the contacts do not block at first order: verdict NOT_WEAKLY_FIX or
     NOT_ALMOST_FIX with that center as witness (CW for left, CCW for
     right).
3/4. closed left/right sector systems - all empty is required for POSITIVE.
5.   direction sets of the closed left sectors - rotation centers at
     infinity (translations); all three closed tests empty gives POSITIVE.

Anything in between is FIRST_ORDER_INDETERMINATE: the strict necessary
condition holds but the non-strict sufficient one fails, and tangent data
alone cannot decide.  The blocking certificate (first nonempty closed or
direction test) is reported so callers can probe it dynamically.

Each contact's rows are built once per call from the body's int tangents
(``body.tangent_ints``, ``sectors.rows_from_tangents``) and all four sector
systems are read off them; the direction test reads its arcs
off the same closed left sectors as test 3 (``sectors.sector_directions``).
The closed tests run first: an open sector lies in its closed one, so at
tolerance 0 an empty closed test makes its open test empty without solving
it.

One call can ask both questions (``classify_both``, which ``fuzz`` uses): the
tolerance is read, the points deduplicated and the contact rows built once,
and each distinct system is solved once, keyed by its solver and its rows.
Within a call sector i always comes from contact i and the tolerance is
fixed, so the rows decide the result.  At a smooth contact the large and
small sectors are one sector, so on an all-smooth contact set the ALMOST_FIX
tests reuse every FIX solve; at corners their systems differ and are solved.
Witness re-centring is shared one level down: an open test's rows are its
closed test's made strict, so the call sets ``feasibility.RECENTRE_MEMO`` and
each distinct row set's re-centring boxes are searched once (the memo ends
with the call, also when it raises).
``classify_fix`` and ``classify_almost_fix`` are the one-question calls.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .body import (
    BoundaryPoint,
    ConvexBody,
    boundary_point,
    offset_along_boundary,
    tangent_ints,
)
from .errors import InvalidPointError, NotAlmostPositiveError, OutOfRangeError, RefinementExhaustedError
from .feasibility import RECENTRE_MEMO, FeasibilityResult, directions_intersection, sectors_intersection
from .geom import Vec, read_scalar, rot90_ccw
from .sectors import Sector, rows_from_tangents, sector_directions, sector_of

QUESTION_FIX = "FIX"
QUESTION_ALMOST = "ALMOST_FIX"

POSITIVE = "POSITIVE"
NOT_WEAKLY_FIX = "NOT_WEAKLY_FIX"
NOT_ALMOST_FIX = "NOT_ALMOST_FIX"
INDETERMINATE = "FIRST_ORDER_INDETERMINATE"

CW = "CW"
CCW = "CCW"

TEST_NAMES = ("openL", "openR", "closedL", "closedR", "directions")

BOTH_SIDES = "both_sides"
SAME_SIDE_LEFT = "same_side_left"
SAME_SIDE_RIGHT = "same_side_right"

_QUESTION_KINDS = {
    QUESTION_FIX: ("L", "R"),
    QUESTION_ALMOST: ("small_l", "small_r"),
}
_NEGATIVE_STATUS = {QUESTION_FIX: NOT_WEAKLY_FIX, QUESTION_ALMOST: NOT_ALMOST_FIX}


@dataclass(frozen=True)
class TestResult:
    name: str
    status: str  # EMPTY | NONEMPTY
    witness: Vec | None
    near_degenerate: bool = False

    @property
    def nonempty(self) -> bool:
        return self.status == "NONEMPTY"


@dataclass(frozen=True)
class Witness:
    """A motion family the verdict points at.

    ``rotation_center``: rotations about ``point`` with the given sense.
    ``direction``: rotation centers far away toward ``direction``, whose
    limiting motion is the translation along ``translation`` (the direction
    turned a quarter turn counterclockwise).
    """

    kind: str  # rotation_center | direction
    point: Vec | None = None
    sense: str | None = None
    direction: Vec | None = None
    translation: Vec | None = None


@dataclass(frozen=True)
class Verdict:
    question: str
    status: str
    tests: tuple[TestResult, ...]
    witness: Witness | None
    mode: str
    near_degenerate: bool = False

    def test(self, name: str) -> TestResult:
        for t in self.tests:
            if t.name == name:
                return t
        raise KeyError(name)


def _dedupe_points(pts: list[BoundaryPoint]) -> list[BoundaryPoint]:
    if not pts:
        raise InvalidPointError("need at least one contact point")
    seen_addr: dict[tuple[int, Fraction], BoundaryPoint] = {}
    by_coords: dict[tuple[Fraction, Fraction], tuple[int, Fraction]] = {}
    out: list[BoundaryPoint] = []
    for bp in pts:
        addr = (bp.element_index, bp.param)
        if addr in seen_addr:
            continue  # exact duplicate: identical constraints, drop
        key = (bp.coords.x, bp.coords.y)
        if key in by_coords and by_coords[key] != addr:
            raise InvalidPointError(
                f"coincident points with different boundary addresses {by_coords[key]} and {addr}"
            )
        seen_addr[addr] = bp
        by_coords[key] = addr
        out.append(bp)
    return out


def _directions(closed_left: list[Sector], tol: Fraction) -> FeasibilityResult:
    return directions_intersection([sector_directions(s) for s in closed_left], tol)


def _classify(body: ConvexBody, pts: list[BoundaryPoint], questions: tuple[str, ...], tol: Fraction | None) -> tuple[Verdict, ...]:
    if tol is None:
        tol = body.tolerance()
    tol = read_scalar(tol, "tolerance")
    if tol < 0:
        raise OutOfRangeError(f"tolerance {tol} is negative")
    pts = _dedupe_points(list(pts))
    contacts = [rows_from_tangents(bp.coords, *tangent_ints(body, bp)) for bp in pts]
    # Sector i always comes from contact i and tol is fixed: a system's rows decide its result.
    solved: dict[tuple, FeasibilityResult] = {}

    def run(name: str, system: list[Sector], solver=sectors_intersection) -> TestResult:
        key = (solver, tuple(s.alternatives for s in system))
        if key not in solved:
            solved[key] = solver(system, tol)
        res = solved[key]
        return TestResult(name, "NONEMPTY" if res.feasible else "EMPTY", res.witness, res.near_degenerate)

    def sectors(kind: str, closed: bool) -> list[Sector]:
        return [sector_of(c, kind, closed) for c in contacts]

    verdicts = []
    token = RECENTRE_MEMO.set({})  # an open test re-centres in its closed test's boxes
    try:
        for question in questions:
            kind_left, kind_right = _QUESTION_KINDS[question]
            closed_left = sectors(kind_left, True)
            closed_l = run("closedL", closed_left)
            closed_r = run("closedR", sectors(kind_right, True))
            # With tol > 0 the open test still runs: its tolerance twin may flag.
            open_l = run("openL", sectors(kind_left, False)) if closed_l.nonempty or tol > 0 else TestResult("openL", "EMPTY", None)
            open_r = run("openR", sectors(kind_right, False)) if closed_r.nonempty or tol > 0 else TestResult("openR", "EMPTY", None)
            directions = run("directions", closed_left, _directions)
            verdicts.append(_verdict(question, body.mode, (open_l, open_r, closed_l, closed_r, directions)))
    finally:
        RECENTRE_MEMO.reset(token)
    return tuple(verdicts)


def _verdict(question: str, mode: str, results: tuple[TestResult, ...]) -> Verdict:
    open_l, open_r, closed_l, closed_r, directions = results
    witness: Witness | None = None
    if open_l.nonempty:
        status = _NEGATIVE_STATUS[question]
        witness = Witness("rotation_center", point=open_l.witness, sense=CW)
    elif open_r.nonempty:
        status = _NEGATIVE_STATUS[question]
        witness = Witness("rotation_center", point=open_r.witness, sense=CCW)
    elif not (closed_l.nonempty or closed_r.nonempty or directions.nonempty):
        status = POSITIVE
    else:
        status = INDETERMINATE
        if closed_l.nonempty:
            witness = Witness("rotation_center", point=closed_l.witness, sense=CW)
        elif closed_r.nonempty:
            witness = Witness("rotation_center", point=closed_r.witness, sense=CCW)
        else:
            d = directions.witness
            witness = Witness("direction", direction=d, translation=rot90_ccw(d))
    return Verdict(
        question=question,
        status=status,
        tests=results,
        witness=witness,
        mode=mode,
        near_degenerate=any(t.near_degenerate for t in results),
    )


def classify_fix(body: ConvexBody, pts: list[BoundaryPoint], tol: Fraction | None = None) -> Verdict:
    """Can the contacts block every nearby nonidentical rigid motion?"""
    return _classify(body, pts, (QUESTION_FIX,), tol)[0]


def classify_almost_fix(body: ConvexBody, pts: list[BoundaryPoint], tol: Fraction | None = None) -> Verdict:
    """Can the contacts be doubled into nearby pairs that block everything?"""
    return _classify(body, pts, (QUESTION_ALMOST,), tol)[0]


def classify_both(body: ConvexBody, pts: list[BoundaryPoint], tol: Fraction | None = None) -> tuple[Verdict, Verdict]:
    """``(classify_fix(...), classify_almost_fix(...))`` from one pass: each
    distinct sector or direction system of the two questions is solved once."""
    return _classify(body, pts, (QUESTION_FIX, QUESTION_ALMOST), tol)


# -- refinement of an almost-fixing set into a fixing set ---------------------


@dataclass(frozen=True)
class PlacementEntry:
    anchor: BoundaryPoint
    tag: str  # both_sides | same_side_left | same_side_right
    minus: BoundaryPoint
    plus: BoundaryPoint


@dataclass(frozen=True)
class PlacementDescriptor:
    delta: Fraction
    entries: tuple[PlacementEntry, ...]

    def points(self) -> list[BoundaryPoint]:
        out = []
        for e in self.entries:
            out.extend((e.minus, e.plus))
        return out


_TAG_OFFSETS = {
    BOTH_SIDES: (Fraction(-1), Fraction(1)),
    SAME_SIDE_RIGHT: (Fraction(1), Fraction(2)),  # forward along CCW travel
    SAME_SIDE_LEFT: (Fraction(-2), Fraction(-1)),
}
_TAG_ORDER = (BOTH_SIDES, SAME_SIDE_RIGHT, SAME_SIDE_LEFT)


def _placement(body: ConvexBody, pts: list[BoundaryPoint], tags, delta: Fraction) -> PlacementDescriptor:
    entries = []
    for bp, tag in zip(pts, tags):
        lo, hi = _TAG_OFFSETS[tag]
        entries.append(
            PlacementEntry(
                anchor=bp,
                tag=tag,
                minus=offset_along_boundary(body, bp, lo * delta),
                plus=offset_along_boundary(body, bp, hi * delta),
            )
        )
    return PlacementDescriptor(delta, tuple(entries))


def refine_almost_to_fix(
    body: ConvexBody,
    pts: list[BoundaryPoint],
    eps,
    max_halvings: int = 20,
) -> tuple[PlacementDescriptor, Verdict]:
    """Double each contact into a nearby pair so the doubled set fixes.

    Tries neighbourhood radii eps/2, eps/4, ... down to eps/2**max_halvings;
    at each radius the placement variants per contact are straddling
    (offsets -d, +d along the boundary) or one-sided (+d, +2d or -2d, -d).
    The first doubled set to classify POSITIVE for FIX wins.  Placements are
    scanned in lexicographic order of ``_TAG_ORDER``, which starts with
    straddling, so the all-straddling placement is tried first.  An eps
    that is not a positive finite number raises OutOfRangeError.
    """
    eps = read_scalar(eps, "neighbourhood radius")
    if eps <= 0:
        raise OutOfRangeError("neighbourhood radius must be positive")
    pts = _dedupe_points(list(pts))
    pre = classify_almost_fix(body, pts)
    if pre.status != POSITIVE:
        raise NotAlmostPositiveError(f"almost-fix classification is {pre.status}, not {POSITIVE}")

    for k in range(1, max_halvings + 1):
        delta = eps / (2**k)
        for tags in itertools.product(_TAG_ORDER, repeat=len(pts)):
            placement = _placement(body, pts, tags, delta)
            verdict = classify_fix(body, placement.points())
            if verdict.status == POSITIVE:
                return placement, verdict
    raise RefinementExhaustedError(
        f"no fixing placement found down to radius {eps}/2**{max_halvings}"
    )


# -- grid search for almost-fixing tuples -------------------------------------


def boundary_grid(body: ConvexBody, resolution: int) -> list[BoundaryPoint]:
    """Element start vertices plus ``resolution`` interior subdivisions each."""
    if not 0 <= resolution <= 64:
        raise InvalidPointError("resolution must be between 0 and 64")
    pts = []
    for i in range(len(body.elements)):
        for j in range(resolution + 1):
            pts.append(boundary_point(body, i, Fraction(j, resolution + 1)))
    return pts


def _combination_at(rank: int, m: int, n: int) -> list[int]:
    """The ``rank``-th n-subset of ``range(m)`` in ``itertools.combinations``
    order, read off the combinatorial number system: ``comb(m - c - 1, k - 1)``
    subsets of the k places left start at c."""
    out, c = [], 0
    for k in range(n, 0, -1):
        while rank >= (count := math.comb(m - c - 1, k - 1)):
            rank -= count
            c += 1
        out.append(c)
        c += 1
    return out


def search_almost_fixing(
    body: ConvexBody,
    n: int,
    resolution: int = 1,
    seed: int = 0,
    candidates: list[BoundaryPoint] | None = None,
    max_tuples: int = 20000,
) -> list[tuple[tuple[BoundaryPoint, ...], Verdict]]:
    """All n-tuples of grid (or given) candidates that classify ALMOST_FIX POSITIVE.

    Deterministic: candidates in boundary order, tuples in combination order.
    When the combination count exceeds ``max_tuples`` a seeded sample of that
    size is examined instead (ranks drawn without replacement, sorted and
    unranked directly), so large grids stay bounded but reproducible.  A
    negative ``max_tuples`` raises OutOfRangeError.
    """
    if n not in (2, 3):
        raise InvalidPointError("tuple size must be 2 or 3")
    if max_tuples < 0:
        raise OutOfRangeError("max_tuples must not be negative")
    cands = candidates if candidates is not None else boundary_grid(body, resolution)
    m = len(cands)
    total = math.comb(m, n)
    combos = itertools.combinations(cands, n)
    if total > max_tuples:
        ranks = sorted(random.Random(seed).sample(range(total), max_tuples))
        combos = (tuple(cands[i] for i in _combination_at(rank, m, n)) for rank in ranks)
    out = []
    for combo in combos:
        verdict = classify_almost_fix(body, list(combo))
        if verdict.status == POSITIVE:
            out.append((combo, verdict))
    return out
