"""The fuzz trial's checks over corner-rich and sliding contact draws.

``fuzz`` draws each contact at ``randint(0, 2047) / 2048`` along an edge, so a
contact lands on a vertex with probability 1/2048.  At a smooth contact the
large and small sectors are equal, FIX and ALMOST_FIX solve the same systems,
and the lattice checks (FIX POSITIVE implies ALMOST_FIX POSITIVE;
NOT_ALMOST_FIX implies NOT_WEAKLY_FIX) compare a result with itself.  This
test leaves ``fuzz``'s draws and bytes alone and runs ``cli._fuzz_trial``, its
checks included, over two other draws: contacts at a vertex a quarter of the
time on the fuzz's random polygons, and axis-aligned rectangles touched only
along their top and bottom edges, criterion 1's sliding rectangle, where the
first-order tests cannot decide.  Run with ``-s`` to see the joint-outcome
table.

``fuzz`` asks both questions through ``classify.classify_both``, which solves
each distinct system once for the two; the race below checks it against the
two one-question classifiers on the same draws, and on ``example_e1``'s arcs
at their positive tolerance, where the tolerance twins run.
"""

import random
from collections import Counter
from fractions import Fraction

from immobilize2d import classify, cli, fixtures, oracle
from immobilize2d.body import boundary_point
from immobilize2d.classify import INDETERMINATE, NOT_ALMOST_FIX, NOT_WEAKLY_FIX, POSITIVE

CORNER_TRIALS = 160
RECTANGLE_TRIALS = 60
MAX_POINTS = 7  # more contacts than fuzz's default 5: corners make FIX POSITIVE rarer


def corner_points(body, rng, max_points):
    """Like ``cli._fuzz_points``, but each contact is an element's first vertex with probability 1/4."""
    count = rng.randint(2, max_points)
    pts, seen = [], set()
    while len(pts) < count:
        param = Fraction(0) if rng.random() < 0.25 else Fraction(rng.randint(1, 2047), 2048)
        key = (rng.randrange(len(body.elements)), param)
        if key not in seen:
            seen.add(key)
            pts.append(boundary_point(body, *key))
    return pts


def rectangle(seed, k):
    """An axis-aligned rectangle with integer sides; element 0 is its bottom, element 2 its top."""
    rng = random.Random(seed)
    w, h = rng.randint(1, 9), rng.randint(1, 9)
    return fixtures.polygon([(0, 0), (w, 0), (w, h), (0, h)])


def sliding_points(body, rng, max_points):
    """Contacts on the rectangle's bottom and top edges only, at least one on each, strictly inside them."""
    count = rng.randint(2, max_points)
    keys = {(0, Fraction(rng.randint(1, 7), 8)), (2, Fraction(rng.randint(1, 7), 8))}
    while len(keys) < count:
        keys.add((rng.choice((0, 2)), Fraction(rng.randint(1, 7), 8)))
    return [boundary_point(body, *key) for key in sorted(keys)]


def joint_outcomes(monkeypatch, seed, trials, points, body=None):
    monkeypatch.setattr(cli, "_fuzz_points", points)
    if body is not None:
        monkeypatch.setattr(fixtures, "random_convex_polygon", body)
    outcomes = Counter()
    for index in range(trials):
        trial = cli._fuzz_trial(seed, index, MAX_POINTS)
        assert trial["violations"] == [], trial
        if not trial["skipped"]:
            outcomes[trial["fix"], trial["almost"]] += 1
    return outcomes


def test_fuzz_checks_hold_on_corner_and_sliding_draws(monkeypatch):
    corners = joint_outcomes(monkeypatch, 5, CORNER_TRIALS, corner_points)
    sliding = joint_outcomes(monkeypatch, 5, RECTANGLE_TRIALS, sliding_points, rectangle)
    for name, table in (("corner draws", corners), ("sliding rectangles", sliding)):
        print(f"{name}: " + ", ".join(f"({fix}, {almost}) {n}" for (fix, almost), n in sorted(table.items())))
    # Only where FIX is negative and ALMOST_FIX positive do the lattice checks compare two different solves.
    assert corners[NOT_WEAKLY_FIX, POSITIVE] >= 10, corners
    assert corners[POSITIVE, POSITIVE] >= 10 and corners[NOT_WEAKLY_FIX, NOT_ALMOST_FIX] >= 10, corners
    assert sum(n for (fix, almost), n in sliding.items() if INDETERMINATE in (fix, almost)) >= 10, sliding


def test_both_questions_in_one_pass_race_the_two_classifiers(monkeypatch):
    both, seen = classify.classify_both, Counter()

    def racing(body, pts, tol=None):
        got = both(body, pts, tol)
        assert got == (classify.classify_fix(body, pts, tol), classify.classify_almost_fix(body, pts, tol)), pts
        seen[got[0].status, got[1].status] += 1
        return got

    monkeypatch.setattr(classify, "classify_both", racing)
    # The race needs only the draws: the oracle checks are the other test's.
    monkeypatch.setattr(oracle, "validate_rotation_witness", lambda body, pts, point, sense: True)
    monkeypatch.setattr(oracle, "escape_search", lambda body, pts, samples, seed: None)
    joint_outcomes(monkeypatch, 5, CORNER_TRIALS, corner_points)
    joint_outcomes(monkeypatch, 5, RECTANGLE_TRIALS, sliding_points, rectangle)
    assert seen[NOT_WEAKLY_FIX, POSITIVE] and seen[INDETERMINATE, INDETERMINATE], seen
    for n in range(2, 7):
        fx = fixtures.example_e1(n)
        assert fx.body.tolerance() > 0
        verdicts = racing(fx.body, fx.points)
        assert all(v.near_degenerate for v in verdicts), n
