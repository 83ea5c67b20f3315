"""Pinned bytes: the canonical verdict JSON of a fixed seeded set, and fuzz stdout.

Refactors of the solver must leave every verdict, witness and flag
byte-identical.  This hashes the canonical rendering (``io.dumps`` of
``io.verdict_to_json``) of a fixed set of inputs and compares it with the
digest recorded when the set was chosen, so any change in output shows up in
tier-1 rather than only in a hand-run sweep.  The set asks both questions at
the body's own tolerance and at 1/100 on random 4-9-gons with vertex and edge
contacts and on ``example_e1``/``example_e2``, and it reaches all four
statuses and at least one near-degenerate verdict.  A second set pins verdicts
at 1/100 on random hexagons in which an open test is flagged near-degenerate
while its closed test is EMPTY: an open test skipped at a positive tolerance
changes those bytes.  If a change is meant to alter output, the digests here
change with it, and the change says why.
"""

import hashlib
import random
from fractions import Fraction

from immobilize2d import cli, fixtures, io
from immobilize2d.body import boundary_point
from immobilize2d.classify import (
    INDETERMINATE,
    NOT_ALMOST_FIX,
    NOT_WEAKLY_FIX,
    POSITIVE,
    classify_almost_fix,
    classify_fix,
)
from immobilize2d.errors import DegenerateError

VERDICTS_SHA256 = "9b9bc0aa9f302323cc66062e68c1e91b97edb2ac0468363081127a9f8258db41"
FUZZ_SHA256 = "ec987a772fd588385b411f5c4b3843f913214f861a8bc6344656e9fbe1d74aff"
OPEN_FLAGS_SHA256 = "12175a809f8548d199f36b5565034cc8c311fb98e0e45fa02fbcb7ab55c57380"


def random_contact_sets(seeds, sides):
    """(body, contacts) pairs: for each seed a random convex polygon with
    ``sides(seed)`` sides and 2-6 vertex or edge contacts on it."""
    for seed in seeds:
        rng = random.Random(seed)
        try:
            body = fixtures.random_convex_polygon(seed, sides(seed))
        except DegenerateError:
            continue
        n = len(body.elements)
        keys = set()  # (element, param): a vertex or an edge point
        for _ in range(rng.randint(2, 6)):
            j = rng.randrange(n)
            keys.add((j, Fraction(0) if rng.random() < 0.5 else Fraction(rng.randint(1, 15), 16)))
        yield body, [boundary_point(body, j, param) for j, param in sorted(keys)]


def pinned_inputs():
    """(body, contacts) pairs: 40 random 4-9-gons, then e1 and e2 at n = 2, 3."""
    yield from random_contact_sets(range(40), lambda seed: 4 + seed % 6)
    for make in (fixtures.example_e1, fixtures.example_e2):
        for n in (2, 3):
            fx = make(n)
            yield fx.body, list(fx.points)


def test_verdict_bytes_are_pinned():
    digest, statuses, near_degenerate = hashlib.sha256(), set(), 0
    for body, pts in pinned_inputs():
        for tol in (None, Fraction(1, 100)):
            for ask in (classify_fix, classify_almost_fix):
                verdict = ask(body, pts, tol=tol)
                digest.update(io.dumps(io.verdict_to_json(verdict, tol=tol)).encode())
                statuses.add(verdict.status)
                near_degenerate += verdict.near_degenerate
    assert statuses == {POSITIVE, NOT_WEAKLY_FIX, NOT_ALMOST_FIX, INDETERMINATE}
    assert near_degenerate > 0
    assert digest.hexdigest() == VERDICTS_SHA256


def test_flagged_open_tests_behind_empty_closed_tests_are_pinned():
    digest, shapes = hashlib.sha256(), 0
    tol = Fraction(1, 100)
    for body, pts in random_contact_sets(range(80), lambda seed: 6):
        for ask in (classify_fix, classify_almost_fix):
            verdict = ask(body, pts, tol=tol)
            digest.update(io.dumps(io.verdict_to_json(verdict, tol=tol)).encode())
            for side in "LR":
                shapes += verdict.test("open" + side).near_degenerate and not verdict.test("closed" + side).nonempty
    assert shapes > 0
    assert digest.hexdigest() == OPEN_FLAGS_SHA256


def test_fuzz_stdout_is_pinned(capsys):
    assert cli.main(["fuzz", "--trials", "20", "--seed", "5"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == FUZZ_SHA256
