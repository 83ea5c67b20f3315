"""Witness re-centring in integers, raced against its ``Fraction`` reference.

``tests/recentre_reference.py`` keeps the re-centring as it stood before it
moved to ints: four box rows through ``halfplane_constraint``, every row
paired again per box, and a ``Fraction`` Newton loop.  The integer version
must give the same deepest point for every system and box, and the same
re-centred witness for every sector branch that fuzz contact sets reach.
Its Newton loop is bounded: lines that break the loop's invariant end in
``SolverStepLimitError`` (``error[SOLVER_STEP_LIMIT]``, exit 1), not a hang.
"""

import random
from fractions import Fraction

import pytest

import recentre_reference
from bruteforce import random_system
from immobilize2d import cli, feasibility
from immobilize2d.errors import SolverStepLimitError
from immobilize2d.feasibility import _deepest_point, _improve_witness, _least_margin, _margin_system, linear_feasible
from immobilize2d.geom import LinearConstraint, Vec, over_one_denominator


def random_rational(rng, span, den):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def deepest_point(system, anchor, size):
    """``_deepest_point`` in the box of half-width ``size`` around ``anchor``, as a ``Vec``."""
    (ax, ay, s), d = over_one_denominator(anchor.x, anchor.y, size)
    p = _deepest_point(system, (ax, ay, s, d), 1)
    return None if p is None else Vec(Fraction(p[0], p[2]), Fraction(p[1], p[2]))


def min_margin(cons, p):
    (x, y), den = over_one_denominator(p.x, p.y)
    m, n = _least_margin(cons, x, y, den)
    return Fraction(m, n * den)


def test_deepest_points_race_the_reference_on_random_systems_and_boxes():
    rng = random.Random(1101)
    seen = {"point": 0, "none": 0, "recentred": 0}
    for _ in range(1500):
        rows = random_system(rng)
        if not rows:
            continue
        cons = [LinearConstraint(*row) for row in rows]
        system = _margin_system(cons)
        for _ in range(2):
            anchor = Vec(random_rational(rng, 20, 4), random_rational(rng, 20, 4))
            size = Fraction(rng.randint(1, 40), rng.randint(1, 7))
            p = deepest_point(system, anchor, size)
            assert p == recentre_reference.deepest_point(cons, recentre_reference.box_around(anchor, size)), rows
            seen["none" if p is None else "point"] += 1
        res = linear_feasible(cons)
        if res.feasible:
            assert min_margin(cons, res.witness) == recentre_reference.min_margin(cons, res.witness)
            anchor, scale = Vec(random_rational(rng, 6, 3), random_rational(rng, 6, 3)), Fraction(rng.randint(1, 5), rng.randint(1, 3))
            w = _improve_witness(cons, res.witness, anchor, scale)
            assert w == recentre_reference.improve_witness(cons, res.witness, anchor, scale), rows
            seen["recentred"] += w != res.witness
    assert min(seen.values()) > 20, seen


def test_recentred_witnesses_race_the_reference_on_fuzz_contact_sets(monkeypatch):
    calls = []
    improve = feasibility._improve_witness

    def racing(constraints, w, anchor, scale):
        got = improve(constraints, w, anchor, scale)
        assert got == recentre_reference.improve_witness(constraints, w, anchor, scale), constraints
        calls.append(got != w)
        return got

    monkeypatch.setattr(feasibility, "_improve_witness", racing)
    for index in range(40):
        cli._fuzz_trial(5, index, 8)
    assert len(calls) > 100 and sum(calls) > 50, (len(calls), sum(calls))


# Lowers must rise and uppers fall in t.  x >= 0 against x <= 1 - t and the
# rising x <= t - 3 makes the gap max(t - 1, 3 - t): Newton's steps land on
# t = 1 and t = 3 in turn for ever.
CYCLING = ([(1, 0, 0)], [(1, -1, 1), (1, 1, -3)], [])


def test_newton_past_its_step_bound_raises_a_coded_error():
    lowers, uppers, caps = CYCLING
    with pytest.raises(SolverStepLimitError) as err:
        feasibility._newton(lowers, uppers, caps)
    assert err.value.code == "SOLVER_STEP_LIMIT"


def test_cli_reports_the_step_limit_as_a_coded_error(monkeypatch, capsys):
    # Every re-centring box now meets the cycling lines (the box's own x rows
    # are flat and far, and no y rows pair), so fuzz stops at the first one.
    lowers, uppers, caps = CYCLING
    monkeypatch.setattr(feasibility, "_margin_system", lambda constraints: ([], [], [], lowers, uppers, caps))
    assert cli.main(["fuzz", "--trials", "5", "--seed", "5"]) == cli.EXIT_ERROR
    assert capsys.readouterr().err.startswith("error[SOLVER_STEP_LIMIT]: ")
