"""Reference sector-system solver: every conjunctive branch, tried in turn.

This is the exponential enumeration ``feasibility.first_branch`` replaces,
kept as an oracle to race it against.  Branches pick one alternative per
sector in ``itertools.product`` order; the first feasible one gives the
witness, and with a positive tolerance both twins are solved over every
branch.  A twin moves each row ``n . p >= c`` to ``n . p >= c - tol
norm1(n) (1 + norm1(apex))``, the unit computed here from the sector's apex
and left as a ``Fraction`` row.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from immobilize2d.feasibility import (
    FeasibilityResult,
    _feasible_exact,
    _improve_witness,
    linear_feasible,
)
from immobilize2d.geom import LinearConstraint, Vec, norm1


def sector_branches(alternatives):
    for pick in itertools.product(*alternatives):
        yield [lc for group in pick for lc in group]


def shifted(s, tol):
    """The sector's alternatives, every row relaxed by ``tol`` units."""
    unit = tol * (1 + norm1(s.apex))
    return [
        [LinearConstraint(lc.nx, lc.ny, lc.c - unit * norm1(Vec(lc.nx, lc.ny)), lc.strict) for lc in group]
        for group in s.alternatives
    ]


def twin_any(sectors, tol):
    return any(_feasible_exact(branch)[0] for branch in sector_branches([shifted(s, tol) for s in sectors]))


def sectors_intersection(sectors, tol=Fraction(0)):
    n = len(sectors)
    anchor, spread = Vec(Fraction(0), Fraction(0)), Fraction(1)
    if n:
        anchor = Vec(sum((s.apex.x for s in sectors), Fraction(0)) / n, sum((s.apex.y for s in sectors), Fraction(0)) / n)
        spread = 1 + max(norm1(Vec(s.apex.x - anchor.x, s.apex.y - anchor.y)) for s in sectors)
    feasible, witness = False, None
    for branch in sector_branches([s.alternatives for s in sectors]):
        res = linear_feasible(branch)
        if res.feasible:
            feasible, witness = True, _improve_witness(branch, res.witness, anchor, spread)
            break
    flagged = tol > 0 and twin_any(sectors, tol) != twin_any(sectors, -tol)
    return FeasibilityResult(feasible, witness, flagged)
