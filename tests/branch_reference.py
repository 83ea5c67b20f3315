"""Reference sector-system solver: every conjunctive branch, tried in turn.

This is the exponential enumeration ``feasibility.first_branch`` replaces,
kept as an oracle to race it against.  Branches pick one alternative per
sector in ``itertools.product`` order; the first feasible one gives the
witness, and with a positive tolerance both twins are solved over every
branch.  A twin moves each row ``n . p >= c`` to ``n . p >= c - tol
norm1(n) (1 + norm1(apex))``, the unit computed here from the sector's apex
and left as a ``Fraction`` row, which ``linear_feasible`` reads as it reads
any row from outside.  The witness is re-centred by the library's
``_improve_witness``, converted at its edges by ``recentre_reference``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from immobilize2d.feasibility import FeasibilityResult, _improve_witness, linear_feasible
from immobilize2d.geom import LinearConstraint, Vec, norm1
from recentre_reference import to_anchor, to_point, to_vec


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
    return any(linear_feasible(branch).feasible for branch in sector_branches([shifted(s, tol) for s in sectors]))


def anchor(sectors):
    """The mean of the apexes and 1 plus their largest L1 distance from it, as a ``Vec`` and a ``Fraction``."""
    n = len(sectors)
    if not n:
        return Vec(Fraction(0), Fraction(0)), Fraction(1)
    mean = Vec(sum((s.apex.x for s in sectors), Fraction(0)) / n, sum((s.apex.y for s in sectors), Fraction(0)) / n)
    return mean, 1 + max(norm1(Vec(s.apex.x - mean.x, s.apex.y - mean.y)) for s in sectors)


def sectors_intersection(sectors, tol=Fraction(0)):
    feasible, witness = False, None
    for branch in sector_branches([s.alternatives for s in sectors]):
        res = linear_feasible(branch)
        if res.feasible:
            feasible, witness = True, to_vec(_improve_witness(branch, to_point(res.witness), to_anchor(*anchor(sectors))))
            break
    flagged = tol > 0 and twin_any(sectors, tol) != twin_any(sectors, -tol)
    return FeasibilityResult(feasible, witness, flagged)
