"""Exact feasibility of small planar constraint systems.

Systems are conjunctions of half-plane rows ``n . p >= c`` (or strict ``>``),
coprime ints as ``geom.halfplane_constraint`` builds them, solved by eliminating
y (pairing each lower bound on y with each upper bound in ints), which yields
an interval witness for free.  Every bound, on x in the solve and on y in the
read-out, stays an integer pair ``(N, B)``, ``B > 0``, and one picker
(``_inside``) compares them by cross-multiplication.  One elimination and one
y read-out serve the feasibility solve and witness re-centring.  Re-centring
puts the witness, anchor and scale over one denominator once, pairs its margin
rows once per witness, adds per box only the box's x rows and the pairs of
its y rows, runs a bounded Newton search on ints, and carries each candidate
as ``(X, Y, W)`` ints; the margins that score and snap witnesses are integer
comparisons.  A ``Fraction`` is built only for a coordinate of a point
returned (and for the snapping floor), never per bound, row or candidate.

Sector systems add one twist: a large sector at a corner is a union of two
half-planes, so the system is a union of branches, one of each sector's
``alternatives`` (its rows, read off its contact's ``ContactRows``);
``first_branch`` finds the first nonempty one from the integer vertices of
the boundary lines' arrangement, read off the rows as they are, never
enumerating.

With a positive tolerance, sector and direction systems run one "twin" pass,
relaxed by a tolerance-scaled slack if the system is empty and tightened if
not; a verdict the twin flips is reported as near-degenerate rather than
trusted; ``_twin_any`` takes a row's unit, ``(|nx| + |ny|) (1 + norm1(apex))``,
from its sector's apex over one denominator, so an int row moves in ints.  A
direction system is one closed arc per contact; its twin turns the end rays in
ints, growing each arc (the system is empty) or shrinking it (nonempty), and
an arc shrunk away leaves the twin empty.  Plain systems have no twin.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstraintLimitError, SolverStepLimitError
from .geom import LinearConstraint, Vec, _coprime_row, norm1, over_one_denominator
from .sectors import CircArc, Sector, first_common_direction, grow_arc, shrink_arc

MAX_CONSTRAINTS = 64
_SNAP_BITS = 60


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: Vec | None
    near_degenerate: bool = False


def _inside(lowers: list[tuple], uppers: list[tuple]) -> tuple[int, int] | None:
    """A point ``(N, D)``, ``D > 0``, of the interval left by the bounds ``(N, B, strict)``,
    ``B > 0``: ``v >= N / B`` for lowers, ``v <= N / B`` for uppers (``>``, ``<`` when
    strict).  The midpoint when bounded on both sides, one past a lone bound, else 0;
    None when empty.  The highest lower and the lowest upper bound are picked by
    cross-multiplication, and bounds tied with them merge ``strict``."""
    lo = hi = None
    for n, b, strict in lowers:
        if lo is None or n * lo[1] > lo[0] * b:
            lo = n, b, strict
        elif strict and n * lo[1] == lo[0] * b:
            lo = lo[0], lo[1], True
    for n, b, strict in uppers:
        if hi is None or n * hi[1] < hi[0] * b:
            hi = n, b, strict
        elif strict and n * hi[1] == hi[0] * b:
            hi = hi[0], hi[1], True
    if lo is not None and hi is not None:
        d = hi[0] * lo[1] - lo[0] * hi[1]
        if d < 0 or (d == 0 and (lo[2] or hi[2])):
            return None
        return lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
    if lo is not None:
        return lo[0] + lo[1], lo[1]
    if hi is not None:
        return hi[0] - hi[1], hi[1]
    return 0, 1


def _pair(lowers: list[tuple], uppers: list[tuple]):
    """The x rows ``(a, c, w, strict)`` of each y-lower row paired with each
    y-upper row, lowers outermost, lazily."""
    for la, lb, lc, lw, ls in lowers:
        for ua, ub, uc, uw, us in uppers:
            w = lb * uw - ub * lw if uw or lw else 0  # no Fraction products for w = 0 rows
            yield ua * lb - la * ub, lb * uc - ub * lc, w, ls or us


def _eliminate_y(rows: list[tuple]):
    """Fourier-Motzkin over rows ``(a, b, c, w, strict)``, each ``a x + b y >= c
    + w t`` (``>`` when strict): yields the x rows ``(a, c, w, strict)`` of the
    rows free of y, then of each y-lower row paired with each y-upper row,
    lazily, so a caller that meets a contradiction stops the pairing there."""
    for a, b, c, w, strict in rows:
        if b == 0:
            yield a, c, w, strict
    yield from _pair([row for row in rows if row[1] > 0], [row for row in rows if row[1] < 0])


def _point_at(rows: list[tuple], x: int, t: int, den: int) -> tuple[int, int, int] | None:
    """``(X, Y, W)``, ``W > 0``, the point at ``x / den``, ``den > 0``, whose y ``_inside``
    picks from the interval the rows leave at ``(x, t) / den`` (its midpoint when bounded
    on both sides); None when it is empty.  A row bounds y by ``(c den + w t - a x) / (b den)``."""
    lowers, uppers = [], []
    for a, b, c, w, strict in rows:
        if b > 0:
            lowers.append((c * den + w * t - a * x, b * den, strict))
        elif b < 0:
            uppers.append((a * x - c * den - w * t, -b * den, strict))
    y = _inside(lowers, uppers)
    return None if y is None else (x * y[1], y[0] * den, den * y[1])


def _feasible_exact(constraints: list[LinearConstraint]) -> tuple[bool, Vec | None]:
    """Eliminate y, solve for x, read y off.  Exact, no tolerance."""
    rows = [(lc.nx, lc.ny, lc.c, 0, lc.strict) for lc in constraints]
    x_lowers, x_uppers = [], []
    for a, c, _, strict in _eliminate_y(rows):
        if a > 0:
            x_lowers.append((c, a, strict))
        elif a < 0:
            x_uppers.append((-c, -a, strict))
        elif c > 0 or (strict and c == 0):
            return False, None
    x = _inside(x_lowers, x_uppers)
    if x is None:
        return False, None
    px, py, pw = _point_at(rows, x[0], 0, x[1])  # the pairing makes x exact, so y's interval is nonempty
    return True, Vec(Fraction(px, pw), Fraction(py, pw))


def _round_half_even(n: int, d: int) -> int:
    """``n / d`` rounded to an integer, ties to even, for ``d > 0``: ``round`` of that ``Fraction``."""
    q, r = divmod(n, d)
    return q + 1 if 2 * r > d or (2 * r == d and q & 1) else q


def _snap_witness(w: Vec, constraints: list[LinearConstraint], floor: Fraction | None) -> Vec:
    """Round to the coarsest dyadic grid that still satisfies everything.

    Exact witnesses from elimination can carry huge denominators and sit
    close to strict boundaries; snapping picks a nearby point with small
    terms and fatter margins.  With a ``floor`` the snapped point must also
    keep a smallest normalized margin of at least ``floor``.  Falls back to
    the exact witness when the point is pinned to a non-dyadic equality.
    """
    xn, xd, yn, yd = w.x.numerator, w.x.denominator, w.y.numerator, w.y.denominator
    for k in range(_SNAP_BITS + 1):
        x, y, den = _round_half_even(xn << k, xd), _round_half_even(yn << k, yd), 1 << k
        if not all((m := lc.nx * x + lc.ny * y - lc.c * den) > 0 or (m == 0 and not lc.strict) for lc in constraints):
            continue
        if floor is not None:
            m, n = _least_margin(constraints, x, y, den)
            if m * floor.denominator < floor.numerator * n * den:
                continue
        return Vec(Fraction(x, den), Fraction(y, den))
    return w


def linear_feasible(constraints: list[LinearConstraint]) -> FeasibilityResult:
    if len(constraints) > MAX_CONSTRAINTS:
        raise ConstraintLimitError(f"{len(constraints)} constraints exceed the cap of {MAX_CONSTRAINTS}")
    ok, w = _feasible_exact(constraints)
    if ok:
        w = _snap_witness(w, constraints, None)
    return FeasibilityResult(ok, w)


# -- sector systems ----------------------------------------------------------


def first_branch(alternatives: list[tuple[tuple[LinearConstraint, ...], ...]]) -> list[LinearConstraint] | None:
    """The first nonempty branch, picking one of each sector's ``alternatives``
    in ``itertools.product`` order; None when there is none.  A sole branch
    is returned undecided.  Each candidate ``(x0 + eps x1, y0 +
    eps y1) / w`` is the crossing of two boundary lines, strict ones pushed
    inward by a symbolic eps, or of the first line and one across it.  Every
    nonempty branch holds a candidate, and the first alternative of each sector
    holding at a candidate forms a nonempty branch, so the least is the first.
    """
    n_rows = sum(len(alts[0]) for alts in alternatives)  # the same in every branch
    if n_rows > MAX_CONSTRAINTS:
        raise ConstraintLimitError(f"{n_rows} constraints exceed the cap of {MAX_CONSTRAINTS}")
    if all(len(alts) == 1 for alts in alternatives):
        return [lc for alts in alternatives for lc in alts[0]]
    lines = [lc for alts in alternatives for group in alts for lc in group]
    lines.append(LinearConstraint(-lines[0].ny, lines[0].nx, 0))
    best = None
    for l1, l2 in itertools.combinations(lines, 2):
        (a1, b1, c1, e1), (a2, b2, c2, e2) = (l1.nx, l1.ny, l1.c, l1.strict), (l2.nx, l2.ny, l2.c, l2.strict)
        w = a1 * b2 - a2 * b1
        if w == 0:
            continue
        s = 1 if w > 0 else -1
        x0, y0, w = s * (c1 * b2 - c2 * b1), s * (a1 * c2 - a2 * c1), s * w
        x1, y1 = s * (e1 * b2 - e2 * b1), s * (a1 * e2 - a2 * e1)
        picks, tight = [], best is not None  # tight: picks so far equal best's prefix
        for i, alts in enumerate(alternatives):
            for j in range(best[i] + 1 if tight else len(alts)):
                if all(
                    (v := lc.nx * x0 + lc.ny * y0 - lc.c * w) > 0
                    or (v == 0 and lc.nx * x1 + lc.ny * y1 >= lc.strict * w)
                    for lc in alts[j]
                ):
                    break
            else:
                break  # no alternative holds, or none that can beat best
            picks.append(j)
            tight = tight and j == best[i]
        else:
            best = picks
            if not any(best):
                break
    return None if best is None else [lc for alts, j in zip(alternatives, best) for lc in alts[j]]


_QUALITY_GOOD = Fraction(1, 64)
_IMPROVE_BOXES = (8, 128, 2048)


def _least_margin(constraints: list[LinearConstraint], x: int, y: int, den: int) -> tuple[int, int]:
    """Smallest normalized margin ``(n.p - c) / norm1(n)`` at ``p = (x, y) / den``,
    ``den > 0``, as ``(m, n)``, the margin being ``m / (n den)``: the least
    ratio found by cross-multiplication."""
    m0 = n0 = None
    for lc in constraints:
        m, n = lc.nx * x + lc.ny * y - lc.c * den, abs(lc.nx) + abs(lc.ny)
        if m0 is None or m * n0 < m0 * n:
            m0, n0 = m, n
    return m0, n0


def _witness_quality(constraints: list[LinearConstraint], p: tuple, anchor: tuple) -> tuple[int, int]:
    """Smallest normalized margin, discounted by the distance from the anchor.

    A witness far from the contact region needs a proportionally larger
    margin to describe the same angular clearance, so the discount makes the
    ratio comparable across near and far candidates.  The scale S / D is the
    size of the contact region itself, which keeps the ratio dimensionless.
    For p ``(X, Y, W)`` and the anchor and scale ``(AX, AY, S, D)`` the ratio
    is ``(m D, n (S W + |X D - AX W| + |Y D - AY W|))``, margin ``m / (n W)``.
    """
    x, y, w = p
    ax, ay, s, d = anchor
    m, n = _least_margin(constraints, x, y, w)
    return m * d, n * (s * w + abs(x * d - ax * w) + abs(y * d - ay * w))


def _x_lines(x_rows, lowers: list, uppers: list, caps: list) -> bool:
    """Sort x rows ``a x >= c + w t`` into the lines ``(A, W, C)``, ``A > 0``,
    that bound x by ``(W t + C) / A`` from below and above, and the caps
    ``t <= p / q`` as ``(p, q)``, ``q > 0``; False when a row holds for no t."""
    for a, c, w, _ in x_rows:
        if a > 0:
            lowers.append((a, w, c))
        elif a < 0:
            uppers.append((-a, -w, -c))
        elif w > 0:
            caps.append((-c, w))
        elif c > 0:
            return False
    return True


def _margin_system(constraints: list[LinearConstraint]):
    """The rows of "``n.p - c >= t norm1(n)`` for every constraint", its y-lower
    and y-upper rows, and the x lines and caps of their one pairing; None when
    they hold for no t.  Every box of one re-centring starts from this."""
    rows = [(lc.nx, lc.ny, lc.c, abs(lc.nx) + abs(lc.ny), False) for lc in constraints]
    lowers, uppers, caps = [], [], []
    if not _x_lines(_eliminate_y(rows), lowers, uppers, caps):
        return None
    return rows, [r for r in rows if r[1] > 0], [r for r in rows if r[1] < 0], lowers, uppers, caps


def _deepest_point(system, anchor: tuple, factor: int) -> tuple[int, int, int] | None:
    """The point ``(X, Y, W)`` of the box ``|x - AX / D|, |y - AY / D| <= factor S / D``,
    for the anchor ``(AX, AY, S, D)``, whose least normalized margin is largest.

    This is the exact optimum of the LP "maximise t subject to
    ``n.p - c >= t(|nx|+|ny|)`` for every constraint" within the box; None
    when that maximum ``t*`` is 0 or not even ``t = 0`` is feasible.  The box
    rows are read off the anchor's ints (``D x >= AX - factor S`` and so on):
    the two x rows are lines as they are, and only the pairs that involve the
    two y rows are added to the system's one pairing.  Every paired row keeps
    a nonnegative t coefficient, so each x lower bound is a line in t that
    rises and each upper bound one that falls.  The gap between the highest
    lower and the lowest upper bound is then convex, nondecreasing and
    piecewise linear, and Newton steps started right of its largest root
    land on that root exactly, on integers: t is ``p / q``, lines are
    compared by cross-multiplication, and each step jumps to the root of
    the active pair.  A line leaves the envelope at most once as t falls, so
    more than ``len(lowers) + len(uppers) + 1`` steps means an invariant
    broke, and ``SolverStepLimitError`` is raised.  The point is the midpoint
    of the x interval at ``t*``, then ``_point_at`` reads y there: the
    witness ``_feasible_exact`` gives for the rows and box tightened by
    ``t*``, by construction, found without solving again.
    """
    if system is None:
        return None
    rows, y_lowers, y_uppers, lowers, uppers, caps = system
    ax, ay, s, d = anchor
    size = factor * s
    y_low, y_high = (0, d, ay - size, 0, False), (0, -d, -ay - size, 0, False)
    lowers, uppers, caps = lowers + [(d, 0, ax - size)], uppers + [(d, 0, ax + size)], caps[:]
    box_pairs = itertools.chain(_pair([y_low], y_uppers + [y_high]), _pair(y_lowers, [y_high]))
    if not _x_lines(box_pairs, lowers, uppers, caps):
        return None
    xt = _newton(lowers, uppers, caps)
    return None if xt is None else _point_at(rows + [y_low, y_high], *xt)


def _newton(lowers: list, uppers: list, caps: list) -> tuple[int, int, int] | None:
    """Newton on the x gap of ``_deepest_point``'s lines, from the least cap: ``(X, T, D)``,
    ``D > 0``, the midpoint ``X / D`` of the x interval at the largest root ``T / D``."""
    # Start at the root of the pair that dominates as t grows, or at a lower cap.
    ta, tw, tc = lowers[0]  # top: the highest slope, then intercept
    for a, w, c in lowers:
        if w * ta > tw * a or (w * ta == tw * a and c * ta > tc * a):
            ta, tw, tc = a, w, c
    ba, bw, bc = uppers[0]  # bottom: the lowest slope, then intercept
    for a, w, c in uppers:
        if w * ba < bw * a or (w * ba == bw * a and c * ba < bc * a):
            ba, bw, bc = a, w, c
    if tw * ba > bw * ta:
        caps = caps + [(bc * ta - tc * ba, tw * ba - bw * ta)]
    p, q = caps[0]
    for cp, cq in caps:
        if cp * q < p * cq:
            p, q = cp, cq
    steps = len(lowers) + len(uppers) + 1
    while p > 0:
        # The bound active at t on its left: ties go to the flatter line.
        la, lw, lc = lowers[0]
        lv = lw * p + lc * q  # the line's value at t, times A q
        for a, w, c in lowers:
            v = w * p + c * q
            d = v * la - lv * a
            if d > 0 or (d == 0 and w * la < lw * a):
                la, lw, lc, lv = a, w, c, v
        ua, uw, uc = uppers[0]
        uv = uw * p + uc * q
        for a, w, c in uppers:
            v = w * p + c * q
            d = v * ua - uv * a
            if d < 0 or (d == 0 and w * ua > uw * a):
                ua, uw, uc, uv = a, w, c, v
        if lv * ua <= uv * la:
            return lv * ua + uv * la, 2 * la * ua * p, 2 * la * ua * q
        if lw * ua == uw * la:  # the gap stays positive for all smaller t
            return None
        if not steps:
            raise SolverStepLimitError(f"witness re-centring ran past {len(lowers) + len(uppers) + 1} Newton steps")
        steps -= 1
        p, q = uc * la - lc * ua, lw * ua - uw * la
        if q < 0:  # only if a lower falls or an upper rises: t stays p / q with q > 0
            p, q = -p, -q
    return None


def _improve_witness(constraints: list[LinearConstraint], w: Vec, anchor: Vec, scale: Fraction) -> Vec:
    """Re-center a feasibility witness when it hugs a constraint boundary.

    Witnesses straight out of elimination can sit a hair away from one of the
    bounding lines, far from the contact region.  Such points are terrible
    certificates: the rotation family they describe clears the body only in a
    vanishing window of magnitudes.  When the original witness has a poor
    margin-to-distance ratio, this pairs the margin rows once, takes, in each
    of a few boxes around the anchor, the deepest point ``_deepest_point``
    finds, and keeps whichever candidate scores best.  A box whose best
    margin is 0 is skipped: none of its points can beat the original,
    feasible witness.  The result is snapped to a coarse dyadic point that
    keeps at least half its margin, and always satisfies the original
    constraints.
    """
    if not constraints:
        return w
    (wx, wy, ax, ay, s), d = over_one_denominator(w.x, w.y, anchor.x, anchor.y, scale)
    anchor = ax, ay, s, d
    best, (bm, bn) = None, _witness_quality(constraints, (wx, wy, d), anchor)
    if bm * _QUALITY_GOOD.denominator >= _QUALITY_GOOD.numerator * bn:
        return w
    system = _margin_system(constraints)
    for factor in _IMPROVE_BOXES:
        point = _deepest_point(system, anchor, factor)
        if point is None:
            continue
        m, n = _witness_quality(constraints, point, anchor)
        if m * bn > bm * n:
            best, bm, bn = point, m, n
    if best is None:
        return w
    x, y, d = best
    m, n = _least_margin(constraints, x, y, d)
    return _snap_witness(Vec(Fraction(x, d), Fraction(y, d)), constraints, Fraction(m, 2 * n * d))


def _anchor(sectors: list[Sector]) -> tuple[Vec, Fraction]:
    """The mean of the sectors' apexes and 1 plus their largest L1 distance from
    it, over the apexes' one denominator: the anchor and scale re-centring measures from."""
    n = len(sectors)
    if not n:
        return Vec(Fraction(0), Fraction(0)), Fraction(1)
    coords, den = over_one_denominator(*(v for s in sectors for v in (s.apex.x, s.apex.y)))
    xs, ys = coords[0::2], coords[1::2]
    sx, sy, nd = sum(xs), sum(ys), n * den
    spread = max(abs(n * x - sx) + abs(n * y - sy) for x, y in zip(xs, ys))
    return Vec(Fraction(sx, nd), Fraction(sy, nd)), Fraction(nd + spread, nd)


def sectors_intersection(sectors: list[Sector], tol: Fraction = Fraction(0)) -> FeasibilityResult:
    """Is the intersection of the sectors nonempty, and where?"""
    feasible = False
    witness = None
    branch = first_branch([s.alternatives for s in sectors])
    if branch is not None:
        res = linear_feasible(branch)
        if res.feasible:
            feasible = True
            witness = _improve_witness(branch, res.witness, *_anchor(sectors))
    # Relaxing only adds points and tightening only removes them: one twin can flip the answer.
    flagged = tol > 0 and _twin_any(sectors, -tol if feasible else tol) != feasible
    return FeasibilityResult(feasible, witness, flagged)


def _twin_any(sectors: list[Sector], slack: Fraction) -> bool:
    """Is the sector system nonempty with each row ``n . p >= c`` relaxed to
    ``c - slack (|nx| + |ny|) (1 + norm1(apex))`` (tightened when slack < 0)?"""
    shifted = []
    for s in sectors:
        (ax, ay), ad = over_one_denominator(s.apex.x, s.apex.y)
        p, q = slack.numerator * (ad + abs(ax) + abs(ay)), slack.denominator * ad  # slack (1 + norm1(apex)), q > 0
        alts = []
        for group in s.alternatives:
            alts.append([_coprime_row(q * lc.nx, q * lc.ny, q * lc.c - p * (abs(lc.nx) + abs(lc.ny)), lc.strict) for lc in group])
        shifted.append(alts)
    branch = first_branch(shifted)
    return branch is not None and _feasible_exact(branch)[0]


# -- direction systems -------------------------------------------------------


def _unit_l1(d: Vec) -> Vec:
    return d.scaled(Fraction(1, norm1(d)))


def directions_intersection(arcs: list[CircArc], tol: Fraction = Fraction(0)) -> FeasibilityResult:
    """Common direction of all arcs; the witness is an L1-normalized direction."""
    start = first_common_direction(arcs)
    # Grown arcs contain the arcs and shrunk ones lie in them: one twin can flip the answer.
    flagged = tol > 0 and (
        first_common_direction([grow_arc(a, tol) if start is None else shrink_arc(a, tol) for a in arcs]) is None
    ) != (start is None)
    return FeasibilityResult(start is not None, None if start is None else _unit_l1(start), flagged)
