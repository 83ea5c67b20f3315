"""Reference witness re-centring in ``Fraction`` arithmetic.

This is the re-centring ``feasibility._improve_witness`` replaces: four box
rows built through ``halfplane_constraint``, every row paired again for each
box, x bounds held as ``Fraction`` slopes and intercepts, and a Newton loop
stepping on ``Fraction`` t.  It is kept as an oracle to race the integer
version against, so it imports nothing of the re-centring code: elimination,
the exact solve, the y read-out, margins and snapping are copied here as they
stood, every bound an exact ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction

from immobilize2d.geom import LinearConstraint, Vec, halfplane_constraint, norm1, vec

QUALITY_GOOD = Fraction(1, 64)
IMPROVE_BOXES = (Fraction(8), Fraction(128), Fraction(2048))
SNAP_BITS = 60


def merge_bound(best, candidate, is_lower):
    if best is None:
        return candidate
    bv, bs = best
    cv, cs = candidate
    if cv == bv:
        return (bv, bs or cs)
    if (cv > bv) == is_lower:
        return candidate
    return best


def solve_interval(lowers, uppers):
    lo = None
    for b in lowers:
        lo = merge_bound(lo, b, is_lower=True)
    hi = None
    for b in uppers:
        hi = merge_bound(hi, b, is_lower=False)
    if lo is not None and hi is not None:
        if lo[0] > hi[0]:
            return False, None
        if lo[0] == hi[0]:
            if lo[1] or hi[1]:
                return False, None
            return True, lo[0]
        return True, (lo[0] + hi[0]) / 2
    if lo is not None:
        return True, lo[0] + 1
    if hi is not None:
        return True, hi[0] - 1
    return True, Fraction(0)


def eliminate_y(rows):
    for a, b, c, w, strict in rows:
        if b == 0:
            yield a, c, w, strict
    uppers = [row for row in rows if row[1] < 0]
    for la, lb, lc, lw, ls in rows:
        if lb > 0:
            for ua, ub, uc, uw, us in uppers:
                w = lb * uw - ub * lw if uw or lw else 0
                yield ua * lb - la * ub, lb * uc - ub * lc, w, ls or us


def point_at(rows, x, t):
    lowers, uppers = [], []
    for a, b, c, w, strict in rows:
        if b:
            (lowers if b > 0 else uppers).append(((c + w * t - a * x) / b, strict))
    return Vec(x, solve_interval(lowers, uppers)[1])


def feasible_exact(constraints):
    rows = [(lc.nx, lc.ny, lc.c, 0, lc.strict) for lc in constraints]
    x_lowers, x_uppers = [], []
    for a, c, _, strict in eliminate_y(rows):
        if a > 0:
            x_lowers.append((Fraction(c, a), strict))
        elif a < 0:
            x_uppers.append((Fraction(c, a), strict))
        elif c > 0 or (strict and c == 0):
            return False, None
    ok, x = solve_interval(x_lowers, x_uppers)
    return (True, point_at(rows, x, 0)) if ok else (False, None)


def min_margin(constraints, p):
    return min(lc.margin(p) / (abs(lc.nx) + abs(lc.ny)) for lc in constraints)


def witness_quality(constraints, p, anchor, scale):
    dist = norm1(Vec(p.x - anchor.x, p.y - anchor.y))
    return min_margin(constraints, p) / (scale + dist)


def snap_witness(w, constraints, floor):
    for k in range(SNAP_BITS + 1):
        den = 1 << k
        snapped = Vec(Fraction(round(w.x * den), den), Fraction(round(w.y * den), den))
        if all(lc.holds(snapped) for lc in constraints) and (floor is None or min_margin(constraints, snapped) >= floor):
            return snapped
    return w


def box_around(anchor: Vec, size: Fraction) -> list[LinearConstraint]:
    units = (vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1))
    return [halfplane_constraint(anchor - n.scaled(size), n, True) for n in units]


def deepest_point(constraints, box):
    """The point of the box whose smallest normalized margin is largest, or None."""
    rows = [(lc.nx, lc.ny, lc.c, abs(lc.nx) + abs(lc.ny), False) for lc in constraints]
    rows += [(lc.nx, lc.ny, lc.c, 0, False) for lc in box]
    lowers, uppers, caps = [], [], []
    for a, c, w, _ in eliminate_y(rows):
        if a > 0:
            lowers.append((Fraction(w, a), Fraction(c, a)))
        elif a < 0:
            uppers.append((Fraction(w, a), Fraction(c, a)))
        elif w > 0:
            caps.append(Fraction(-c, w))
        elif c > 0:
            return None
    top, bottom = max(lowers), min(uppers)
    if top[0] > bottom[0]:
        caps.append((bottom[1] - top[1]) / (top[0] - bottom[0]))
    t = min(caps)
    while t > 0:
        lo, neg_lo_slope = max((s * t + b, -s) for s, b in lowers)
        hi, neg_hi_slope = min((s * t + b, -s) for s, b in uppers)
        if lo <= hi:
            return point_at(rows, (lo + hi) / 2, t)
        if neg_lo_slope == neg_hi_slope:
            return None
        t -= (lo - hi) / (neg_hi_slope - neg_lo_slope)
    return None


def improve_witness(constraints, w, anchor, scale):
    if not constraints:
        return w
    best, best_q = w, witness_quality(constraints, w, anchor, scale)
    if best_q >= QUALITY_GOOD:
        return w
    for factor in IMPROVE_BOXES:
        point = deepest_point(constraints, box_around(anchor, factor * scale))
        if point is None:
            continue
        q = witness_quality(constraints, point, anchor, scale)
        if q > best_q:
            best, best_q = point, q
    if best == w:
        return w
    return snap_witness(best, constraints, min_margin(constraints, best) / 2)
