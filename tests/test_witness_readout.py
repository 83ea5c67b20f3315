"""The witness read-out in integers, raced against its ``Fraction`` reference.

``feasibility`` reads y off the rows, solves for x, and scores and snaps
witnesses on integer pairs compared by cross-multiplication.
``tests/recentre_reference.py`` keeps the ``Fraction`` versions:
``solve_interval`` with ``merge_bound``, and ``round`` of a ``Fraction``.
The draws aim at what the integer code must get right bit for bit: bounds
tied with mixed strict flags, one-sided and unbounded y intervals, exact
halves on the dyadic snapping grid, and the fallback past 60 bits.  Every
system is raced as integer rows and again as ``Fraction``-valued rows.  The
integer helpers read and return points as ints over one denominator; the
adapters below put ``Fraction`` inputs over one and rebuild ``Vec``s.
"""

import math
import random
from fractions import Fraction

import recentre_reference as ref
from bruteforce import random_system
from immobilize2d.feasibility import _feasible_exact, _least_margin, _point_at, _snap_witness, _witness_quality
from immobilize2d.geom import LinearConstraint, Vec, over_one_denominator


def rational(rng, span=12, den=8):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def as_fractions(cons):
    """The same rows with ``Fraction`` entries, as callers may pass them."""
    return [LinearConstraint(Fraction(lc.nx), Fraction(lc.ny), Fraction(lc.c), lc.strict) for lc in cons]


def point_at(rows, x, t):
    """``_point_at`` at ``Fraction`` x and t, as a ``Vec`` whose y is None when empty."""
    (xn, tn), den = over_one_denominator(x, t)
    p = _point_at(rows, xn, tn, den)
    return Vec(x, None) if p is None else Vec(Fraction(p[0], p[2]), Fraction(p[1], p[2]))


def min_margin(cons, p):
    """The least normalized margin ``_least_margin`` reads at ``p`` over one denominator."""
    (x, y), den = over_one_denominator(p.x, p.y)
    m, n = _least_margin(cons, x, y, den)
    return Fraction(m, n * den)


def witness_quality(cons, p, anchor, scale):
    """``_witness_quality`` at a ``Vec`` point, anchor and scale, as a ``Fraction``."""
    (x, y), w = over_one_denominator(p.x, p.y)
    (ax, ay, s), d = over_one_denominator(anchor.x, anchor.y, scale)
    return Fraction(*_witness_quality(cons, (x, y, w), (ax, ay, s, d)))


def row_through(rng, x, t, v, sign, strict):
    """An integer row ``(a, b, c, w, strict)`` whose y bound at ``(x, t)`` is
    ``v``: a lower bound for ``sign`` 1, an upper one for -1."""
    a, b, w = rng.randint(-4, 4), sign * rng.randint(1, 4), rng.randint(0, 3)
    c = v * b + a * x - w * t
    k = c.denominator
    return a * k, b * k, c.numerator, w * k, strict


def test_y_read_out_races_the_reference():
    rng = random.Random(1401)
    seen = {"two-sided": 0, "lower only": 0, "upper only": 0, "unbounded": 0, "empty": 0}
    for _ in range(3000):
        x = rational(rng)
        t = Fraction(0) if rng.random() < 0.3 else Fraction(rng.randint(0, 9), rng.randint(1, 6))
        shape = rng.choice(("two-sided", "lower only", "upper only", "unbounded"))
        signs = {"two-sided": (1, -1), "lower only": (1,), "upper only": (-1,), "unbounded": ()}[shape]
        rows = [(a, b, c, rng.randint(0, 3), s) for a, b, c, s in random_system(rng, max_rows=3)]
        rows = [row for row in rows if row[1] == 0 or (1 if row[1] > 0 else -1) in signs]
        v = rational(rng)  # bounds tied at v, strict or not
        for sign in signs:
            rows += [row_through(rng, x, t, v, sign, rng.random() < 0.4) for _ in range(rng.randint(0, 3))]
        rng.shuffle(rows)
        p = point_at(rows, x, t)
        assert p == ref.point_at(rows, x, t), (rows, x, t)
        fraction_rows = [(Fraction(a), Fraction(b), Fraction(c), Fraction(w), s) for a, b, c, w, s in rows]
        assert point_at(fraction_rows, x, t) == p, (rows, x, t)
        seen["empty" if p.y is None else shape] += 1
    assert min(seen.values()) > 20, seen


def test_exact_solve_races_the_reference():
    rng = random.Random(1402)
    seen = {"feasible": 0, "infeasible": 0, "pinned, mixed strict": 0}
    for _ in range(3000):
        rows = random_system(rng, max_rows=3)
        c0, signs, stricts = rng.randint(-3, 3), set(), set()
        for _ in range(rng.randint(0, 4)):  # x bounds tied at c0, strict or not
            k, sign, strict = rng.randint(1, 3), rng.choice((1, -1)), rng.random() < 0.4
            rows.append((sign * k, 0, sign * k * c0, strict))
            signs.add(sign)
            stricts.add(strict)
        rng.shuffle(rows)
        cons = [LinearConstraint(*row) for row in rows]
        got = _feasible_exact(cons)
        assert got == ref.feasible_exact(cons) == _feasible_exact(as_fractions(cons)), rows
        seen["feasible" if got[0] else "infeasible"] += 1
        seen["pinned, mixed strict"] += len(signs) == 2 and len(stricts) == 2
    assert min(seen.values()) > 100, seen


def rows_holding_at(rng, p):
    """Integer rows that hold at ``p``, each with a margin below 3 there."""
    cons = []
    for _ in range(rng.randint(1, 5)):
        nx, ny = rng.choice([(a, b) for a in range(-4, 5) for b in range(-4, 5) if (a, b) != (0, 0)])
        value = nx * p.x + ny * p.y
        c = math.floor(value) - rng.randint(0, 2)
        cons.append(LinearConstraint(nx, ny, c, c < value and rng.random() < 0.5))
    return cons


def snap_half_up(w, constraints, floor):
    """``ref.snap_witness`` with halves rounded up: the rounding the race must tell apart."""
    for k in range(ref.SNAP_BITS + 1):
        den = 1 << k
        snapped = Vec(Fraction(math.floor(w.x * den + Fraction(1, 2)), den), Fraction(math.floor(w.y * den + Fraction(1, 2)), den))
        if all(lc.holds(snapped) for lc in constraints) and (floor is None or ref.min_margin(constraints, snapped) >= floor):
            return snapped
    return w


def test_snapping_races_the_reference():
    rng = random.Random(1403)
    seen = {"no floor": 0, "half margin": 0, "fixed floor": 0, "fell back": 0, "halves decide": 0}
    for _ in range(1200):
        if rng.random() < 0.7:  # dyadic: w.x 2^k or w.y 2^k is an exact half at some k
            w = Vec(*(Fraction(rng.randint(-40, 40) * 2 + 1, 1 << rng.randint(1, 5)) for _ in range(2)))
        else:
            w = Vec(rational(rng, den=9), rational(rng, den=9))
        cons = rows_holding_at(rng, w)
        kind = rng.choice(("no floor", "half margin", "fixed floor"))
        floor = {"no floor": None, "half margin": ref.min_margin(cons, w) / 2, "fixed floor": Fraction(1, rng.randint(1, 40))}[kind]
        got = _snap_witness(w, cons, floor)
        assert got == ref.snap_witness(w, cons, floor) == _snap_witness(w, as_fractions(cons), floor), (w, cons, floor)
        seen[kind] += 1
        seen["fell back"] += got is w
        seen["halves decide"] += got != snap_half_up(w, cons, floor)
    assert min(seen.values()) > 20, seen


def test_snapping_falls_back_past_60_bits():
    for x, snaps in ((Fraction(1, 1 << 60), True), (Fraction(1, 1 << 61), False), (Fraction(1, 3), False)):
        # x pinned by two rows, y free above 0
        cons = [LinearConstraint(x.denominator, 0, x.numerator), LinearConstraint(-x.denominator, 0, -x.numerator), LinearConstraint(0, 1, 0)]
        w = Vec(x, Fraction(1, 3))
        for floor in (None, Fraction(0)):
            got = _snap_witness(w, cons, floor)
            assert got == ref.snap_witness(w, cons, floor)
            assert (got.x, got.y != w.y) == (x, True) if snaps else got is w


def test_witness_quality_races_the_reference():
    rng = random.Random(1404)
    checked = 0
    for _ in range(2000):
        cons = [LinearConstraint(*row) for row in random_system(rng)]
        if not cons:
            continue
        p, anchor = Vec(rational(rng, den=30), rational(rng, den=30)), Vec(rational(rng, den=5), rational(rng, den=5))
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        q = witness_quality(cons, p, anchor, scale)
        assert q == ref.witness_quality(cons, p, anchor, scale) == witness_quality(as_fractions(cons), p, anchor, scale)
        assert min_margin(cons, p) == ref.min_margin(cons, p) == min_margin(as_fractions(cons), p)
        checked += 1
    assert checked > 1500
