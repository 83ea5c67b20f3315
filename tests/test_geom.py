"""Exact-arithmetic geometry kernel: vectors, half-planes, rational rotations."""

import random
import time
from fractions import Fraction

import pytest

from containment_reference import reference_rotation
from immobilize2d.errors import OutOfRangeError
from immobilize2d.geom import (
    LinearConstraint,
    Vec,
    cross,
    dot,
    half_angle_unit,
    halfplane_constraint,
    norm1,
    over_one_denominator,
    read_scalar,
    rot90_ccw,
    rotation_map,
    rotation_unit,
    same_ray,
    to_scalar,
    vec,
)


def test_read_scalar_refuses_booleans_and_exponents_past_the_digit_limit():
    # A bool read as 0 or 1, and Fraction builds 10 ** exponent before any
    # check, in time that grows with the exponent: both are refused first.
    for v in (True, False):
        with pytest.raises(OutOfRangeError, match="boolean"):
            read_scalar(v, "param")
    started = time.perf_counter()
    for v in ("1e1000000", "1e-1_000_000", "1E4301", "-2.5e-4301", " 3e+4_301 "):
        with pytest.raises(OutOfRangeError, match="exponent"):
            read_scalar(v, "param")
    assert time.perf_counter() - started < 1
    assert read_scalar("1e-4300", "param") == Fraction(1, 10**4300)
    assert read_scalar("2.5E-3", "param") == Fraction(1, 400)
    assert read_scalar(1, "param") == 1 and read_scalar(" 1/3 ", "param") == Fraction(1, 3)
    for v in ("1e", "1e5e5", "e5"):
        with pytest.raises(OutOfRangeError, match="not a finite number"):
            read_scalar(v, "param")


def test_vec_reads_its_coordinates_through_read_scalar():
    started = time.perf_counter()
    with pytest.raises(OutOfRangeError, match="exponent"):
        vec("1e-10000000", 0)
    assert time.perf_counter() - started < 1
    for x in (True, False, "nan", float("nan"), float("inf"), None, "1/0", "x", "1_0"):
        with pytest.raises(OutOfRangeError):
            vec(x, 0)
        with pytest.raises(OutOfRangeError):
            Vec(x, 0)
        with pytest.raises(OutOfRangeError):
            Vec(Fraction(0), x)
    assert vec("3/4", 0.5) == Vec(Fraction(3, 4), Fraction(1, 2))
    assert vec is Vec and to_scalar is read_scalar
    # a float is kept at its exact value, an int as the int, a Fraction as it is
    assert Vec(0.1, 0).x == Fraction(0.1) and type(Vec(0.1, 0).x) is Fraction
    assert type(Vec(1, 0).x) is int and Vec(1, 0).x == 1
    half = Fraction(1, 2)
    assert Vec(half, -3).x is half and type(Vec(half, -3).y) is int


def rand_fraction(rng, span=6, den=64):
    return Fraction(rng.randint(-span * den, span * den), den)


def rand_vec(rng):
    return Vec(rand_fraction(rng), rand_fraction(rng))


def test_vec_arithmetic_is_exact():
    a = vec(Fraction(1, 3), Fraction(-2, 7))
    b = vec(Fraction(1, 6), Fraction(2, 7))
    assert a + b == vec(Fraction(1, 2), 0)
    assert a - a == vec(0, 0)
    assert (-a) + a == vec(0, 0)
    assert a.scaled(Fraction(3)) == vec(1, Fraction(-6, 7))
    assert vec(0, 0).is_zero()
    assert not a.is_zero()


def test_quarter_turn_identities():
    rng = random.Random(101)
    for _ in range(200):
        u = rand_vec(rng)
        assert rot90_ccw(rot90_ccw(u)) == -u
        # A quarter turn is orthogonal and keeps the squared length.
        assert dot(u, rot90_ccw(u)) == 0
        assert cross(u, rot90_ccw(u)) == dot(u, u)


def test_cross_and_dot_bilinearity():
    rng = random.Random(88)
    for _ in range(100):
        u, v, w = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        s = rand_fraction(rng)
        assert cross(u, v) == -cross(v, u)
        assert cross(u + w, v) == cross(u, v) + cross(w, v)
        assert dot(u.scaled(s), v) == s * dot(u, v)


def test_same_ray_cases():
    u = vec(2, 3)
    assert same_ray(u, u.scaled(Fraction(5, 7)))
    assert not same_ray(u, -u)
    assert not same_ray(u, rot90_ccw(u))
    assert not same_ray(u, vec(2, 4))


def test_norm1():
    assert norm1(vec(Fraction(-3, 2), Fraction(1, 2))) == 2
    assert norm1(vec(0, 0)) == 0


def test_halfplane_constraint_rejects_zero_normal():
    with pytest.raises(ValueError):
        halfplane_constraint(vec(0, 0), vec(0, 0), closed=True)
    row = halfplane_constraint(vec(1, 2), vec(-3, 1), closed=False)
    assert (row.nx, row.ny, row.c, row.strict) == (-3, 1, -1, True)
    assert not row.holds(vec(1, 2)) and row.holds(vec(0, 2))


def test_a_row_with_float_terms_decides_at_their_exact_values():
    # 1/10 lies below 0.1's exact value, so x >= 0.1 fails there; in float
    # arithmetic the margin would read 0.0 and the row hold.
    row = LinearConstraint(1.0, 0, 0.1)
    assert row.margin(Vec(Fraction(1, 10), 0)) == Fraction(1, 10) - Fraction(0.1) < 0
    assert not row.holds(Vec(Fraction(1, 10), 0)) and row.holds(Vec(0.1, 0))
    assert not LinearConstraint(1.0, 0, 0.1, strict=True).holds(Vec(0.1, 0))
    for term in (float("nan"), float("inf"), True, None):
        with pytest.raises(OutOfRangeError):
            LinearConstraint(term, 0, 0).margin(Vec(1, 0))


def test_rational_rotation_lies_on_unit_circle():
    rng = random.Random(7)
    for _ in range(300):
        t = rand_fraction(rng, span=40, den=97)
        c, s, d = half_angle_unit(t)
        assert c * c + s * s == d * d
    assert half_angle_unit(Fraction(0)) == (1, 0, 1)
    assert half_angle_unit(Fraction(1)) == (0, 2, 2)


def test_half_angle_unit_over_its_denominator_is_the_rational_rotation():
    rng = random.Random(17)
    for _ in range(300):
        t = rand_fraction(rng, span=40, den=97)
        c, s, d = half_angle_unit(t)
        assert all(type(v) is int for v in (c, s, d)) and d > 0
        assert (Fraction(c, d), Fraction(s, d)) == reference_rotation(t) == ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


def rotated(center, t, sense, p):
    """``p`` rotated about ``center`` by the half-angle t: the integer map of
    ``rotation_map`` applied to ``p`` over one denominator, as the escape probes apply it."""
    (ox, oy), ow = over_one_denominator(center.x, center.y)
    a, b, e, f, g = rotation_map((ox, oy, ow), *rotation_unit(t, sense))
    (x, y), w = over_one_denominator(p.x, p.y)
    return Vec(Fraction(a * x - b * y + e * w, g * w), Fraction(b * x + a * y + f * w, g * w))


def test_rotation_map_fixes_its_center():
    rng = random.Random(31)
    for _ in range(50):
        center = rand_vec(rng)
        t = rand_fraction(rng, span=2, den=9)
        for sense in ("CW", "CCW"):
            assert rotated(center, t, sense, center) == center


def test_rotation_senses_are_inverse():
    center = vec(1, 2)
    t = Fraction(1, 3)
    rng = random.Random(5)
    for _ in range(20):
        p = rand_vec(rng)
        assert rotated(center, t, "CW", rotated(center, t, "CCW", p)) == p


def test_ccw_sense_turns_counterclockwise():
    assert rotated(vec(0, 0), Fraction(1), "CCW", vec(1, 0)) == vec(0, 1)
    assert rotated(vec(0, 0), Fraction(1), "CW", vec(1, 0)) == vec(0, -1)


def test_to_scalar_accepts_common_forms():
    assert to_scalar("3/4") == Fraction(3, 4)
    assert to_scalar(2) == Fraction(2)
    assert to_scalar(Fraction(1, 3)) == Fraction(1, 3)
    assert to_scalar(0.25) == Fraction(1, 4)
