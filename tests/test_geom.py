"""Exact-arithmetic geometry kernel: vectors, half-planes, rational rigid motions."""

import random
import time
from fractions import Fraction

import pytest

from immobilize2d.errors import OutOfRangeError
from immobilize2d.geom import (
    Identity,
    Rotation,
    Translation,
    Vec,
    apply_motion,
    cross,
    dot,
    half_angle_unit,
    halfplane_constraint,
    invert_motion,
    norm1,
    rational_rotation,
    read_scalar,
    rot90_ccw,
    rotation_about,
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


def test_rational_rotation_lies_on_unit_circle():
    rng = random.Random(7)
    for _ in range(300):
        t = rand_fraction(rng, span=40, den=97)
        c, s = rational_rotation(t)
        assert c * c + s * s == 1
    assert rational_rotation(Fraction(0)) == (Fraction(1), Fraction(0))
    assert rational_rotation(Fraction(1)) == (Fraction(0), Fraction(1))


def test_half_angle_unit_over_its_denominator_is_the_rational_rotation():
    rng = random.Random(17)
    for _ in range(300):
        t = rand_fraction(rng, span=40, den=97)
        c, s, d = half_angle_unit(t)
        assert all(type(v) is int for v in (c, s, d)) and d > 0
        assert (Fraction(c, d), Fraction(s, d)) == rational_rotation(t) == ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


def test_rotation_constructor_enforces_unit_norm():
    Rotation(center=vec(0, 0), c=Fraction(3, 5), s=Fraction(4, 5))
    with pytest.raises(ValueError):
        Rotation(center=vec(0, 0), c=Fraction(1, 2), s=Fraction(1, 2))
    for c, s in ((0.6, 0.8), (1.0, 0.0), (Fraction(3, 5), 0.8)):  # not rational: a ValueError, not AttributeError
        with pytest.raises(ValueError):
            Rotation(center=vec(0, 0), c=c, s=s)


def test_rotation_about_fixes_its_center():
    rng = random.Random(31)
    for _ in range(50):
        center = rand_vec(rng)
        t = rand_fraction(rng, span=2, den=9)
        for sense in ("CW", "CCW"):
            m = rotation_about(center, t, sense)
            assert apply_motion(m, center) == center


def test_rotation_senses_are_inverse():
    center = vec(1, 2)
    t = Fraction(1, 3)
    ccw = rotation_about(center, t, "CCW")
    cw = rotation_about(center, t, "CW")
    rng = random.Random(5)
    for _ in range(20):
        p = rand_vec(rng)
        assert apply_motion(cw, apply_motion(ccw, p)) == p


def test_ccw_sense_turns_counterclockwise():
    m = rotation_about(vec(0, 0), Fraction(1), "CCW")
    assert apply_motion(m, vec(1, 0)) == vec(0, 1)
    m = rotation_about(vec(0, 0), Fraction(1), "CW")
    assert apply_motion(m, vec(1, 0)) == vec(0, -1)


def test_compose_and_invert_round_trip():
    rng = random.Random(19)
    motions = [
        Identity(),
        Translation(vec(Fraction(1, 2), -3)),
        rotation_about(vec(1, 1), Fraction(2, 5), "CCW"),
        Rotation(center=vec(Fraction(-1, 2), Fraction(-7, 2)), c=Fraction(24, 25), s=Fraction(-7, 25)),
    ]
    probes = [rand_vec(rng) for _ in range(10)]
    for m in motions:
        inv = invert_motion(m)
        for p in probes:
            assert apply_motion(inv, apply_motion(m, p)) == p
            assert apply_motion(m, apply_motion(inv, p)) == p


def test_to_scalar_accepts_common_forms():
    assert to_scalar("3/4") == Fraction(3, 4)
    assert to_scalar(2) == Fraction(2)
    assert to_scalar(Fraction(1, 3)) == Fraction(1, 3)
    assert to_scalar(0.25) == Fraction(1, 4)
