"""Exact planar primitives: rational vectors, half-planes, rigid motions.

All coordinates are ``fractions.Fraction``.  Floats are accepted at the
boundary of the API and converted to their exact binary value, so every
predicate downstream is decided by integer arithmetic.

A half-plane is one ``LinearConstraint`` row, ``n . p >= c`` (strict when
open); contact sectors are built from these rows and the exact solver
eliminates them, so both read the same side convention.  A row is its four
terms as coprime ints, the one primitive positive multiple of the row;
``_coprime_row`` is its one normaliser, for int and ``Fraction`` terms alike,
through ``over_one_denominator``, the one place a common denominator is built.
Every rational rotation takes its unit from ``half_angle_unit``, and every
rigid motion moves points as one integer map (``motion_map``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Union

from .errors import OutOfRangeError

Scalar = Fraction

ScalarLike = Union[Fraction, int, float, str]

# CPython's default int-string digit limit, which the "a/b" form meets through int(),
# and the largest decimal exponent a scalar string may carry.
MAX_DIGITS = 4300


def to_scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, float, Fraction, 'num/den' or decimal string to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def screen_scalar(value, what: str) -> None:
    """Refuse what ``Fraction`` would read as a number it is not, or slowly, with
    ``OutOfRangeError`` naming ``what``: a boolean, and a string whose decimal
    exponent exceeds ``MAX_DIGITS`` in magnitude (``Fraction`` builds ``10 **
    exponent``, whose cost grows with the exponent).  A malformed exponent
    raises ``ValueError``, as ``Fraction`` would."""
    if isinstance(value, bool):
        raise OutOfRangeError(f"{what} {value!r} is a boolean, not a number")
    if isinstance(value, str):
        _, e, exponent = value.lower().partition("e")
        if e and abs(int(exponent)) > MAX_DIGITS:
            raise OutOfRangeError(f"{what} {value!r} has a decimal exponent beyond {MAX_DIGITS} in magnitude")


def read_scalar(value: ScalarLike, what: str) -> Fraction:
    """``to_scalar(value)`` for an argument: a value that is no finite number
    (nan, inf, a malformed string, a zero denominator, None) raises
    ``OutOfRangeError`` naming ``what``, as does what ``screen_scalar`` refuses."""
    try:
        screen_scalar(value, what)
        return to_scalar(value)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError):
        raise OutOfRangeError(f"{what} {value!r} is not a finite number") from None


@dataclass(frozen=True)
class Vec:
    """A point or a (non-normalized) direction in the plane."""

    x: Fraction
    y: Fraction

    def __add__(self, other: "Vec") -> "Vec":
        return Vec(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec") -> "Vec":
        return Vec(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec":
        return Vec(-self.x, -self.y)

    def scaled(self, k: ScalarLike) -> "Vec":
        k = to_scalar(k)
        return Vec(self.x * k, self.y * k)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


def vec(x: ScalarLike, y: ScalarLike) -> Vec:
    return Vec(to_scalar(x), to_scalar(y))


def over_one_denominator(*values) -> tuple[list[int], int]:
    """The numerators of rationals ``values`` over their least common denominator, and it."""
    # plain loops and one as_integer_ratio per value: escape probes call this per moved point
    ratios, den = [], 1
    for v in values:
        ratio = v.as_integer_ratio()
        ratios.append(ratio)
        den = lcm(den, ratio[1])
    nums = []
    for n, d in ratios:
        nums.append(n * (den // d))
    return nums, den


def cross(u: Vec, v: Vec) -> Fraction:
    return u.x * v.y - u.y * v.x


def dot(u: Vec, v: Vec) -> Fraction:
    return u.x * v.x + u.y * v.y


def rot90_ccw(v: Vec) -> Vec:
    return Vec(-v.y, v.x)


def same_ray(u: Vec, v: Vec) -> bool:
    """True when u and v point the same way (positive multiples of each other)."""
    return cross(u, v) == 0 and dot(u, v) > 0


def norm1(v: Vec) -> Fraction:
    """1-norm, used as a rational stand-in for length when scaling tolerances."""
    return abs(v.x) + abs(v.y)


@dataclass(frozen=True)
class LinearConstraint:
    """``nx * x + ny * y >= c`` (``> c`` when strict): coprime ints as
    ``halfplane_constraint`` builds it; Fraction rows solve just as exactly."""

    nx: int | Fraction
    ny: int | Fraction
    c: int | Fraction
    strict: bool = False

    def margin(self, p: Vec) -> Fraction:
        return self.nx * p.x + self.ny * p.y - self.c

    def holds(self, p: Vec) -> bool:
        m = self.margin(p)
        return m > 0 if self.strict else m >= 0


def _coprime_row(nx, ny, c, strict: bool) -> LinearConstraint:
    """``nx x + ny y >= c`` (ints or rationals) times the positive factor making it coprime ints."""
    (a, b, k), _ = over_one_denominator(nx, ny, c)
    g = gcd(a, b, k) or 1
    return LinearConstraint(a // g, b // g, k // g, strict)


def halfplane_constraint(base: Vec, normal: Vec, closed: bool) -> LinearConstraint:
    """``normal . p >= normal . base`` as coprime ints, strict unless closed: the
    half-plane whose rim passes through ``base`` and which ``normal`` points into:
    with the normal ``(a, b) / dn`` and the base ``(X, Y) / db``, the row
    ``a db x + b db y >= a X + b Y``, normalised."""
    if normal.is_zero():
        raise ValueError("half-plane needs a nonzero normal")
    (a, b), _ = over_one_denominator(normal.x, normal.y)
    (x, y), db = over_one_denominator(base.x, base.y)
    return _coprime_row(a * db, b * db, a * x + b * y, not closed)


# -- rigid motions ----------------------------------------------------------


@dataclass(frozen=True)
class Rotation:
    """Rotation about ``center`` by the angle with rational cosine c and sine s
    (c*c + s*s == 1); any other unit raises ValueError."""

    center: Vec
    c: Fraction
    s: Fraction

    def __post_init__(self):
        # reduced rationals on the unit circle share their denominator
        c, s = self.c, self.s
        rational = isinstance(c, Rational) and isinstance(s, Rational)
        if not rational or s.denominator != c.denominator or c.numerator**2 + s.numerator**2 != c.denominator**2:
            raise ValueError("rotation unit must be rational with c^2 + s^2 = 1")


@dataclass(frozen=True)
class Translation:
    v: Vec


@dataclass(frozen=True)
class Identity:
    pass


RigidMotion = Union[Rotation, Translation, Identity]


def half_angle_unit(t: ScalarLike) -> tuple[int, int, int]:
    """Exact unit (cos, sin) = (c / d, s / d) from the half-angle parameter t, as ints.

    The map t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)) covers every rational point of
    the unit circle except (-1, 0); t = tan(angle/2).  With t = p/q that is
    ``(c, s, d) = (q^2 - p^2, 2pq, q^2 + p^2)``.
    """
    t = to_scalar(t)
    p, q = t.numerator, t.denominator
    return q * q - p * p, 2 * p * q, q * q + p * p


def rational_rotation(t: ScalarLike) -> tuple[Fraction, Fraction]:
    c, s, d = half_angle_unit(t)
    return Fraction(c, d), Fraction(s, d)


def rotation_unit(t: ScalarLike, sense: str) -> tuple[int, int, int]:
    """``half_angle_unit(t)`` turning in the given sense: CW negates the sine."""
    c, s, d = half_angle_unit(t)
    if sense not in ("CW", "CCW"):
        raise ValueError(f"unknown sense {sense!r}")
    return c, -s if sense == "CW" else s, d


def rotation_about(center: Vec, t: ScalarLike, sense: str = "CCW") -> Rotation:
    """Rotation about ``center`` with half-angle parameter t >= 0 in the given sense."""
    c, s, d = rotation_unit(t, sense)
    return Rotation(center, Fraction(c, d), Fraction(s, d))


def rotation_map(center: tuple[int, int, int], c: int, s: int, d: int) -> tuple[int, int, int, int, int]:
    """The map of the rotation by the unit ``(c, s) / d`` about ``(ox, oy) / ow``; it
    sends ``(px, py) / pw`` to ``(ox pw d + c dx - s dy, oy pw d + s dx + c dy) /
    (ow pw d)``, ``(dx, dy) = (px ow - ox pw, py ow - oy pw)``."""
    ox, oy, ow = center
    return c * ow, s * ow, ox * (d - c) + s * oy, oy * (d - c) - s * ox, ow * d


def motion_map(m: RigidMotion) -> tuple[int, int, int, int, int]:
    """The integer map ``(A, B, E, F, G)`` of a motion: it sends ``(x, y) / w`` to
    ``(A x - B y + E w, B x + A y + F w) / (G w)``.  Anything that is no
    ``Rotation``, ``Translation`` or ``Identity`` raises ``OutOfRangeError``."""
    if isinstance(m, Identity):
        return 1, 0, 0, 0, 1
    if isinstance(m, Translation):
        (vx, vy), vw = over_one_denominator(m.v.x, m.v.y)
        return vw, 0, vx, vy, vw
    if isinstance(m, Rotation):
        (ox, oy), ow = over_one_denominator(m.center.x, m.center.y)
        return rotation_map((ox, oy, ow), m.c.numerator, m.s.numerator, m.c.denominator)
    raise OutOfRangeError(f"{m!r} is not a rigid motion")


def apply_motion(m: RigidMotion, p: Vec) -> Vec:
    a, b, e, f, g = motion_map(m)
    (x, y), w = over_one_denominator(p.x, p.y)
    return Vec(Fraction(a * x - b * y + e * w, g * w), Fraction(b * x + a * y + f * w, g * w))


def invert_motion(m: RigidMotion) -> RigidMotion:
    if isinstance(m, Identity):
        return m
    if isinstance(m, Translation):
        return Translation(-m.v)
    return Rotation(m.center, m.c, -m.s)
