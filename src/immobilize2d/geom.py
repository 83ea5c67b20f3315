"""Exact planar primitives: rational vectors, half-planes, rational rotations.

All coordinates are ints or ``fractions.Fraction``s: a ``Vec`` reads any
other coordinate through ``read_scalar`` when it is made, so a float is
decided at its exact binary value by every predicate downstream.
``read_scalar`` is the one reader of a number from outside, for library
arguments, JSON documents and command-line flags alike.

A half-plane is one ``LinearConstraint`` row, ``n . p >= c`` (strict when
open); contact sectors are built from these rows and the exact solver
eliminates them, so both read the same side convention.  A row is its four
terms as coprime ints, the one primitive positive multiple of the row.  One
builder, ``row_through``, makes every row through a point, from an int
normal and the point over one denominator; ``_coprime_row`` reads a row's
terms from outside, ints or ``Fraction``s, through ``over_one_denominator``,
the one place a common denominator is built.  Both end in ``_over_gcd``.
Every rational rotation takes its unit from ``half_angle_unit`` (turned CW or
CCW by ``rotation_unit``) and moves points as one integer map
(``rotation_map``); the escape probes in ``oracle`` are the only callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .errors import OutOfRangeError

Scalar = Fraction

ScalarLike = Union[Fraction, int, float, str]

# CPython's default int-string digit limit, which the "a/b" form meets through int(),
# and the largest decimal exponent a scalar string may carry.
MAX_DIGITS = 4300


def read_scalar(value: ScalarLike, what: str = "scalar") -> Fraction:
    """The one reader of a number from outside: an int, a float, a ``Fraction``
    or a string in ``Fraction``'s grammar ("3/4", " -7/2 ", "2.5E-3", what
    ``io.scalar_to_json`` writes), as its exact ``Fraction``; a ``Fraction`` is
    returned as it is.  A value that is no finite number (nan, inf, a
    malformed string, a zero denominator, None), a boolean, a string whose
    decimal exponent exceeds ``MAX_DIGITS`` in magnitude (``Fraction`` builds
    ``10 ** exponent``, whose cost grows with the exponent) and a string with
    a ``_`` or a space inside it raise ``OutOfRangeError`` naming ``what``.
    ``Fraction`` reads digit separators ``_`` only from CPython 3.11 and spaces
    around the slash only from 3.12, and ``scalar_to_json`` writes neither, so
    refusing both gives every supported Python one grammar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise OutOfRangeError(f"{what} {value!r:.40} is a boolean, not a number")
    try:
        if isinstance(value, str):
            _, e, exponent = value.lower().partition("e")
            if e and abs(int(exponent)) > MAX_DIGITS:
                raise OutOfRangeError(f"{what} {value!r:.40} has a decimal exponent beyond {MAX_DIGITS} in magnitude")
            if "_" in value or len(value.split()) > 1:
                raise OutOfRangeError(f"{what} {value!r:.40} has a '_' or a space inside it")
        return Fraction(value)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError):
        raise OutOfRangeError(f"{what} {value!r:.40} is not a finite number") from None


to_scalar = read_scalar

_EXACT = (int, Fraction)  # coordinate types a Vec keeps as they are


@dataclass(frozen=True)
class Vec:
    """A point or a (non-normalized) direction in the plane.  An int or a
    ``Fraction`` coordinate is kept as it is; any other is read through
    ``read_scalar``, so a float becomes its exact ``Fraction`` and a value that
    is no finite number (nan, inf, a boolean, None, a malformed string) raises
    ``OutOfRangeError`` where the ``Vec`` is made."""

    x: int | Fraction
    y: int | Fraction

    def __post_init__(self):
        # ints stay ints: sector rays and random polygon vertices rely on int arithmetic
        if type(self.x) not in _EXACT:
            object.__setattr__(self, "x", read_scalar(self.x, "coordinate"))
        if type(self.y) not in _EXACT:
            object.__setattr__(self, "y", read_scalar(self.y, "coordinate"))

    def __add__(self, other: "Vec") -> "Vec":
        return Vec(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec") -> "Vec":
        return Vec(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec":
        return Vec(-self.x, -self.y)

    def scaled(self, k: ScalarLike) -> "Vec":
        k = read_scalar(k, "scale factor")
        return Vec(self.x * k, self.y * k)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


vec = Vec


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
    ``row_through`` builds it, the only rows the exact solver reads.
    ``feasibility.linear_feasible`` takes rows from outside with any terms
    ``read_scalar`` reads, and normalises each with ``_coprime_row`` first;
    ``margin`` (and so ``holds``) reads a term that is not an int or a
    ``Fraction`` the same way, so a float row is decided at its exact value."""

    nx: int | Fraction
    ny: int | Fraction
    c: int | Fraction
    strict: bool = False

    def margin(self, p: Vec) -> Fraction:
        nx, ny, c = (v if type(v) in _EXACT else read_scalar(v, "row term") for v in (self.nx, self.ny, self.c))
        return nx * p.x + ny * p.y - c

    def holds(self, p: Vec) -> bool:
        m = self.margin(p)
        return m > 0 if self.strict else m >= 0


def _over_gcd(a: int, b: int, k: int, strict: bool) -> LinearConstraint:
    """The int row ``a x + b y >= k`` over its gcd: its one coprime positive multiple."""
    g = gcd(a, b, k) or 1
    return LinearConstraint(a // g, b // g, k // g, strict)


def _coprime_row(nx, ny, c, strict: bool) -> LinearConstraint:
    """``nx x + ny y >= c`` (ints or rationals) times the positive factor making it coprime ints."""
    (a, b, k), _ = over_one_denominator(nx, ny, c)
    return _over_gcd(a, b, k, strict)


def row_through(nx: int, ny: int, x: int, y: int, w: int, strict: bool) -> LinearConstraint:
    """``(nx, ny) . p >= (nx, ny) . (x / w, y / w)``, w > 0, as the row ``nx w x +
    ny w y >= nx x + ny y`` over its gcd.  A zero normal raises ``ValueError``."""
    if not (nx or ny):
        raise ValueError("half-plane needs a nonzero normal")
    return _over_gcd(nx * w, ny * w, nx * x + ny * y, strict)


def halfplane_constraint(base: Vec, normal: Vec, closed: bool) -> LinearConstraint:
    """``normal . p >= normal . base``, strict unless closed: ``row_through`` on
    the normal and the base, each over its own denominator."""
    (a, b), _ = over_one_denominator(normal.x, normal.y)
    (x, y), w = over_one_denominator(base.x, base.y)
    return row_through(a, b, x, y, w, not closed)


# -- rotations ---------------------------------------------------------------


def half_angle_unit(t: ScalarLike) -> tuple[int, int, int]:
    """Exact unit (cos, sin) = (c / d, s / d) from the half-angle parameter t, as ints.

    The map t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)) covers every rational point of
    the unit circle except (-1, 0); t = tan(angle/2).  With t = p/q that is
    ``(c, s, d) = (q^2 - p^2, 2pq, q^2 + p^2)``.
    """
    t = read_scalar(t, "half-angle")
    p, q = t.numerator, t.denominator
    return q * q - p * p, 2 * p * q, q * q + p * p


def rotation_unit(t: ScalarLike, sense: str) -> tuple[int, int, int]:
    """``half_angle_unit(t)`` turning in the given sense: CW negates the sine."""
    c, s, d = half_angle_unit(t)
    if sense not in ("CW", "CCW"):
        raise ValueError(f"unknown sense {sense!r}")
    return c, -s if sense == "CW" else s, d


def rotation_map(center: tuple[int, int, int], c: int, s: int, d: int) -> tuple[int, int, int, int, int]:
    """The integer map ``(A, B, E, F, G)`` of the rotation by the unit ``(c, s) / d``
    about ``(ox, oy) / ow``: a map sends ``(x, y) / w`` to ``(A x - B y + E w,
    B x + A y + F w) / (G w)``, and this one sends ``(px, py) / pw`` to
    ``(ox pw d + c dx - s dy, oy pw d + s dx + c dy) / (ow pw d)``, ``(dx, dy) =
    (px ow - ox pw, py ow - oy pw)``."""
    ox, oy, ow = center
    return c * ow, s * ow, ox * (d - c) + s * oy, oy * (d - c) - s * ox, ow * d
