"""Property test: the shared y-elimination against the brute-force reference.

``random_system`` never draws a zero row ``(0, 0, c)`` or a y-lower/y-upper
pair on one line, whose pairing leaves ``0 x >= 0``: those reach the
elimination's ``a == 0`` branches only by accident.  Here they are drawn on
purpose, strict and closed, next to general rows and pairs one unit apart.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from bruteforce import bruteforce_feasible  # noqa: E402
from immobilize2d.feasibility import LinearConstraint, _feasible_exact, linear_feasible  # noqa: E402

small = st.integers(-4, 4)


@st.composite
def general_rows(draw):
    nx, ny = draw(st.tuples(small, small).filter(lambda n: n != (0, 0)))
    return [(nx, ny, draw(small), draw(st.booleans()))]


@st.composite
def zero_rows(draw):
    return [(0, 0, draw(st.integers(-2, 2)), draw(st.booleans()))]


@st.composite
def parallel_pairs(draw):
    """A y-lower row and a y-upper row on parallel lines; ``gap == 0`` makes them touch."""
    a, b, c = draw(small), draw(st.integers(1, 4)), draw(small)
    k, m, gap = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(-1, 1))
    lower = (k * a, k * b, k * c, draw(st.booleans()))
    upper = (-m * a, -m * b, -m * (c + gap), draw(st.booleans()))
    return [lower, upper]


systems = st.lists(st.one_of(general_rows(), zero_rows(), parallel_pairs()), max_size=4).map(
    lambda groups: [row for group in groups for row in group]
)


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(systems)
def test_elimination_races_the_bruteforce(rows):
    cons = [LinearConstraint(Fraction(nx), Fraction(ny), Fraction(c), strict) for nx, ny, c, strict in rows]
    res = linear_feasible(cons)
    assert res.feasible == bruteforce_feasible(rows)
    ok, exact = _feasible_exact(cons)
    assert ok == res.feasible
    for witness in (res.witness, exact) if ok else ():
        assert all(lc.holds(witness) for lc in cons), witness
