"""The README's library example runs, and gives what its comments say.

The Python block under "## Library entry points" is read out of
``README.md`` and executed as it stands, so a renamed or removed entry point
fails here instead of leaving the README stale.
"""

import re
from fractions import Fraction
from pathlib import Path

from immobilize2d.classify import NOT_WEAKLY_FIX, POSITIVE
from immobilize2d.geom import Vec

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_the_library_example_gives_what_its_comments_say():
    scope = {}
    exec(compile(library_example(), "README.md", "exec"), scope)
    verdict, almost = scope["verdict"], scope["almost"]
    assert verdict.status == NOT_WEAKLY_FIX
    assert verdict.witness.point == Vec(Fraction(0), Fraction(0))
    assert almost.status == POSITIVE
    square, corners = scope["square"], scope["corners"]
    assert (verdict, almost) == (scope["classify_fix"](square, corners), scope["classify_almost_fix"](square, corners))
    assert scope["report"] is None
