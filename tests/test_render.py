"""SVG rendering: coordinates past float range are a coded library error."""

import pytest

from immobilize2d.body import boundary_point, polygon
from immobilize2d.errors import ImmobilizeError, OutOfRangeError
from immobilize2d.render import render_svg


def test_render_past_float_range_raises_out_of_range():
    r = 10**400
    triangle = polygon([(0, 0), (r, 0), (0, r)])
    pts = tuple(boundary_point(triangle, i, 0) for i in range(3))
    with pytest.raises(OutOfRangeError) as exc:
        render_svg(triangle, pts)
    assert isinstance(exc.value, ImmobilizeError) and exc.value.code == "OUT_OF_RANGE"
