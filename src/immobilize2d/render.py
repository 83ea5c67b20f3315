"""Deterministic SVG diagrams: body, contacts, normal lines, witness markers.

Normal lines and the shaded region are read off the contact rows that
``classify`` builds (``sectors.rows_from_tangents`` on ``body.tangent_ints``).
The region is the branch of the verdict question's closed sectors that
holds the rotation-centre witness: at each contact the first alternative of
the tested kind whose rows all hold there, clipped to the window.  A verdict
document without a ``question`` gets no region.

Rendering is presentation only, so geometry is converted to floats; every
coordinate is formatted with a fixed precision and elements are emitted in
a fixed order, making the output byte-stable for identical inputs.
"""

from __future__ import annotations

from . import io
from .body import BoundaryPoint, ConvexBody, Segment, tangent_ints
from .classify import _QUESTION_KINDS, TEST_NAMES, Witness
from .errors import in_float_range
from .sectors import ContactRows, rows_from_tangents, sector_of

_VIEW_W = 640.0
_MARGIN = 24.0

_STYLE = (
    "  <style>\n"
    "    .body { fill: #e8eef7; stroke: #23406e; stroke-width: 1.6; }\n"
    "    .normal { stroke: #6b7280; stroke-width: 0.8; stroke-dasharray: 4 3; }\n"
    "    .contact { fill: #b3261e; }\n"
    "    .label { font: 11px sans-serif; fill: #1f2933; }\n"
    "    .witness { fill: none; stroke: #7a1fa2; stroke-width: 1.6; }\n"
    "    .witnessdot { fill: #7a1fa2; }\n"
    "    .region { fill: #f2b8b5; fill-opacity: 0.45; stroke: none; }\n"
    "    .arrow { stroke: #7a1fa2; stroke-width: 1.6; fill: #7a1fa2; }\n"
    "  </style>\n"
)


def _f(v: float) -> str:
    out = f"{v:.6f}"
    return "0.000000" if out == "-0.000000" else out


class _Frame:
    def __init__(self, window: tuple[float, float, float, float]):
        x0, y0, x1, y1 = window
        self.x0, self.y0, self.x1, self.y1 = x0, y0, x1, y1
        self.scale = (_VIEW_W - 2 * _MARGIN) / max(x1 - x0, 1e-9)
        self.height = 2 * _MARGIN + (y1 - y0) * self.scale

    def sx(self, x: float) -> float:
        return _MARGIN + (x - self.x0) * self.scale

    def sy(self, y: float) -> float:
        return _MARGIN + (self.y1 - y) * self.scale

    def pt(self, p) -> tuple[float, float]:
        return self.sx(float(p[0])), self.sy(float(p[1]))


def _default_window(body: ConvexBody) -> tuple[float, float, float, float]:
    lo, hi = body.bounding_box()
    w, h = float(hi.x - lo.x), float(hi.y - lo.y)
    pad = 0.25 * max(w, h, 1.0)
    return (float(lo.x) - pad, float(lo.y) - pad, float(hi.x) + pad, float(hi.y) + pad)


def _body_path(body: ConvexBody, fr: _Frame) -> str:
    parts = []
    start = body.elements[0].start()
    x, y = fr.pt((start.x, start.y))
    parts.append(f"M {_f(x)} {_f(y)}")
    for el in body.elements:
        e = el.end()
        ex, ey = fr.pt((e.x, e.y))
        if isinstance(el, Segment):
            parts.append(f"L {_f(ex)} {_f(ey)}")
        else:
            r = float(el.radius) * fr.scale
            # sweep-flag 0: mathematically counterclockwise after the y flip
            parts.append(f"A {_f(r)} {_f(r)} 0 0 0 {_f(ex)} {_f(ey)}")
    parts.append("Z")
    return " ".join(parts)


def _clip_line(base, direction, window) -> tuple | None:
    """Liang-Barsky interval of the full line inside the window rectangle."""
    bx, by = base
    dx, dy = direction
    x0, y0, x1, y1 = window
    tmin, tmax = -1e18, 1e18
    for p, q in ((-dx, bx - x0), (dx, x1 - bx), (-dy, by - y0), (dy, y1 - by)):
        if p == 0:
            if q < 0:
                return None
            continue
        t = q / p
        if p < 0:
            tmin = max(tmin, t)
        else:
            tmax = min(tmax, t)
    if tmin >= tmax:
        return None
    return (bx + tmin * dx, by + tmin * dy), (bx + tmax * dx, by + tmax * dy)


def _clip_polygon(poly, row):
    """Sutherland-Hodgman clip to the half-plane ``nx x + ny y >= c``, in floats."""
    nx, ny, c = float(row.nx), float(row.ny), float(row.c)
    out = []
    for i, p in enumerate(poly):
        q = poly[(i + 1) % len(poly)]
        mp, mq = nx * p[0] + ny * p[1] - c, nx * q[0] + ny * q[1] - c
        if mp >= 0:
            out.append(p)
        if (mp >= 0) != (mq >= 0):
            t = mp / (mp - mq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _witness_region(contacts: list[ContactRows], question, witness: Witness | None, statuses: dict, fr: _Frame):
    """Polygon of the branch of the question's closed sector system holding the witness."""
    if question is None or witness is None or witness.kind != "rotation_center":
        return None
    name = next((n for n in TEST_NAMES if n.endswith(("L", "R")) and statuses.get(n) == "NONEMPTY"), None)
    if name is None:
        return None
    kind = _QUESTION_KINDS[question][name.endswith("R")]
    poly = [(fr.x0, fr.y0), (fr.x1, fr.y0), (fr.x1, fr.y1), (fr.x0, fr.y1)]
    for rows in contacts:
        alternatives = sector_of(rows, kind, True).alternatives
        # in first_branch's order: the first alternative whose rows hold at the witness
        branch = next((alt for alt in alternatives if all(lc.holds(witness.point) for lc in alt)), alternatives[0])
        for lc in branch:
            poly = _clip_polygon(poly, lc)
    return poly


@in_float_range
def render_svg(
    body: ConvexBody,
    pts: tuple[BoundaryPoint, ...] = (),
    verdict_doc: dict | None = None,
    window: tuple[float, float, float, float] | None = None,
) -> str:
    question, witness, statuses = (None, None, {}) if verdict_doc is None else io.verdict_marks_from_json(verdict_doc)
    contacts = [rows_from_tangents(bp.coords, *tangent_ints(body, bp)) for bp in pts]
    window = window or _default_window(body)
    fr = _Frame(window)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(_VIEW_W)}" height="{_f(fr.height)}" '
        f'viewBox="0 0 {_f(_VIEW_W)} {_f(fr.height)}">',
        _STYLE.rstrip("\n"),
        f'  <rect x="0" y="0" width="{_f(_VIEW_W)}" height="{_f(fr.height)}" fill="#ffffff"/>',
    ]

    region = _witness_region(contacts, question, witness, statuses, fr)
    if region:
        d = " ".join(
            ("M" if i == 0 else "L") + f" {_f(fr.sx(x))} {_f(fr.sy(y))}" for i, (x, y) in enumerate(region)
        )
        lines.append(f'  <path class="region" d="{d} Z"/>')

    lines.append(f'  <path class="body" d="{_body_path(body, fr)}"/>')

    for rows in contacts:
        apex = (float(rows.apex.x), float(rows.apex.y))
        for lc in rows.rows:
            seg = _clip_line(apex, (-float(lc.ny), float(lc.nx)), window)
            if seg:
                (ax, ay), (bx, by) = seg
                lines.append(
                    f'  <line class="normal" x1="{_f(fr.sx(ax))}" y1="{_f(fr.sy(ay))}" '
                    f'x2="{_f(fr.sx(bx))}" y2="{_f(fr.sy(by))}"/>'
                )
    for i, bp in enumerate(pts):
        x, y = fr.pt((bp.coords.x, bp.coords.y))
        lines.append(f'  <circle class="contact" cx="{_f(x)}" cy="{_f(y)}" r="3.2"/>')
        lines.append(f'  <text class="label" x="{_f(x + 5)}" y="{_f(y - 5)}">a{i + 1}</text>')

    if witness is not None:
        if witness.kind == "rotation_center":
            x = fr.sx(float(witness.point.x))
            y = fr.sy(float(witness.point.y))
            lines.append(f'  <circle class="witness" cx="{_f(x)}" cy="{_f(y)}" r="6"/>')
            lines.append(f'  <circle class="witnessdot" cx="{_f(x)}" cy="{_f(y)}" r="1.8"/>')
            lines.append(f'  <text class="label" x="{_f(x + 8)}" y="{_f(y + 4)}">center ({witness.sense})</text>')
        else:
            dx = float(witness.direction.x)
            dy = float(witness.direction.y)
            norm = max((dx * dx + dy * dy) ** 0.5, 1e-12)
            cx = (fr.x0 + fr.x1) / 2
            cy = (fr.y0 + fr.y1) / 2
            ln = 0.18 * (fr.x1 - fr.x0)
            ex, ey = cx + dx / norm * ln, cy + dy / norm * ln
            x1, y1 = fr.sx(cx), fr.sy(cy)
            x2, y2 = fr.sx(ex), fr.sy(ey)
            lines.append(f'  <line class="arrow" x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}"/>')
            ux, uy = (x2 - x1), (y2 - y1)
            un = max((ux * ux + uy * uy) ** 0.5, 1e-12)
            ux, uy = ux / un, uy / un
            px, py = -uy, ux
            lines.append(
                '  <path class="arrow" d="M '
                + f"{_f(x2)} {_f(y2)} L {_f(x2 - 8 * ux + 3.5 * px)} {_f(y2 - 8 * uy + 3.5 * py)} "
                + f"L {_f(x2 - 8 * ux - 3.5 * px)} {_f(y2 - 8 * uy - 3.5 * py)} Z\"/>"
            )
            lines.append(f'  <text class="label" x="{_f(x2 + 6)}" y="{_f(y2)}">direction</text>')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
