"""Deterministic SVG diagrams: body, contacts, normal rays, witness markers.

Rendering is presentation only, so geometry is converted to floats; every
coordinate is formatted with a fixed precision and elements are emitted in
a fixed order, making the output byte-stable for identical inputs.
"""

from __future__ import annotations

from . import io
from .body import BoundaryPoint, ConvexBody, Segment, tangents_at
from .classify import Witness
from .errors import in_float_range
from .geom import rot90_ccw, same_ray

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


def _clip_polygon(poly, base, direction, keep_left: bool):
    """Sutherland-Hodgman clip against one side of an oriented line."""

    def inside(p):
        c = direction[0] * (p[1] - base[1]) - direction[1] * (p[0] - base[0])
        return c >= 0 if keep_left else c <= 0

    def meet(p, q):
        cp = direction[0] * (p[1] - base[1]) - direction[1] * (p[0] - base[0])
        cq = direction[0] * (q[1] - base[1]) - direction[1] * (q[0] - base[0])
        t = cp / (cp - cq)
        return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

    out = []
    for i, p in enumerate(poly):
        q = poly[(i + 1) % len(poly)]
        pin, qin = inside(p), inside(q)
        if pin:
            out.append(p)
            if not qin:
                out.append(meet(p, q))
        elif qin:
            out.append(meet(p, q))
    return out


def _witness_region(body, pts, witness: Witness | None, statuses: dict, fr: _Frame):
    """Polygon of the sector-system branch containing the verdict witness."""
    if witness is None or witness.kind != "rotation_center":
        return None
    name = next((n for n in ("openL", "openR", "closedL", "closedR") if statuses.get(n) == "NONEMPTY"), None)
    if name is None:
        return None
    keep_left = name.endswith("L")
    wx, wy = float(witness.point.x), float(witness.point.y)
    poly = [(fr.x0, fr.y0), (fr.x1, fr.y0), (fr.x1, fr.y1), (fr.x0, fr.y1)]
    for bp in pts:
        td = tangents_at(body, bp)
        apex = (float(bp.coords.x), float(bp.coords.y))
        chosen = None
        for u in (td.u_left, td.u_right):
            n = rot90_ccw(u)
            d = (float(n.x), float(n.y))
            c = d[0] * (wy - apex[1]) - d[1] * (wx - apex[0])
            if (c >= 0) == keep_left:
                chosen = d
                break
        if chosen is None:
            chosen = (float(rot90_ccw(td.u_left).x), float(rot90_ccw(td.u_left).y))
        poly = _clip_polygon(poly, apex, chosen, keep_left)
        if not poly:
            return None
    return poly


@in_float_range
def render_svg(
    body: ConvexBody,
    pts: tuple[BoundaryPoint, ...] = (),
    verdict_doc: dict | None = None,
    window: tuple[float, float, float, float] | None = None,
) -> str:
    witness, statuses = io.verdict_marks_from_json(verdict_doc) if verdict_doc is not None else (None, {})
    window = window or _default_window(body)
    fr = _Frame(window)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(_VIEW_W)}" height="{_f(fr.height)}" '
        f'viewBox="0 0 {_f(_VIEW_W)} {_f(fr.height)}">',
        _STYLE.rstrip("\n"),
        f'  <rect x="0" y="0" width="{_f(_VIEW_W)}" height="{_f(fr.height)}" fill="#ffffff"/>',
    ]

    region = _witness_region(body, pts, witness, statuses, fr)
    if region:
        d = " ".join(
            ("M" if i == 0 else "L") + f" {_f(fr.sx(x))} {_f(fr.sy(y))}" for i, (x, y) in enumerate(region)
        )
        lines.append(f'  <path class="region" d="{d} Z"/>')

    lines.append(f'  <path class="body" d="{_body_path(body, fr)}"/>')

    for bp in pts:
        td = tangents_at(body, bp)
        apex = (float(bp.coords.x), float(bp.coords.y))
        sides = (td.u_left,) if same_ray(td.u_left, td.u_right) else (td.u_left, td.u_right)
        for u in sides:
            n = rot90_ccw(u)
            seg = _clip_line(apex, (float(n.x), float(n.y)), window)
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
