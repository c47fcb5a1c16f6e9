"""Static SVG pictures of subdivisions.

One path element per edge, one text label per piece (anchored at its
witness point).  Unbounded edges are clipped against the viewport and
drawn dashed; segments are solid.  Exact coordinates are converted to
floats only at the very last step, when formatting the SVG.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

from .geometry import (EdgeGeom, Line, Point, Ray, Segment, edge_base,
                       edge_direction, translate)
from .model import CPAInstance

Box = Tuple[Fraction, Fraction, Fraction, Fraction]  # xmin, ymin, xmax, ymax
FONT_SIZE = 13.0  # of the piece labels


def _clip_to_box(g: EdgeGeom, box: Box) -> Optional[Tuple[Point, Point]]:
    """Visible portion of an edge inside the box, or None."""
    base, d = edge_base(g), edge_direction(g)
    if isinstance(g, Segment):
        lo: Optional[Fraction] = Fraction(0)
        hi: Optional[Fraction] = Fraction(1)
    elif isinstance(g, Ray):
        lo, hi = Fraction(0), None
    else:
        lo, hi = None, None
    xmin, ymin, xmax, ymax = box
    for pos, vel, mn, mx in ((base.x, d.dx, xmin, xmax),
                             (base.y, d.dy, ymin, ymax)):
        if vel == 0:
            if not mn <= pos <= mx:
                return None
            continue
        t0, t1 = (mn - pos) / vel, (mx - pos) / vel
        if t0 > t1:
            t0, t1 = t1, t0
        lo = t0 if lo is None else max(lo, t0)
        hi = t1 if hi is None else min(hi, t1)
    if lo is None or hi is None or lo > hi:
        return None
    return translate(base, d, lo), translate(base, d, hi)


def render_svg(inst: CPAInstance, *, width: int = 640, height: int = 640,
               viewport: Optional[Box] = None, stroke: float = 1.5) -> str:
    """Render the subdivision as an SVG 1.1 document string."""
    if viewport is None:
        viewport = inst.bbox()
    xmin, ymin, xmax, ymax = viewport
    spanx = xmax - xmin if xmax != xmin else Fraction(1)
    spany = ymax - ymin if ymax != ymin else Fraction(1)

    def to_px(q: Point) -> Tuple[float, float]:
        return (float((q.x - xmin) / spanx) * width,
                height - float((q.y - ymin) / spany) * height)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for eid in sorted(inst.edges):
        e = inst.edges[eid]
        clipped = _clip_to_box(e.geom, viewport)
        if clipped is None:
            d_attr = ""
        else:
            (x1, y1), (x2, y2) = to_px(clipped[0]), to_px(clipped[1])
            d_attr = f"M {x1:.2f} {y1:.2f} L {x2:.2f} {y2:.2f}"
        dash = '' if isinstance(e.geom, Segment) \
            else ' stroke-dasharray="7,5"'
        parts.append(f'<path id="edge-{eid}" d="{d_attr}" stroke="#222" '
                     f'stroke-width="{stroke}" fill="none"{dash}/>')
    for vid in sorted(inst.vertices):
        x, y = to_px(inst.vertices[vid])
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" '
                     f'r="{stroke * 2:.2f}" fill="#222"/>')
    for pid in sorted(inst.pieces):
        x, y = to_px(inst.pieces[pid].witness)
        parts.append(f'<text x="{x:.2f}" y="{y:.2f}" font-size="{FONT_SIZE}" '
                     f'text-anchor="middle" fill="#1a4a8a" '
                     f'font-family="sans-serif">{pid}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
