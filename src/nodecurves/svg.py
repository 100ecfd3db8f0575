"""Display-grade SVG figures of node sets and curves.

This is the one place the package touches floating point: curve traces are
extracted from a float sign grid with marching squares, which is fine for
pictures and irrelevant to every decision procedure.  Output is fully
deterministic for identical inputs (fixed canvas, fixed formatting, no
timestamps).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Optional, Sequence

from .nodes import NodeSet
from .poly import Poly

SIZE = 480.0
MARGIN = 40.0
GRID = 160

NODE_STYLE = {"r": "4", "fill": "#27526e", "stroke": "white", "stroke-width": "1"}
CURVE_COLORS = ["#b03a2e", "#1e8449", "#7d3c98", "#b7950b"]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _bounds(xs: NodeSet) -> tuple[float, float, float, float]:
    if len(xs) == 0:
        return -1.0, -1.0, 1.0, 1.0
    px = [float(p.x) for p in xs]
    py = [float(p.y) for p in xs]
    minx, maxx = min(px), max(px)
    miny, maxy = min(py), max(py)
    span = max(maxx - minx, maxy - miny, 1.0)
    pad = 0.25 * span
    cx, cy = (minx + maxx) / 2, (miny + maxy) / 2
    half = span / 2 + pad
    return cx - half, cy - half, cx + half, cy + half


class _Map:
    def __init__(self, box):
        self.minx, self.miny, self.maxx, self.maxy = box
        self.scale = (SIZE - 2 * MARGIN) / (self.maxx - self.minx)

    def x(self, v: float) -> float:
        return MARGIN + (v - self.minx) * self.scale

    def y(self, v: float) -> float:
        return SIZE - MARGIN - (v - self.miny) * self.scale


def _eval_float(p: Poly, x: float, y: float) -> float:
    total = 0.0
    for i, j, c in p.terms():
        total += float(c) * x**i * y**j
    return total


def _curve_segments(p: Poly, box) -> list[tuple[float, float, float, float]]:
    # marching squares on the sign grid of p
    minx, miny, maxx, maxy = box
    dx = (maxx - minx) / GRID
    dy = (maxy - miny) / GRID
    vals = [[_eval_float(p, minx + i * dx, miny + j * dy)
             for j in range(GRID + 1)] for i in range(GRID + 1)]
    segments = []
    for i in range(GRID):
        for j in range(GRID):
            corners = [
                (minx + i * dx, miny + j * dy, vals[i][j]),
                (minx + (i + 1) * dx, miny + j * dy, vals[i + 1][j]),
                (minx + (i + 1) * dx, miny + (j + 1) * dy, vals[i + 1][j + 1]),
                (minx + i * dx, miny + (j + 1) * dy, vals[i][j + 1]),
            ]
            crossings = []
            for a in range(4):
                x1, y1, v1 = corners[a]
                x2, y2, v2 = corners[(a + 1) % 4]
                if (v1 < 0) != (v2 < 0):
                    t = v1 / (v1 - v2)
                    crossings.append((x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
            if len(crossings) == 2:
                (ax, ay), (bx, by) = crossings
                segments.append((ax, ay, bx, by))
    return segments


def render_svg(xs: NodeSet, polys: Sequence[Poly] = (),
               highlight: Optional[int] = None) -> str:
    """SVG text for a node set and any number of implicit curves."""
    box = _bounds(xs)
    m = _Map(box)
    root = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": _fmt(SIZE), "height": _fmt(SIZE),
        "viewBox": f"0 0 {_fmt(SIZE)} {_fmt(SIZE)}",
    })
    ET.SubElement(root, "rect", {
        "x": "0", "y": "0", "width": _fmt(SIZE), "height": _fmt(SIZE),
        "fill": "white"})
    # axes, when visible
    axis = {"stroke": "#cccccc", "stroke-width": "1"}
    if box[0] < 0 < box[2]:
        ET.SubElement(root, "line", {
            "x1": _fmt(m.x(0)), "y1": _fmt(m.y(box[1])),
            "x2": _fmt(m.x(0)), "y2": _fmt(m.y(box[3])), **axis})
    if box[1] < 0 < box[3]:
        ET.SubElement(root, "line", {
            "x1": _fmt(m.x(box[0])), "y1": _fmt(m.y(0)),
            "x2": _fmt(m.x(box[2])), "y2": _fmt(m.y(0)), **axis})
    for idx, p in enumerate(polys):
        color = CURVE_COLORS[idx % len(CURVE_COLORS)]
        parts = []
        for ax, ay, bx, by in _curve_segments(p, box):
            parts.append(
                f"M{_fmt(m.x(ax))} {_fmt(m.y(ay))}L{_fmt(m.x(bx))} {_fmt(m.y(by))}")
        if parts:
            ET.SubElement(root, "path", {
                "d": "".join(parts), "stroke": color,
                "stroke-width": "1.5", "fill": "none"})
    for idx, p in enumerate(xs):
        style = dict(NODE_STYLE)
        if highlight is not None and idx == highlight:
            style["fill"] = "#c0392b"
            style["r"] = "5"
        ET.SubElement(root, "circle", {
            "cx": _fmt(m.x(float(p.x))), "cy": _fmt(m.y(float(p.y))), **style})
        text = ET.SubElement(root, "text", {
            "x": _fmt(m.x(float(p.x)) + 6), "y": _fmt(m.y(float(p.y)) - 6),
            "font-size": "11", "font-family": "sans-serif", "fill": "#555555"})
        text.text = str(idx)
    return ET.tostring(root, encoding="unicode") + "\n"
