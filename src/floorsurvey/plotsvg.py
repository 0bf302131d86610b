"""Minimal deterministic SVG rendering of floorplans and trajectories.

No plotting dependency: output is assembled from fixed-precision
primitives so identical inputs give identical bytes.
"""

from __future__ import annotations

import numpy as np

from .geometry import Floorplan

WALL_COLOR = "black"
EST_COLOR = "green"
REF_COLOR = "brown"


def _c(v: float) -> str:
    return f"{v:.2f}"


class SvgCanvas:
    """Maps world coordinates (y up) onto a fixed-width SVG (y down)."""

    def __init__(self, bounds: tuple[float, float, float, float],
                 width: float = 800.0, margin: float = 20.0):
        x0, y0, x1, y1 = bounds
        span_x = max(x1 - x0, 1e-9)
        span_y = max(y1 - y0, 1e-9)
        self.scale = (width - 2 * margin) / span_x
        self.width = width
        self.height = span_y * self.scale + 2 * margin
        self.margin = margin
        self.x0, self.y1 = x0, y1
        self.parts: list[str] = []

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        return (self.margin + (x - self.x0) * self.scale,
                self.margin + (self.y1 - y) * self.scale)

    def line(self, a, b, color: str, width: float = 1.5) -> None:
        ax, ay = self.to_px(*a)
        bx, by = self.to_px(*b)
        self.parts.append(
            f'<line x1="{_c(ax)}" y1="{_c(ay)}" x2="{_c(bx)}" y2="{_c(by)}" '
            f'stroke="{color}" stroke-width="{_c(width)}" />')

    def polyline(self, pts: np.ndarray, color: str, width: float = 1.5) -> None:
        if len(pts) < 2:
            return
        coords = " ".join(f"{_c(px)},{_c(py)}" for px, py in (self.to_px(x, y) for x, y in pts))
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{_c(width)}" />')

    def circle(self, center, radius_px: float, color: str) -> None:
        cx, cy = self.to_px(*center)
        self.parts.append(
            f'<circle cx="{_c(cx)}" cy="{_c(cy)}" r="{_c(radius_px)}" fill="{color}" />')

    def text(self, pos, s: str, size: float = 10.0, color: str = "black") -> None:
        px, py = self.to_px(*pos)
        self.parts.append(
            f'<text x="{_c(px)}" y="{_c(py)}" font-size="{_c(size)}" '
            f'fill="{color}">{s}</text>')

    def render(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{_c(self.width)}" height="{_c(self.height)}" '
                f'viewBox="0 0 {_c(self.width)} {_c(self.height)}">')
        body = "\n".join(self.parts)
        return f"{head}\n{body}\n</svg>\n"


def draw_floorplan(canvas: SvgCanvas, fp: Floorplan) -> None:
    for x0, y0, x1, y1 in fp.walls:
        canvas.line((x0, y0), (x1, y1), WALL_COLOR, 2.0)
    for room in fp.rooms:
        cx, cy = room.vertices.mean(axis=0)
        canvas.text((cx, cy), str(room.room_id), 9.0, "gray")


def draw_closures(canvas: SvgCanvas, positions: np.ndarray, closures) -> None:
    for c in closures:
        canvas.line(positions[c.epoch_a], positions[c.epoch_b], REF_COLOR, 0.8)


def render_scene(fp: Floorplan, trajectories: list[tuple[np.ndarray, str]],
                 closures=None) -> str:
    """One SVG with the floorplan plus any number of colored paths."""
    canvas = SvgCanvas(fp.bounds)
    draw_floorplan(canvas, fp)
    if closures:
        for positions, _ in trajectories[:1]:
            draw_closures(canvas, positions, closures)
    for positions, color in trajectories:
        canvas.polyline(np.asarray(positions), color)
        if len(positions):
            canvas.circle(positions[0], 3.0, color)
    return canvas.render()
