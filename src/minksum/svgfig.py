"""Deterministic SVG figures for 2D scenes.

Curve scheme: term ellipses black, the Minkowski-sum boundary green, the
inner sum ellipsoid blue, the John inner ellipsoid red, the optimal outer
ellipsoid orange.  Output contains no timestamps and formats coordinates
with a fixed precision, so repeated renders are byte-identical.
"""

from __future__ import annotations

import numpy as np

from . import bounds, geometry, quadrature
from .geometry import EllipsoidSum

CURVE_POINTS = 720
MARGIN = 0.05

COLORS = {
    "term": "black",
    "sum": "green",
    "inner": "blue",
    "john": "red",
    "outer": "#ff8c00",
}


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _polyline(points: np.ndarray, color: str, width: float) -> str:
    closed = np.vstack([points, points[:1]])
    coords = " ".join(f"{_fmt(p[0])},{_fmt(-p[1])}" for p in closed)
    return (
        f'<polyline fill="none" stroke="{color}" '
        f'stroke-width="{_fmt(width)}" points="{coords}"/>'
    )


def render_scene_svg(scene: EllipsoidSum, show=("sum", "inner", "john")) -> str:
    """SVG document for a 2D scene; term ellipses are always drawn."""
    if scene.dim != 2:
        raise ValueError("SVG rendering supports 2D scenes only")
    known = set(COLORS) - {"term"}
    unknown = [s for s in show if s not in known]
    if unknown:
        raise ValueError(f"unknown curve selection: {unknown}")

    ns = quadrature.build_quadrature(2, CURVE_POINTS).nodes
    curves: list[tuple[np.ndarray, str]] = []
    for a in scene.matrices:
        single = EllipsoidSum.from_matrices([a])
        curves.append((geometry.boundary_points(single, ns), COLORS["term"]))
    if "sum" in show:
        curves.append((geometry.boundary_points(scene, ns), COLORS["sum"]))
    fits = {
        "inner": bounds.inner_sum_matrix,
        "john": bounds.best_inner_john,
        "outer": bounds.minvol_outer,
    }
    for name, fit in fits.items():
        if name in show and (name != "john" or scene.m >= 2):
            single = EllipsoidSum.from_matrices([fit(scene).entries])
            curves.append((geometry.boundary_points(single, ns), COLORS[name]))

    all_pts = np.vstack([c[0] for c in curves])
    xs, ys = all_pts[:, 0], -all_pts[:, 1]
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    pad = MARGIN * max(x1 - x0, y1 - y0)
    view = (x0 - pad, y0 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)
    stroke = 0.004 * max(view[2], view[3])

    body = "\n".join(_polyline(pts, color, stroke) for pts, color in curves)
    viewbox = " ".join(_fmt(v) for v in view)
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{viewbox}" width="640" height="640">\n'
        f"{body}\n</svg>\n"
    )
