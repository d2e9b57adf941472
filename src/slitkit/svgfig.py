"""Two-panel SVG rendering of the slit map, with no plotting dependency.

The left panel shows the annulus with a polar grid, the right panel the
image of that grid under f_x together with the unit circle and the slit.
Coordinates are written with fixed two-decimal precision so identical
inputs produce byte-identical documents.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .prime import DEFAULT_TRUNC_TOL, AnnulusModulus
from .slitmap import SlitMapParams, f_eval, slit_endpoint

PANEL_SIZE = 420.0
PANEL_GAP = 20.0
MARGIN = 10.0
CURVE_SAMPLES = 256
CIRCLE_SAMPLES = 512


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _polyline(pts: np.ndarray, cx: float, cy: float, scale: float,
              stroke: str, width: float, cls: str) -> str:
    xy = np.empty((len(pts), 2))
    xy[:, 0] = cx + scale * np.real(pts)
    xy[:, 1] = cy - scale * np.imag(pts)
    # One %-format over all coordinates writes what _fmt writes per value.
    coords = ("%.2f,%.2f " * len(pts) % tuple(xy.ravel().tolist()))[:-1]
    return (
        f'<polyline class="{cls}" fill="none" stroke="{stroke}" '
        f'stroke-width="{width}" points="{coords}"/>'
    )


def _circle_pts(radius: float, n: int = CIRCLE_SAMPLES) -> np.ndarray:
    theta = np.linspace(0.0, 2.0 * math.pi, n)
    return radius * np.exp(1j * theta)


def plot_map(
    r: float,
    x: float,
    grid: tuple[int, int] = (8, 12),
    trunc_tol: float = DEFAULT_TRUNC_TOL,
) -> str:
    """Render the annulus polar grid and its image under f_x as an SVG string.

    grid = (n_radial, n_angular) counts the grid circles and rays; both must
    be at least 2.
    """
    n_radial, n_angular = int(grid[0]), int(grid[1])
    if n_radial < 2 or n_angular < 2:
        raise DomainError("grid counts must be at least 2")
    modulus = AnnulusModulus(r, trunc_tol)
    params = SlitMapParams(modulus, x)
    arc = slit_endpoint(params)

    radii = np.linspace(r, 1.0, n_radial)
    angles = np.linspace(0.0, 2.0 * math.pi, n_angular, endpoint=False)

    half = PANEL_SIZE / 2.0
    scale = half - MARGIN
    cy = half
    cx_left = half
    cx_right = PANEL_SIZE + PANEL_GAP + half
    width = 2.0 * PANEL_SIZE + PANEL_GAP
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_fmt(width)} '
        f'{_fmt(PANEL_SIZE)}" width="{_fmt(width)}" height="{_fmt(PANEL_SIZE)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    source_curves = []
    for rho in radii:
        source_curves.append(_circle_pts(float(rho)))
    ts = np.linspace(r, 1.0, CURVE_SAMPLES)
    for theta in angles:
        source_curves.append(ts * np.exp(1j * float(theta)))

    for pts in source_curves:
        parts.append(
            _polyline(pts, cx_left, cy, scale, "#7799bb", 1.0, "grid-source")
        )
    parts.append(
        _polyline(_circle_pts(1.0), cx_left, cy, scale, "#222222", 1.5, "boundary")
    )
    parts.append(
        _polyline(_circle_pts(r), cx_left, cy, scale, "#222222", 1.5, "boundary")
    )

    ends = np.cumsum([len(pts) for pts in source_curves])[:-1]
    for image in np.split(f_eval(params, np.concatenate(source_curves)), ends):
        parts.append(
            _polyline(image, cx_right, cy, scale, "#7799bb", 1.0, "grid-image")
        )
    parts.append(
        _polyline(_circle_pts(1.0), cx_right, cy, scale, "#222222", 1.5, "boundary")
    )
    theta_plus = math.atan2(arc.endpoint_plus.imag, arc.endpoint_plus.real)
    slit_theta = np.linspace(theta_plus, 2.0 * math.pi - theta_plus, CIRCLE_SAMPLES)
    slit_pts = arc.radius * np.exp(1j * slit_theta)
    parts.append(_polyline(slit_pts, cx_right, cy, scale, "#cc3311", 3.0, "slit"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
