"""Two-panel SVG rendering of the slit map, with no plotting dependency.

The left panel shows the annulus with a polar grid, the right panel the
image of that grid under f_x together with the unit circle and the slit.
Coordinates are written with fixed two-decimal precision so identical
inputs produce byte-identical documents.

Every coordinate of a figure is written in one numpy pass over one flat
array, with the text "%.2f" % v gives for each value v: v is rounded to
the integer hundredths rint(100 v), except where fl(100 v) is exactly a
half-integer; there the sign of the exact residual 100 v - fl(100 v) picks
the side, and a true tie (v = k/8 with k odd) rounds to even as "%.2f"
does. No coordinate goes through Python's float formatting.
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
# Most (x, y) pairs formatted at once, which bounds the formatter's
# temporaries to about 2 MB whatever the figure's size.
FORMAT_BLOCK_PAIRS = 8192

_WIDTH = 2.0 * PANEL_SIZE + PANEL_GAP
_HEADER = (
    f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH:.2f} '
    f'{PANEL_SIZE:.2f}" width="{_WIDTH:.2f}" height="{PANEL_SIZE:.2f}">'
)
# Below 2^53 the spacing of fl(100 v) is at most 1, so rounding it to an
# integer, with the tie rule, gives the hundredths "%.2f" prints.
_MAX_HUNDREDTHS = 2.0**53
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two halves


def _hundredths(v: np.ndarray) -> np.ndarray:
    """The integers round(100 v) that "%.2f" % v prints, as floats.

    np.rint(fl(100 v)) is that integer unless fl(100 v) = p is exactly a
    half-integer. There the exact 100 v may lie on either side of p, or on
    it: the sign of e = (vh 100 - p) + vl 100, with vh + vl = v the Veltkamp
    split, decides, and e = 0 keeps rint's round-half-even. Both products
    and the difference are exact, so e has the sign of 100 v - p.
    """
    p = v * 100.0
    if not np.all(np.abs(p) < _MAX_HUNDREDTHS):
        raise DomainError(
            "coordinates must be finite and below 2**53 / 100 in magnitude"
        )
    n = np.rint(p)
    ties = np.flatnonzero(np.abs(p - n) == 0.5)
    vt, pt = v[ties], p[ties]
    c = _SPLIT * vt
    vh = c - (c - vt)
    e = (vh * 100.0 - pt) + (vt - vh) * 100.0
    n[ties] = np.where(e == 0.0, n[ties], pt + 0.5 * np.sign(e))
    return n


def _tokens(v: np.ndarray) -> tuple[bytes, np.ndarray]:
    """ASCII of "%.2f," % x + "%.2f " % y for the flat pairs v = (x0, y0, x1, ...).

    Returns the text and each value's token length (int32). Every token is
    written right to left from its end offset, one character position per
    pass: separator, two decimals, '.', integer digits, sign. Positions a
    token does not have (leading zeros, '-' of a positive value) are
    written to one spare byte past the text.
    """
    neg = np.signbit(v)
    q = np.abs(_hundredths(v)).astype(np.int64)
    most = len(str(int(q.max()) // 100))  # integer digits of the widest value
    ndig = np.ones(v.size, np.int32)
    for k in range(3, most + 2):
        ndig += q >= 10**k
    length = ndig + neg + 4
    end = np.cumsum(length, dtype=np.intp)
    spare = int(end[-1])
    buf = np.empty(spare + 1, np.uint8)
    buf[end[0::2] - 1] = ord(",")
    buf[end[1::2] - 1] = ord(" ")
    buf[end - 4] = ord(".")
    for k in range(most + 2):
        # digit k from the right ends k + 2 before the token's end, one more
        # once past the '.'; a digit the token lacks goes to the spare byte
        at = np.where(ndig + 2 > k, end - (k + 2 + (k >= 2)), spare)
        tens = q // 10
        buf[at] = (q - 10 * tens).astype(np.uint8) + ord("0")
        q = tens
    buf[np.where(neg, end - length, spare)] = ord("-")
    return buf[:spare].tobytes(), length


def _polylines(curves, cy: float, scale: float) -> list[str]:
    """One <polyline> per (pts, cx, stroke, width, cls) of curves.

    Every curve is moved to canvas coordinates (cx + scale Re, cy - scale Im)
    in one flat array, written in one pass of blocks of FORMAT_BLOCK_PAIRS
    pairs, decoded once and sliced per curve.
    """
    counts = [len(curve[0]) for curve in curves]
    xy = np.empty((sum(counts), 2))
    start = 0
    for (pts, cx, *_), k in zip(curves, counts):
        xy[start:start + k, 0] = cx + scale * np.real(pts)
        xy[start:start + k, 1] = cy - scale * np.imag(pts)
        start += k
    flat = xy.ravel()
    chunks = []
    pair_len = np.empty(len(xy), np.int32)
    block = 2 * FORMAT_BLOCK_PAIRS
    for s in range(0, flat.size, block):
        chunk, length = _tokens(flat[s:s + block])
        chunks.append(chunk)
        pair_len[s // 2:(s + length.size) // 2] = length[0::2] + length[1::2]
    text = b"".join(chunks).decode("ascii")
    # where each curve's first pair starts in text, and where the next one's does
    ends = np.zeros(len(xy) + 1, np.int32)
    np.cumsum(pair_len, out=ends[1:])
    bounds = ends[np.cumsum([0] + counts)].tolist()
    lines = []
    for (_, _, stroke, width, cls), lo, hi in zip(curves, bounds, bounds[1:]):
        # a curve's last pair drops its trailing space
        lines.append(
            f'<polyline class="{cls}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}" points="{text[lo:max(lo, hi - 1)]}"/>'
        )
    return lines


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
    cx_left = half
    cx_right = PANEL_SIZE + PANEL_GAP + half

    source_curves = [_circle_pts(float(rho)) for rho in radii]
    ts = np.linspace(r, 1.0, CURVE_SAMPLES)
    source_curves += [ts * np.exp(1j * float(theta)) for theta in angles]
    # linspace keeps both ends exact: the first and last grid circles are
    # the boundary circles |z| = r and |z| = 1
    inner, outer = source_curves[0], source_curves[n_radial - 1]

    curves = [(pts, cx_left, "#7799bb", 1.0, "grid-source") for pts in source_curves]
    curves += [(outer, cx_left, "#222222", 1.5, "boundary"),
               (inner, cx_left, "#222222", 1.5, "boundary")]
    ends = np.cumsum([len(pts) for pts in source_curves])[:-1]
    images = np.split(f_eval(params, np.concatenate(source_curves)), ends)
    curves += [(image, cx_right, "#7799bb", 1.0, "grid-image") for image in images]
    curves.append((outer, cx_right, "#222222", 1.5, "boundary"))
    theta_plus = math.atan2(arc.endpoint_plus.imag, arc.endpoint_plus.real)
    slit_theta = np.linspace(theta_plus, 2.0 * math.pi - theta_plus, CIRCLE_SAMPLES)
    curves.append((arc.radius * np.exp(1j * slit_theta), cx_right, "#cc3311", 3.0, "slit"))

    parts = [_HEADER, '<rect width="100%" height="100%" fill="white"/>']
    parts += _polylines(curves, half, scale)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
