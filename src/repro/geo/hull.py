"""Planar convex hulls and polygon areas.

Implemented from scratch (Andrew's monotone chain + the shoelace
formula) so the AS geographic-extent analysis has no dependency beyond
numpy.  Degenerate point sets (fewer than three distinct points, or all
points collinear) have zero area, matching the paper's observation that
ASes present at one or two locations "have no extent at all".
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeoError


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Convex hull of 2-D points via Andrew's monotone chain.

    Args:
        points: array of shape ``(n, 2)``.

    Returns:
        Hull vertices in counter-clockwise order, shape ``(h, 2)``.
        Degenerate inputs return what distinct geometry exists: a single
        point, or the two extreme points of a collinear set.

    Raises:
        GeoError: if the input is not an ``(n, 2)`` array or holds
            non-finite values.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeoError(f"expected an (n, 2) array, got shape {pts.shape}")
    if pts.size and not np.all(np.isfinite(pts)):
        raise GeoError("points must be finite")
    if pts.shape[0] == 0:
        return pts.copy()
    # Sort lexicographically and drop duplicates.
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    keep = np.ones(pts.shape[0], dtype=bool)
    keep[1:] = np.any(np.diff(pts, axis=0) != 0.0, axis=1)
    pts = pts[keep]
    if pts.shape[0] <= 2:
        return pts.copy()
    hull = monotone_chain(pts.tolist())
    if len(hull) < 3:  # fully collinear set
        return np.vstack([pts[0], pts[-1]])
    return np.array(hull)


def monotone_chain(coords: list[list[float]]) -> list[list[float]]:
    """Hull vertices, counter-clockwise, of distinct points sorted by
    (x, y); fewer than three when the points are collinear.

    Walks Python floats: the same IEEE arithmetic as numpy scalars
    without their per-element overhead.
    """
    chains = []
    for walk in (coords, coords[::-1]):
        chain: list[list[float]] = []
        for p in walk:
            px, py = p
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


def polygon_area(vertices: np.ndarray) -> float:
    """Absolute area of a simple polygon via the shoelace formula.

    Inputs with fewer than three vertices have zero area.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or (v.size and v.shape[1] != 2):
        raise GeoError(f"expected an (n, 2) array, got shape {v.shape}")
    if v.shape[0] < 3:
        return 0.0
    x = v[:, 0]
    y = v[:, 1]
    x_next = np.concatenate((x[1:], x[:1]))
    y_next = np.concatenate((y[1:], y[:1]))
    return float(abs(np.dot(x, y_next) - np.dot(y, x_next)) / 2.0)


def convex_hull_area(points: np.ndarray) -> float:
    """Area of the convex hull of a 2-D point set.

    The composition used by the AS-extent analysis: project interface
    locations to the plane, then call this.
    """
    return polygon_area(convex_hull(points))


def sorted_hull_area(coords: list[list[float]]) -> float:
    """:func:`convex_hull_area` of distinct points already sorted by
    (x, y), skipping the validation, sort and dedupe."""
    hull = monotone_chain(coords)
    return polygon_area(np.array(hull)) if len(hull) >= 3 else 0.0
