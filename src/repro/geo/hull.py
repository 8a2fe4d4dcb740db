"""Planar convex hulls and their areas, for many point sets at once.

Implemented from scratch so the AS geographic-extent analysis has no
dependency beyond numpy.  One grouped kernel serves every caller: it
takes the hulls of any number of point sets (groups) in whole-array
passes, with no Python loop over groups, and the single-set functions
are one-group calls of it.  Degenerate point sets (fewer than three
distinct points, or all points collinear) have zero area, matching the
paper's observation that ASes present at one or two locations "have no
extent at all".
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeoError


def hull_edges(
    x: np.ndarray, y: np.ndarray, group: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Convex-hull edges of every group of points, by monotone chains.

    The points must be distinct within each group and sorted by
    ``(group, x, y)``.  Each group's lower chain walks its points in that
    order and its upper chain walks them backwards.  A chain point is
    dropped while its two current neighbours in the same chain do not
    make a strict left turn (``cross <= 0``, so collinear points go).
    Every pass drops all such points at once, except that of two
    adjacent ones only the first goes (the second's test used a
    neighbour that is leaving, and with rounded cross products that
    test can condemn a true vertex); passes repeat until one drops none.
    What is left of each chain is what Andrew's monotone chain keeps,
    point for point whenever the cross products are exact (as on
    integer coordinates).

    Returns:
        ``(tail, head)``: point indices of every hull edge, counter-
        clockwise around its group.  All lower chains come first
        (ascending group), then all upper chains (descending group).  A
        group's polygon vertices are its edges' tails in that order; a
        group with fewer than three edges has no extent.
    """
    n = x.size
    walk = np.concatenate((np.arange(n), np.arange(n)[::-1]))
    chain = np.concatenate((2 * group, 2 * group[::-1] + 1))
    wx, wy = x[walk], y[walk]
    while walk.size > 2:
        ox, oy = wx[:-2], wy[:-2]
        cross = (wx[1:-1] - ox) * (wy[2:] - oy) - (wy[1:-1] - oy) * (wx[2:] - ox)
        drop = np.zeros(walk.size, dtype=bool)
        drop[1:-1] = (chain[:-2] == chain[2:]) & (cross <= 0)
        if not drop.any():
            break
        drop[1:] &= ~drop[:-1]
        keep = ~drop
        walk, chain, wx, wy = walk[keep], chain[keep], wx[keep], wy[keep]
    edge = chain[:-1] == chain[1:]
    return walk[:-1][edge], walk[1:][edge]


def grouped_hull_areas(
    x: np.ndarray, y: np.ndarray, group: np.ndarray, n_groups: int
) -> np.ndarray:
    """Convex-hull area of every group of points.

    Args:
        x, y: coordinates, distinct within each group and sorted by
            ``(group, x, y)``.
        group: group id per point, in ``range(n_groups)``.
        n_groups: number of groups; groups without points have area 0.

    Returns:
        Area per group, shape ``(n_groups,)``.  Each is the shoelace sum
        over its :func:`hull_edges`, taken about the group's first point
        and accumulated in edge order, so it does not depend on the other
        groups.  Fewer than three hull vertices give exactly 0.
    """
    tail, head = hull_edges(x, y, group)
    owner = group[tail]
    anchor = np.searchsorted(group, owner)
    ax, ay = x[anchor], y[anchor]
    cross = (x[tail] - ax) * (y[head] - ay) - (x[head] - ax) * (y[tail] - ay)
    twice = np.bincount(owner, weights=cross, minlength=n_groups)
    n_vertices = np.bincount(owner, minlength=n_groups)
    return np.where(n_vertices >= 3, np.abs(twice) / 2.0, 0.0)


def _sorted_distinct(points: np.ndarray) -> np.ndarray:
    """Validated ``(n, 2)`` points sorted by (x, y), duplicates dropped."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeoError(f"expected an (n, 2) array, got shape {pts.shape}")
    if pts.size and not np.all(np.isfinite(pts)):
        raise GeoError("points must be finite")
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    keep = np.ones(pts.shape[0], dtype=bool)
    keep[1:] = np.any(np.diff(pts, axis=0) != 0.0, axis=1)
    return pts[keep]


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Convex hull of 2-D points: :func:`hull_edges` of one group.

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
    pts = _sorted_distinct(points)
    if pts.shape[0] <= 2:
        return pts
    tail, _ = hull_edges(pts[:, 0], pts[:, 1], np.zeros(pts.shape[0], np.intp))
    if tail.size < 3:  # fully collinear set
        return pts[[0, -1]]
    return pts[tail]


def convex_hull_area(points: np.ndarray) -> float:
    """Area of the convex hull of a 2-D point set:
    :func:`grouped_hull_areas` of one group.

    Raises:
        GeoError: if the input is not an ``(n, 2)`` array or holds
            non-finite values.
    """
    pts = _sorted_distinct(points)
    group = np.zeros(pts.shape[0], dtype=np.intp)
    return float(grouped_hull_areas(pts[:, 0], pts[:, 1], group, 1)[0])
