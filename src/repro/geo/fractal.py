"""Box-counting fractal dimension of planar point sets.

Section II of the paper notes that the authors confirmed Yook, Jeong and
Barabasi's result that routers, ASes, and population density share a
fractal dimension of about 1.5, via the box-counting method.  This module
implements that estimator (experiment X1 in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.arrays import distinct
from repro.errors import AnalysisError
from repro.geo.coords import distinct_points

if TYPE_CHECKING:  # deferred: core.stats imports analysis modules that
    # themselves need repro.geo, so a module-level import would be cyclic.
    from repro.core.stats import LinearFit


@dataclass(frozen=True, slots=True)
class BoxCountResult:
    """Result of a box-counting sweep.

    Attributes:
        box_sizes: box edge lengths used, in the input's units.
        counts: number of occupied boxes at each size.
        dimension: estimated fractal dimension (negative slope of
            log(count) vs log(size)).
        fit: the underlying least-squares fit on log-log axes.
    """

    box_sizes: np.ndarray
    counts: np.ndarray
    dimension: float
    fit: "LinearFit"


def _occupied_boxes(x: np.ndarray, y: np.ndarray, box: float) -> int:
    """Number of distinct ``box``-sized grid cells containing a point."""
    ix = np.floor(x / box).astype(np.int64)
    iy = np.floor(y / box).astype(np.int64)
    # Combine into a single key; ranges are small enough not to overflow.
    keys = ix * 2_000_003 + iy
    return int(distinct(keys).size)


def box_counting_dimension(
    x: np.ndarray,
    y: np.ndarray,
    n_scales: int = 12,
    min_boxes_per_side: int = 4,
) -> BoxCountResult:
    """Estimate the box-counting (Minkowski) dimension of a point set.

    Box sizes sweep geometrically from the full extent divided by
    ``min_boxes_per_side`` down by factors of two for ``n_scales`` scales,
    stopping early once boxes would isolate individual points.

    Raises:
        AnalysisError: if fewer than 10 points are supplied or the point
            set has zero extent.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise AnalysisError("x and y must be equal-length 1-D arrays")
    if x.size < 10:
        raise AnalysisError(f"need at least 10 points, got {x.size}")
    extent = max(float(np.ptp(x)), float(np.ptp(y)))
    if extent <= 0:
        raise AnalysisError("point set has zero spatial extent")
    x = x - x.min()
    y = y - y.min()
    # Saturation level: the number of *distinct* points.  City-snapped
    # locations collapse many points onto one coordinate, and once every
    # distinct point sits in its own box, finer scales only flatten the
    # curve and bias the slope toward zero.
    n_distinct = int(distinct_points(x, y)[0].size)

    sizes: list[float] = []
    counts: list[int] = []
    box = extent / float(min_boxes_per_side)
    for _ in range(n_scales):
        occupied = _occupied_boxes(x, y, box)
        sizes.append(box)
        counts.append(occupied)
        if occupied >= 0.75 * n_distinct:
            break
        box /= 2.0

    from repro.core.stats import least_squares_fit

    if len(sizes) < 3:
        raise AnalysisError("not enough usable scales for a dimension fit")
    log_sizes = np.log10(np.asarray(sizes))
    log_counts = np.log10(np.asarray(counts, dtype=float))
    fit = least_squares_fit(log_sizes, log_counts)
    return BoxCountResult(
        box_sizes=np.asarray(sizes),
        counts=np.asarray(counts),
        dimension=-fit.slope,
        fit=fit,
    )
