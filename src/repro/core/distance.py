"""Section V: links and distance — the distance preference function.

The empirical distance preference function is

    f_hat(d) = (# links with length in [d, d+b)) /
               (# node pairs with distance in [d, d+b))

estimated over 100 bins per region (paper bin sizes: 35 mi US, 15 mi
Europe, 11 mi Japan).  Its small-``d`` portion is exponentially
decaying — a Waxman form ``beta * exp(-d / L)`` whose scale ``L`` we
recover by a semi-log fit (Figure 5) — while its large-``d`` portion is
flat, verified through the cumulated function ``F(d)`` being linear
(Figure 6).  Equating the exponential fit with the large-``d`` mean
yields the *limit of distance sensitivity* and the fraction of links
below it (Table V: 75-95%).

Pair counts are exact at every size: the mappers place nodes at few
distinct points, so :func:`pair_counts` takes pair distances between
distinct locations and weights each by the product of the two points'
node counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.stats import LinearFit, least_squares_fit, semilog_fit
from repro.datasets.mapped import MappedDataset
from repro.errors import AnalysisError
from repro.geo.coords import distinct_points
from repro.geo.distance import haversine_miles
from repro.geo.regions import Region

#: Paper bin sizes per study region name (miles).
PAPER_BIN_MILES = {"US": 35.0, "Europe": 15.0, "Japan": 11.0}
#: Default number of bins (the paper uses 100 per region).
N_BINS = 100
#: Rows of distinct points per haversine block in :func:`pair_counts`.
PAIR_CHUNK = 512


@dataclass(frozen=True)
class DistancePreference:
    """The estimated f_hat(d) for one region.

    Attributes:
        region: region name.
        bin_miles: bin width b.
        bin_left: left edge of each bin (d values, multiples of b).
        link_counts: links per bin (numerator).
        pair_counts: node pairs per bin (denominator).
        f_hat: link_counts / pair_counts (NaN where no pairs).
        n_nodes: nodes in the region.
        link_lengths: lengths of all region links (for Table V fractions).
    """

    region: str
    bin_miles: float
    bin_left: np.ndarray
    link_counts: np.ndarray
    pair_counts: np.ndarray
    f_hat: np.ndarray
    n_nodes: int
    link_lengths: np.ndarray

    def valid_bins(self) -> np.ndarray:
        """Indices of bins with a meaningful estimate (pairs and links >= 0)."""
        return np.flatnonzero(self.pair_counts > 0)

    def populated_extent(self) -> int:
        """Number of leading bins up to the last one containing any pair.

        Bins beyond the region's diameter hold no pairs at all; analyses
        must not treat them as evidence of a flat (zero) tail.
        """
        populated = np.flatnonzero(self.pair_counts > 0)
        if populated.size == 0:
            raise AnalysisError("no distance bin contains any node pair")
        return int(populated[-1]) + 1


def pair_counts(
    lats: np.ndarray, lons: np.ndarray, bin_miles: float, n_bins: int
) -> np.ndarray:
    """Exact node-pair counts per distance bin, taken over distinct points.

    Nodes are grouped by their ``(lat, lon)``; the distance between two
    distinct points counts ``w_i * w_j`` pairs and the ``w * (w - 1) / 2``
    pairs within one point lie at distance zero, in bin 0.  Binning uses
    the ``np.histogram`` edges of the link histogram with integer
    weights, so the result equals a per-pair count exactly: haversine
    is bitwise symmetric, so which end of a pair comes first does not
    change its bin.
    """
    if bin_miles <= 0:
        raise AnalysisError("bin_miles must be positive")
    counts = np.zeros(n_bins, dtype=np.int64)
    if lats.shape[0] < 2 or n_bins == 0:
        return counts
    plats, plons, weights, _ = distinct_points(lats, lons)
    weights = weights.astype(np.int64)
    counts[0] += int(np.sum(weights * (weights - 1) // 2))
    m = plats.size
    edges = np.arange(n_bins + 1, dtype=float) * bin_miles
    for start in range(0, m - 1, PAIR_CHUNK):
        stop = min(start + PAIR_CHUNK, m)
        # Distances from this block of points to every later point.
        block = haversine_miles(
            plats[start:stop, None], plons[start:stop, None],
            plats[None, start:], plons[None, start:],
        )
        upper = np.arange(start, m)[None, :] > np.arange(start, stop)[:, None]
        w = weights[start:stop, None] * weights[None, start:]
        hist, _ = np.histogram(block[upper], bins=edges, weights=w[upper])
        counts += hist
    return counts


def f_hat_at(pref: DistancePreference, d: float) -> float | None:
    """``f_hat`` evaluated at distance ``d`` (None where unpopulated).

    Shared by :meth:`repro.serve.index.SnapshotIndex.f_of_d` and the
    cluster coordinator so the one-value form of the preference
    endpoint answers identically on both paths.
    """
    b = int(d // pref.bin_miles)
    if b >= pref.f_hat.size or pref.pair_counts[b] == 0:
        return None
    value = float(pref.f_hat[b])
    return value if np.isfinite(value) else None


def preference_function(
    dataset: MappedDataset,
    region: Region,
    bin_miles: float,
    n_bins: int = N_BINS,
) -> DistancePreference:
    """Estimate f_hat(d) for a dataset restricted to a region.

    Raises:
        AnalysisError: for empty regions or invalid parameters.
    """
    if bin_miles <= 0 or n_bins < 10:
        raise AnalysisError("bin_miles must be positive and n_bins >= 10")
    sub = dataset.restrict(region)
    if sub.n_nodes < 10:
        raise AnalysisError(
            f"region {region.name!r} has only {sub.n_nodes} mapped nodes"
        )
    lengths = sub.link_lengths()
    edges = np.arange(n_bins + 1, dtype=float) * bin_miles
    link_counts, _ = np.histogram(lengths, bins=edges)
    pairs = pair_counts(sub.lats, sub.lons, bin_miles, n_bins)
    with np.errstate(divide="ignore", invalid="ignore"):
        f_hat = np.where(pairs > 0, link_counts / pairs, np.nan)
    return DistancePreference(
        region=region.name,
        bin_miles=float(bin_miles),
        bin_left=edges[:-1],
        link_counts=link_counts.astype(np.int64),
        pair_counts=pairs,
        f_hat=f_hat,
        n_nodes=sub.n_nodes,
        link_lengths=lengths,
    )


@dataclass(frozen=True)
class WaxmanFit:
    """Figure 5: the small-d exponential fit.

    Attributes:
        fit: OLS of ln f_hat(d) against d over the small-d window.
        l_miles: recovered Waxman scale L = -1 / slope.
        small_d_max: right edge of the window used.
    """

    fit: LinearFit
    l_miles: float
    small_d_max: float


def waxman_fit(
    pref: DistancePreference, small_d_max: float | None = None
) -> WaxmanFit:
    """Fit the exponentially decaying small-d regime.

    The window defaults to the first twenty bins or d <= 320 miles,
    whichever is smaller — bracketing the ranges the paper plots in
    Figure 5 across its three regions (250/300/200 miles).

    Raises:
        AnalysisError: when the window holds fewer than 3 usable bins or
            the fitted slope is not negative (no decay to speak of).
    """
    if small_d_max is None:
        small_d_max = float(min(20 * pref.bin_miles, 320.0))
    window = (
        (pref.bin_left < small_d_max)
        & (pref.pair_counts > 0)
        & (pref.link_counts > 0)
    )
    if int(window.sum()) < 3:
        raise AnalysisError("not enough usable small-d bins for a Waxman fit")
    # Bin centres are the natural abscissae for a density estimate.
    x = pref.bin_left[window] + pref.bin_miles / 2.0
    y = pref.f_hat[window]
    fit = semilog_fit(x, y)
    if fit.slope >= 0:
        raise AnalysisError(
            f"small-d regime is not decaying (slope {fit.slope:.3g})"
        )
    return WaxmanFit(fit=fit, l_miles=-1.0 / fit.slope, small_d_max=small_d_max)


@dataclass(frozen=True)
class CumulatedPreference:
    """Figure 6: the cumulated function F(d) over the large-d regime.

    Attributes:
        d: right edges of cumulated bins.
        big_f: F(d) = sum of f_hat over bins below d.
        large_d_fit: OLS line over the large-d half; high r-squared means
            f(d) is flat there.
    """

    d: np.ndarray
    big_f: np.ndarray
    large_d_fit: LinearFit


def cumulated_preference(
    pref: DistancePreference, large_d_from: float | None = None
) -> CumulatedPreference:
    """Cumulate f_hat and fit the large-d portion linearly.

    Raises:
        AnalysisError: if fewer than 3 bins lie beyond ``large_d_from``.
    """
    extent = pref.populated_extent()
    usable = pref.pair_counts[:extent] > 0
    f_filled = np.where(usable, np.nan_to_num(pref.f_hat[:extent]), 0.0)
    big_f = np.cumsum(f_filled)
    d_right = pref.bin_left[:extent] + pref.bin_miles
    if large_d_from is None:
        large_d_from = float(d_right[-1] / 2.0)
    window = d_right >= large_d_from
    if int(window.sum()) < 3:
        raise AnalysisError("not enough large-d bins for the linear fit")
    fit = least_squares_fit(d_right[window], big_f[window])
    return CumulatedPreference(d=d_right, big_f=big_f, large_d_fit=fit)


@dataclass(frozen=True)
class SensitivityLimit:
    """One Table V row: the limit of distance sensitivity.

    Attributes:
        region: region name.
        limit_miles: distance where the exponential fit meets the
            large-d mean.
        fraction_below: fraction of region links shorter than the limit.
        waxman: the small-d fit used.
        large_d_mean: mean f_hat over the flat regime.
    """

    region: str
    limit_miles: float
    fraction_below: float
    waxman: WaxmanFit
    large_d_mean: float


def sensitivity_limit(
    pref: DistancePreference, small_d_max: float | None = None
) -> SensitivityLimit:
    """Table V: where distance sensitivity ends, and how many links it covers.

    Raises:
        AnalysisError: when either regime cannot be characterised or the
            fitted curves never intersect at a positive distance.
    """
    wax = waxman_fit(pref, small_d_max=small_d_max)
    extent = pref.populated_extent()
    d_right = pref.bin_left + pref.bin_miles
    tail = (
        (d_right >= d_right[extent - 1] / 2.0)
        & (d_right <= d_right[extent - 1])
        & (pref.pair_counts > 0)
    )
    tail_values = pref.f_hat[tail]
    tail_values = tail_values[np.isfinite(tail_values)]
    if tail_values.size < 3:
        raise AnalysisError("not enough large-d bins to estimate the flat level")
    large_mean = float(tail_values.mean())
    if large_mean <= 0:
        raise AnalysisError("large-d mean is zero; no flat regime to intersect")
    # Solve exp(intercept + slope d) = large_mean for d.
    limit = (np.log(large_mean) - wax.fit.intercept) / wax.fit.slope
    if not np.isfinite(limit) or limit <= 0:
        raise AnalysisError("exponential fit never reaches the large-d level")
    if pref.link_lengths.size == 0:
        raise AnalysisError("region has no links")
    fraction = float(np.mean(pref.link_lengths < limit))
    return SensitivityLimit(
        region=pref.region,
        limit_miles=float(limit),
        fraction_below=fraction,
        waxman=wax,
        large_d_mean=large_mean,
    )
