"""Great-circle distance on a spherical Earth.

The paper measures all link lengths and node separations as great-circle
distances in statute miles; we use the haversine formula, which is
numerically stable at both short and antipodal distances.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeoError
from repro.geo.coords import EARTH_RADIUS_MILES, GeoPoint


def haversine_miles(
    lat1: np.ndarray | float,
    lon1: np.ndarray | float,
    lat2: np.ndarray | float,
    lon2: np.ndarray | float,
) -> np.ndarray | float:
    """Great-circle distance in statute miles between coordinate pairs.

    All arguments are degrees and broadcast against each other, so the
    function works for scalars, equal-length arrays, or a scalar against
    an array.

    Returns:
        Distance(s) in miles, with the broadcast shape of the inputs.
    """
    return haversine_miles_radians(
        *haversine_operands(lat1, lon1), *haversine_operands(lat2, lon2)
    )


def haversine_operands(
    lat: np.ndarray | float, lon: np.ndarray | float
) -> tuple:
    """``(lat, lon, cos(lat))`` in radians, for :func:`haversine_miles_radians`.

    Convert a scalar as a scalar and an array as an array; an element
    taken from a converted array may differ in the last bit of its
    cosine from the same value converted alone.
    """
    lat_r = np.radians(lat)
    return lat_r, np.radians(lon), np.cos(lat_r)


def haversine_miles_radians(
    lat1r: np.ndarray | float,
    lon1r: np.ndarray | float,
    cos_lat1: np.ndarray | float,
    lat2r: np.ndarray | float,
    lon2r: np.ndarray | float,
    cos_lat2: np.ndarray | float,
) -> np.ndarray | float:
    """:func:`haversine_miles` on operands from :func:`haversine_operands`.

    Callers that measure many points against the same array convert it
    once instead of on every call.  The result is bitwise equal to
    :func:`haversine_miles` on the same degrees, provided each operand
    was converted on its own, as :func:`haversine_operands` requires.
    """
    dlat = lat2r - lat1r
    dlon = lon2r - lon1r
    # np.square is the product ``s * s`` on scalars and arrays alike;
    # numpy's scalar ``float64 ** 2`` is not correctly rounded, so with
    # it the scalar and array paths would disagree in the last bit.
    a = (
        np.square(np.sin(dlat / 2.0))
        + cos_lat1 * cos_lat2 * np.square(np.sin(dlon / 2.0))
    )
    # Clamp against tiny negative / >1 values from rounding.
    a = np.clip(a, 0.0, 1.0)
    central = 2.0 * np.arcsin(np.sqrt(a))
    return EARTH_RADIUS_MILES * central


def great_circle_miles(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in miles between two :class:`GeoPoint`."""
    return float(haversine_miles(a.lat, a.lon, b.lat, b.lon))


def pairwise_distance_matrix(lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Full n x n great-circle distance matrix in miles.

    Intended for small-to-medium point sets.  Memory is O(n^2); for
    pair-distance histograms over many nodes use
    :func:`repro.core.distance.pair_counts`, which is chunked and runs
    over distinct locations.

    Raises:
        GeoError: if the coordinate arrays are not equal-length 1-D arrays.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    if lats.shape != lons.shape or lats.ndim != 1:
        raise GeoError(
            f"expected equal-length 1-D arrays, got {lats.shape} and {lons.shape}"
        )
    return np.asarray(
        haversine_miles(lats[:, None], lons[:, None], lats[None, :], lons[None, :])
    )


def link_lengths_miles(
    lats: np.ndarray,
    lons: np.ndarray,
    endpoint_a: np.ndarray,
    endpoint_b: np.ndarray,
) -> np.ndarray:
    """Lengths in miles of links given as index pairs into coordinate arrays.

    Args:
        lats, lons: node coordinates in degrees.
        endpoint_a, endpoint_b: integer arrays of node indices, one entry
            per link.

    Raises:
        GeoError: if any index is out of range.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    a = np.asarray(endpoint_a, dtype=np.intp)
    b = np.asarray(endpoint_b, dtype=np.intp)
    n = lats.shape[0]
    if a.size and (a.min() < 0 or a.max() >= n):
        raise GeoError("link endpoint index out of range")
    if b.size and (b.min() < 0 or b.max() >= n):
        raise GeoError("link endpoint index out of range")
    return np.asarray(haversine_miles(lats[a], lons[a], lats[b], lons[b]))
