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

    Each element of a converted array equals the same value converted
    alone (numpy's elementwise functions do not depend on an element's
    place in its array; ``tests/test_geo_distance.py`` checks this), so
    one point's operands may be taken from its array's.
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
    # Clamp against tiny negative / >1 values from rounding (np.clip's
    # result, without its Python-level dispatch on every call).
    a = np.minimum(np.maximum(a, 0.0), 1.0)
    central = 2.0 * np.arcsin(np.sqrt(a))
    return EARTH_RADIUS_MILES * central


def haversine_matrix_radians(sources: tuple, targets: tuple) -> np.ndarray:
    """Miles from each source (rows) to each target (columns).

    Both arguments are :func:`haversine_operands` of 1-D arrays.  Row
    ``i`` is bitwise equal to :func:`haversine_miles_radians` of source
    ``i``'s operands against ``targets``, computed for all rows at once.
    """
    return haversine_miles_radians(*(op[:, None] for op in sources), *targets)


class HaversineRows:
    """Miles from one point of a set to every point of it, a row at a time.

    ``row(i)`` is bitwise equal to :func:`haversine_miles_radians` of
    point ``i``'s operands against the whole set, in fewer passes over
    it: half angles are converted once (halving is exact, so
    ``h[j] - h[i] == (r[j] - r[i]) / 2``), ``2 * R`` is one factor
    (scaling by 2 is exact too), and with latitudes within [-90, 90] the
    haversine term is a sum of non-negative products, so only its upper
    clamp can act.  Each row is written into one buffer, which the next
    call overwrites.
    """

    def __init__(self, lats: np.ndarray, lons: np.ndarray) -> None:
        lat_r, lon_r, self._cos_lat = haversine_operands(
            np.asarray(lats, dtype=np.float64), np.asarray(lons, dtype=np.float64)
        )
        self._lat_half = lat_r / 2.0
        self._lon_half = lon_r / 2.0
        self._row = np.empty_like(lat_r)
        self._scratch = np.empty_like(lat_r)

    def row(self, i: int) -> np.ndarray:
        """Miles from point ``i`` to every point (a reused buffer)."""
        a, b = self._row, self._scratch
        np.subtract(self._lon_half, self._lon_half[i], out=b)
        np.sin(b, out=b)
        np.square(b, out=b)
        np.multiply(self._cos_lat, self._cos_lat[i], out=a)
        np.multiply(b, a, out=b)
        np.subtract(self._lat_half, self._lat_half[i], out=a)
        np.sin(a, out=a)
        np.square(a, out=a)
        np.add(a, b, out=a)
        np.minimum(a, 1.0, out=a)
        np.sqrt(a, out=a)
        np.arcsin(a, out=a)
        np.multiply(a, 2.0 * EARTH_RADIUS_MILES, out=a)
        return a


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
