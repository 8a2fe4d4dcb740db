"""Geographic coordinates.

The library works in degrees latitude/longitude on a spherical Earth.
:class:`GeoPoint` is the scalar coordinate type; bulk operations accept
parallel numpy arrays of latitudes and longitudes (in degrees) instead,
because analyses routinely handle hundreds of thousands of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import GeoError

#: Mean Earth radius in statute miles (the paper reports miles throughout).
EARTH_RADIUS_MILES = 3958.7613
#: Mean Earth radius in kilometres.
EARTH_RADIUS_KM = 6371.0088
#: Miles per kilometre.
MILES_PER_KM = 0.621371192


def validate_latitude(lat: float) -> float:
    """Return ``lat`` if it is a valid latitude in degrees, else raise.

    Raises:
        GeoError: if ``lat`` is not finite or outside [-90, 90].
    """
    if not math.isfinite(lat):
        raise GeoError(f"latitude must be finite, got {lat!r}")
    if lat < -90.0 or lat > 90.0:
        raise GeoError(f"latitude must be in [-90, 90], got {lat!r}")
    return float(lat)


def validate_longitude(lon: float) -> float:
    """Return ``lon`` if it is a valid longitude in degrees, else raise.

    Raises:
        GeoError: if ``lon`` is not finite or outside [-180, 180].
    """
    if not math.isfinite(lon):
        raise GeoError(f"longitude must be finite, got {lon!r}")
    if lon < -180.0 or lon > 180.0:
        raise GeoError(f"longitude must be in [-180, 180], got {lon!r}")
    return float(lon)


def normalize_longitude(lon: float) -> float:
    """Wrap an arbitrary finite longitude into [-180, 180)."""
    if not math.isfinite(lon):
        raise GeoError(f"longitude must be finite, got {lon!r}")
    wrapped = math.fmod(lon + 180.0, 360.0)
    if wrapped < 0:
        wrapped += 360.0
    return wrapped - 180.0


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A point on the Earth's surface, in degrees.

    Attributes:
        lat: latitude in degrees, in [-90, 90].
        lon: longitude in degrees, in [-180, 180].
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        validate_latitude(self.lat)
        validate_longitude(self.lon)

    def rounded(self, decimals: int = 1) -> "GeoPoint":
        """Return this point rounded to ``decimals`` decimal degrees.

        Used to define "distinct locations" when counting how many places
        an AS occupies (Section VI of the paper): two interfaces share a
        location if their rounded coordinates coincide.
        """
        return GeoPoint(round(self.lat, decimals), round(self.lon, decimals))

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(lat, lon)``."""
        return (self.lat, self.lon)


def points_to_arrays(points: list[GeoPoint]) -> tuple[np.ndarray, np.ndarray]:
    """Convert a list of :class:`GeoPoint` to ``(lats, lons)`` arrays."""
    if not points:
        return np.empty(0, dtype=float), np.empty(0, dtype=float)
    lats = np.fromiter((p.lat for p in points), dtype=float, count=len(points))
    lons = np.fromiter((p.lon for p in points), dtype=float, count=len(points))
    return lats, lons


def distinct_points(
    lats: np.ndarray, lons: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``(lat, lon)`` points of parallel coordinate arrays.

    Equal to ``np.unique(np.column_stack((lats, lons)), axis=0,
    return_counts=True)`` (lexicographic order; ``0.0`` and ``-0.0`` are
    one point), but by one ``np.lexsort`` and a scan for run boundaries
    instead of a structured-row sort.

    Returns:
        ``(point_lats, point_lons, counts, inverse)``: the points in
        lexicographic order, how many inputs each stands for, and the
        index of each input's point.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    n = lats.size
    order = np.lexsort((lons, lats))
    sorted_lats = lats[order]
    sorted_lons = lons[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (sorted_lats[1:] != sorted_lats[:-1]) | (
        sorted_lons[1:] != sorted_lons[:-1]
    )
    first = np.flatnonzero(starts)
    counts = np.diff(np.append(first, n))
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return sorted_lats[first], sorted_lons[first], counts, inverse


def arrays_to_points(lats: np.ndarray, lons: np.ndarray) -> list[GeoPoint]:
    """Convert parallel coordinate arrays into a list of :class:`GeoPoint`.

    Raises:
        GeoError: if the arrays differ in length or hold invalid values.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    if lats.shape != lons.shape or lats.ndim != 1:
        raise GeoError(
            f"expected equal-length 1-D arrays, got {lats.shape} and {lons.shape}"
        )
    return [GeoPoint(float(lat), float(lon)) for lat, lon in zip(lats, lons)]
