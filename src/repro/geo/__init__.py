"""Geometry substrate: coordinates, distances, regions, grids, hulls.

Everything geographic in the reproduction flows through this subpackage:
great-circle distances in miles, the paper's Table II region boxes, the
75-arc-minute patch grid of Section IV, the Albers projection + convex
hulls of Section VI, and the box-counting dimension estimator.
"""

from repro.geo.coords import (
    EARTH_RADIUS_KM,
    EARTH_RADIUS_MILES,
    GeoPoint,
    arrays_to_points,
    distinct_points,
    normalize_longitude,
    points_to_arrays,
    validate_latitude,
    validate_longitude,
)
from repro.geo.distance import (
    great_circle_miles,
    haversine_miles,
    link_lengths_miles,
    pairwise_distance_matrix,
)
from repro.geo.fractal import BoxCountResult, box_counting_dimension
from repro.geo.grid import PAPER_PATCH_ARCMIN, PatchGrid, joint_tally
from repro.geo.hull import convex_hull, convex_hull_area, grouped_hull_areas
from repro.geo.projection import (
    WORLD_ALBERS,
    AlbersEqualArea,
    equirectangular_miles,
)
from repro.geo.regions import (
    ECONOMIC_REGIONS,
    EUROPE,
    HOMOGENEITY_REGIONS,
    JAPAN,
    STUDY_REGIONS,
    US,
    WORLD,
    Region,
    region_by_name,
)

__all__ = [
    "EARTH_RADIUS_KM",
    "EARTH_RADIUS_MILES",
    "GeoPoint",
    "arrays_to_points",
    "distinct_points",
    "normalize_longitude",
    "points_to_arrays",
    "validate_latitude",
    "validate_longitude",
    "great_circle_miles",
    "haversine_miles",
    "link_lengths_miles",
    "pairwise_distance_matrix",
    "BoxCountResult",
    "box_counting_dimension",
    "PAPER_PATCH_ARCMIN",
    "PatchGrid",
    "joint_tally",
    "convex_hull",
    "convex_hull_area",
    "grouped_hull_areas",
    "WORLD_ALBERS",
    "AlbersEqualArea",
    "equirectangular_miles",
    "ECONOMIC_REGIONS",
    "EUROPE",
    "HOMOGENEITY_REGIONS",
    "JAPAN",
    "STUDY_REGIONS",
    "US",
    "WORLD",
    "Region",
    "region_by_name",
]
