"""Tests for repro.geo.coords."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeoError
from repro.geo.coords import (
    GeoPoint,
    arrays_to_points,
    distinct_points,
    normalize_longitude,
    points_to_arrays,
    validate_latitude,
    validate_longitude,
)

latitudes = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
longitudes = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)


class TestValidation:
    def test_valid_latitude_passes_through(self):
        assert validate_latitude(45.5) == 45.5

    def test_boundary_latitudes_accepted(self):
        assert validate_latitude(90.0) == 90.0
        assert validate_latitude(-90.0) == -90.0

    def test_latitude_out_of_range_raises(self):
        with pytest.raises(GeoError):
            validate_latitude(90.1)
        with pytest.raises(GeoError):
            validate_latitude(-90.0001)

    def test_latitude_nan_raises(self):
        with pytest.raises(GeoError):
            validate_latitude(float("nan"))

    def test_latitude_inf_raises(self):
        with pytest.raises(GeoError):
            validate_latitude(float("inf"))

    def test_longitude_out_of_range_raises(self):
        with pytest.raises(GeoError):
            validate_longitude(180.5)
        with pytest.raises(GeoError):
            validate_longitude(-181.0)

    def test_longitude_nan_raises(self):
        with pytest.raises(GeoError):
            validate_longitude(float("nan"))


class TestNormalizeLongitude:
    def test_identity_in_range(self):
        assert normalize_longitude(10.0) == pytest.approx(10.0)

    def test_wraps_positive_overflow(self):
        assert normalize_longitude(190.0) == pytest.approx(-170.0)

    def test_wraps_negative_overflow(self):
        assert normalize_longitude(-190.0) == pytest.approx(170.0)

    def test_wraps_multiple_revolutions(self):
        assert normalize_longitude(370.0 + 720.0) == pytest.approx(10.0)

    def test_non_finite_raises(self):
        with pytest.raises(GeoError):
            normalize_longitude(float("inf"))

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_always_lands_in_range(self, lon):
        wrapped = normalize_longitude(lon)
        assert -180.0 <= wrapped < 180.0

    @given(st.floats(min_value=-1e5, max_value=1e5, allow_nan=False))
    def test_wrap_preserves_angle_mod_360(self, lon):
        wrapped = normalize_longitude(lon)
        assert math.isclose(
            math.cos(math.radians(wrapped)), math.cos(math.radians(lon)),
            abs_tol=1e-6,
        )


class TestGeoPoint:
    def test_construction_stores_coordinates(self):
        p = GeoPoint(40.7, -74.0)
        assert p.lat == 40.7
        assert p.lon == -74.0

    def test_invalid_latitude_rejected(self):
        with pytest.raises(GeoError):
            GeoPoint(91.0, 0.0)

    def test_invalid_longitude_rejected(self):
        with pytest.raises(GeoError):
            GeoPoint(0.0, 181.0)

    def test_points_are_hashable_and_equal_by_value(self):
        assert GeoPoint(1.0, 2.0) == GeoPoint(1.0, 2.0)
        assert len({GeoPoint(1.0, 2.0), GeoPoint(1.0, 2.0)}) == 1

    def test_rounded_groups_nearby_points(self):
        a = GeoPoint(40.7128, -74.0060).rounded(1)
        b = GeoPoint(40.7306, -73.9866).rounded(1)
        assert a == GeoPoint(40.7, -74.0)
        assert b == GeoPoint(40.7, -74.0)

    def test_rounded_separates_distant_points(self):
        a = GeoPoint(40.7, -74.0).rounded(1)
        b = GeoPoint(41.9, -87.6).rounded(1)
        assert a != b

    def test_as_tuple(self):
        assert GeoPoint(5.0, 6.0).as_tuple() == (5.0, 6.0)

    @given(latitudes, longitudes)
    def test_any_valid_pair_constructs(self, lat, lon):
        p = GeoPoint(lat, lon)
        assert p.lat == lat and p.lon == lon


class TestArrayConversion:
    def test_round_trip(self):
        points = [GeoPoint(10.0, 20.0), GeoPoint(-5.0, 30.0)]
        lats, lons = points_to_arrays(points)
        assert arrays_to_points(lats, lons) == points

    def test_empty_list_gives_empty_arrays(self):
        lats, lons = points_to_arrays([])
        assert lats.shape == (0,) and lons.shape == (0,)

    def test_mismatched_arrays_raise(self):
        with pytest.raises(GeoError):
            arrays_to_points(np.zeros(3), np.zeros(2))

    def test_invalid_values_raise(self):
        with pytest.raises(GeoError):
            arrays_to_points(np.array([95.0]), np.array([0.0]))


def _assert_matches_np_unique(lats, lons):
    point_lats, point_lons, counts, inverse = distinct_points(lats, lons)
    want, want_counts = np.unique(
        np.column_stack((lats, lons)), axis=0, return_counts=True
    )
    assert np.array_equal(np.column_stack((point_lats, point_lons)), want)
    assert np.array_equal(counts, want_counts)
    # Every input maps back to its own point.
    assert np.array_equal(point_lats[inverse], lats)
    assert np.array_equal(point_lons[inverse], lons)


class TestDistinctPoints:
    @settings(max_examples=300)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, -0.0, 0.1, -0.1, 45.5, -90.0, 90.0]),
                st.sampled_from([0.0, -0.0, 0.15, -120.25, 180.0, -180.0]),
            ),
            max_size=60,
        )
    )
    def test_equals_np_unique_rows(self, points):
        coords = np.array(points, dtype=float).reshape(-1, 2)
        _assert_matches_np_unique(coords[:, 0], coords[:, 1])

    def test_signed_zeros_are_one_point(self):
        lats = np.array([0.0, -0.0, 0.0, -0.0, 1.0])
        lons = np.array([-0.0, 0.0, 0.0, -0.0, 1.0])
        point_lats, _, counts, inverse = distinct_points(lats, lons)
        assert point_lats.size == 2
        assert counts.tolist() == [4, 1]
        assert inverse.tolist() == [0, 0, 0, 0, 1]
        _assert_matches_np_unique(lats, lons)

    def test_random_points(self):
        rng = np.random.default_rng(3)
        lats = np.round(rng.uniform(-10, 10, 500), 0)
        lons = np.round(rng.uniform(-10, 10, 500), 0)
        _assert_matches_np_unique(lats, lons)

    def test_empty(self):
        point_lats, point_lons, counts, inverse = distinct_points(
            np.empty(0), np.empty(0)
        )
        assert point_lats.size == point_lons.size == counts.size == 0
        assert inverse.size == 0
