"""Tests for repro.geo.hull: the grouped monotone-chain kernel
(``hull_edges``, ``grouped_hull_areas``) and its one-group wrappers
``convex_hull`` and ``convex_hull_area``."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from repro.errors import GeoError
from repro.geo.hull import (
    convex_hull,
    convex_hull_area,
    grouped_hull_areas,
    hull_edges,
)
from repro.geo.projection import WORLD_ALBERS

coords = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
point_sets = st.lists(st.tuples(coords, coords), min_size=0, max_size=60)
#: Small integers make duplicates and collinear triples common.
rough_coords = st.one_of(st.integers(-4, 4).map(float), coords)
rough_sets = st.lists(st.tuples(rough_coords, rough_coords), max_size=12)

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
TRIANGLE = [(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)]


def _pack(point_sets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel input: every set's distinct points sorted by (set, x, y)."""
    parts = [
        np.unique(np.asarray(pts, dtype=float).reshape(-1, 2) + 0.0, axis=0)
        for pts in point_sets
    ]
    pts = np.concatenate([np.empty((0, 2)), *parts])
    group = np.repeat(np.arange(len(parts)), [p.shape[0] for p in parts])
    return pts[:, 0], pts[:, 1], group


def _areas(point_sets) -> np.ndarray:
    return grouped_hull_areas(*_pack(point_sets), len(point_sets))


def _monotone_chain(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Andrew's monotone chain, one point at a time: the reference."""
    pts = sorted(set(points))
    chains = []
    for walk in (pts, pts[::-1]):
        chain: list[tuple[float, float]] = []
        for p in walk:
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


def _in_general_position(pts: np.ndarray) -> bool:
    """No three points closer to collinear than a 1e-6 sine."""
    for a, b, c in itertools.combinations(pts, 3):
        u, v = b - a, c - a
        cross = u[0] * v[1] - u[1] * v[0]
        if abs(cross) <= 1e-6 * np.hypot(*u) * np.hypot(*v):
            return False
    return True


class TestConvexHull:
    def test_unit_square(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
        hull = convex_hull(pts)
        assert hull.shape[0] == 4
        assert {tuple(v) for v in hull} == {(0, 0), (1, 0), (1, 1), (0, 1)}

    def test_single_point(self):
        hull = convex_hull(np.array([[3.0, 4.0]]))
        assert hull.shape == (1, 2)

    def test_two_points(self):
        hull = convex_hull(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert hull.shape == (2, 2)

    def test_duplicates_collapse(self):
        hull = convex_hull(np.array([[1.0, 1.0]] * 5))
        assert hull.shape == (1, 2)

    def test_collinear_points_return_extremes(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        hull = convex_hull(pts)
        assert hull.shape == (2, 2)
        assert {tuple(v) for v in hull} == {(0.0, 0.0), (3.0, 3.0)}

    def test_empty_input(self):
        assert convex_hull(np.empty((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("tiny", [7.77e-175, 1e-20])
    def test_rounded_turns_keep_true_vertex(self, tiny):
        pts = np.array([[0.0, 0.0], [0.0, tiny], [0.0, -1.0], [1.0, 0.0], [1.0, -1.0]])
        hull = convex_hull(pts)
        assert hull.tolist() == [[0.0, -1.0], [1.0, -1.0], [1.0, 0.0], [0.0, tiny]]
        assert convex_hull_area(pts) == ConvexHull(pts).volume == 1.0

    def test_bad_shape_raises(self):
        with pytest.raises(GeoError):
            convex_hull(np.zeros((3, 3)))

    def test_non_finite_raises(self):
        with pytest.raises(GeoError):
            convex_hull(np.array([[np.nan, 0.0]]))

    @settings(max_examples=60)
    @given(point_sets)
    # Two adjacent chain points whose cross products both round to <= 0:
    # dropping both in one pass lost the true vertex (0, 7.77e-175).
    @example([(0.0, 0.0), (0.0, 7.77e-175), (0.0, -1.0), (1.0, 0.0), (1.0, -1.0)])
    def test_hull_contains_all_points(self, raw):
        pts = np.asarray(raw, dtype=float).reshape(-1, 2)
        hull = convex_hull(pts)
        if hull.shape[0] < 3:
            return
        # Every input point must be inside or on the hull: check via
        # cross products against each hull edge (hull is CCW).
        for p in pts:
            for i in range(hull.shape[0]):
                a = hull[i]
                b = hull[(i + 1) % hull.shape[0]]
                cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                assert cross >= -1e-6 * max(1.0, abs(cross))

    @settings(max_examples=60)
    @given(point_sets)
    def test_hull_vertices_are_input_points(self, raw):
        pts = np.asarray(raw, dtype=float).reshape(-1, 2)
        hull = convex_hull(pts)
        input_set = {tuple(p) for p in pts}
        for v in hull:
            assert tuple(v) in input_set


class TestPolygonArea:
    """Shoelace areas of convex polygons: a convex polygon is its own
    hull, so ``convex_hull_area`` of its vertices is its area."""

    def test_unit_square_area(self):
        assert convex_hull_area(np.array(SQUARE)) == pytest.approx(1.0)

    def test_triangle_area(self):
        assert convex_hull_area(np.array(TRIANGLE)) == pytest.approx(6.0)

    def test_orientation_invariance(self):
        square = np.array(SQUARE)
        assert convex_hull_area(square[::-1]) == convex_hull_area(square)

    def test_degenerate_inputs_are_zero(self):
        assert convex_hull_area(np.empty((0, 2))) == 0.0
        assert convex_hull_area(np.array([[1.0, 1.0]])) == 0.0
        assert convex_hull_area(np.array([[0.0, 0.0], [1.0, 1.0]])) == 0.0


class TestConvexHullArea:
    def test_square_with_interior_points(self):
        rng = np.random.default_rng(5)
        interior = rng.uniform(0.1, 0.9, size=(50, 2))
        corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        pts = np.vstack([interior, corners])
        assert convex_hull_area(pts) == pytest.approx(1.0)

    def test_one_or_two_locations_have_zero_extent(self):
        # The paper: ~80% of ASes sit at one or two locations and "have
        # no extent at all".
        assert convex_hull_area(np.array([[5.0, 5.0]])) == 0.0
        assert convex_hull_area(np.array([[0.0, 0.0], [100.0, 100.0]])) == 0.0

    @settings(max_examples=60)
    @given(point_sets)
    def test_area_non_negative_and_bounded_by_bbox(self, raw):
        pts = np.asarray(raw, dtype=float).reshape(-1, 2)
        area = convex_hull_area(pts)
        assert area >= 0.0
        if pts.shape[0]:
            bbox = np.ptp(pts[:, 0]) * np.ptp(pts[:, 1])
            assert area <= bbox + 1e-6

    @settings(max_examples=40)
    @given(point_sets, coords, coords)
    def test_translation_invariance(self, raw, dx, dy):
        pts = np.asarray(raw, dtype=float).reshape(-1, 2)
        a1 = convex_hull_area(pts)
        a2 = convex_hull_area(pts + np.array([dx, dy]))
        assert a1 == pytest.approx(a2, rel=1e-6, abs=1e-6)


class TestGroupedHull:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 9), min_size=1, max_size=8),
    )
    def test_areas_match_scipy_in_general_position(self, seed, sizes):
        rng = np.random.default_rng(seed)
        points = (
            rng.uniform(-1e4, 1e4, size=2)
            + 10 ** rng.uniform(0, 4) * rng.uniform(-1, 1, size=(sum(sizes), 2))
        )
        sets = np.split(points, np.cumsum(sizes)[:-1])
        assume(all(_in_general_position(pts) for pts in sets))
        for pts, area in zip(sets, _areas(sets)):
            if pts.shape[0] < 3:
                assert area == 0.0
            else:
                assert area == pytest.approx(ConvexHull(pts).volume, rel=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(rough_sets, max_size=4), rough_sets, st.lists(rough_sets, max_size=4))
    def test_group_does_not_depend_on_its_neighbours(self, before, target, after):
        x, y, group = _pack([target])
        solo_tail, solo_head = hull_edges(x, y, group)
        solo_area = grouped_hull_areas(x, y, group, 1)[0]
        x, y, group = _pack([*before, target, *after])
        tail, head = hull_edges(x, y, group)
        mine = group[tail] == len(before)
        offset = np.searchsorted(group, len(before))
        assert (tail[mine] - offset).tolist() == solo_tail.tolist()
        assert (head[mine] - offset).tolist() == solo_head.tolist()
        areas = grouped_hull_areas(x, y, group, len(before) + 1 + len(after))
        assert areas[len(before)] == solo_area

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=15
            ),
            max_size=5,
        )
    )
    def test_vertices_match_sequential_monotone_chain(self, sets):
        # Integer coordinates: every cross product is exact, so the
        # kernel and the one-at-a-time chain must keep the same points.
        x, y, group = _pack(sets)
        tail, _ = hull_edges(x, y, group)
        for g, pts in enumerate(sets):
            mine = tail[group[tail] == g]
            got = list(zip(x[mine].tolist(), y[mine].tolist()))
            ref = _monotone_chain([(float(a), float(b)) for a, b in pts])
            assert got == ref

    def test_empty_input(self):
        empty = np.empty(0)
        no_group = np.empty(0, dtype=np.intp)
        tail, head = hull_edges(empty, empty, no_group)
        assert tail.size == head.size == 0
        assert grouped_hull_areas(empty, empty, no_group, 0).shape == (0,)
        assert grouped_hull_areas(empty, empty, no_group, 2).tolist() == [0.0, 0.0]

    def test_one_and_two_point_groups_have_zero_area(self):
        areas = _areas([[(1.0, 1.0)], [(0.0, 0.0), (5.0, 2.0)], TRIANGLE])
        assert areas.tolist() == [0.0, 0.0, 6.0]

    def test_collinear_group_between_non_degenerate_groups(self):
        line = [(float(i), float(i)) for i in range(5)]
        x, y, group = _pack([SQUARE, line, TRIANGLE])
        tail, _ = hull_edges(x, y, group)
        assert np.bincount(group[tail]).tolist() == [4, 2, 3]
        assert grouped_hull_areas(x, y, group, 3).tolist() == [1.0, 0.0, 6.0]

    def test_points_on_edges_are_not_vertices(self):
        midpoints = [(0.5, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 0.5), (0.5, 0.5)]
        x, y, group = _pack([SQUARE + midpoints])
        tail, _ = hull_edges(x, y, group)
        got = list(zip(x[tail].tolist(), y[tail].tolist()))
        assert got == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

    def test_duplicate_points(self):
        dup = np.array(TRIANGLE * 3 + [(1.0, 1.0)] * 4)
        assert convex_hull_area(dup) == convex_hull_area(np.array(TRIANGLE)) == 6.0

    def test_meridian_points_between_other_groups(self):
        # A meridian projects onto one straight line, so its hull is a
        # sliver whose area is rounding only.
        lats = np.linspace(-60.0, 70.0, 9)
        x, y = WORLD_ALBERS.project(lats, np.full(lats.size, -95.0))
        meridian = np.column_stack([x, y])
        solo = _areas([meridian])[0]
        assert solo < 1e-6
        assert _areas([SQUARE, meridian, TRIANGLE]).tolist() == [1.0, solo, 6.0]
