"""Tests for repro.geo.grid (75-arc-minute patch grids)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GeoError
from repro.geo.grid import PAPER_PATCH_ARCMIN, PatchGrid, joint_tally
from repro.geo.regions import US, Region


@pytest.fixture
def small_grid() -> PatchGrid:
    region = Region("unit", north=10.0, south=0.0, west=0.0, east=10.0)
    return PatchGrid(region=region, cell_arcmin=60.0)  # 1-degree cells


class TestGeometry:
    def test_paper_patch_size_constant(self):
        assert PAPER_PATCH_ARCMIN == 75.0

    def test_cell_count(self, small_grid):
        assert small_grid.n_rows == 10
        assert small_grid.n_cols == 10
        assert small_grid.n_cells == 100

    def test_non_divisible_span_rounds_up(self):
        region = Region("odd", north=10.5, south=0.0, west=0.0, east=10.0)
        grid = PatchGrid(region=region, cell_arcmin=60.0)
        assert grid.n_rows == 11

    def test_invalid_cell_size_raises(self):
        with pytest.raises(GeoError):
            PatchGrid(region=US, cell_arcmin=0.0)

    def test_us_patch_edge_is_about_90_miles(self):
        # The paper: 75' patches are "about 90 miles on a side" at US
        # latitudes.
        grid = PatchGrid(region=US)
        assert grid.cell_edge_miles() == pytest.approx(90.0, rel=0.15)


class TestCellIndex:
    def test_interior_point(self, small_grid):
        idx = small_grid.cell_index(np.array([0.5]), np.array([0.5]))
        assert idx[0] == 0

    def test_row_major_indexing(self, small_grid):
        idx = small_grid.cell_index(np.array([1.5]), np.array([2.5]))
        assert idx[0] == 1 * 10 + 2

    def test_outside_point_is_minus_one(self, small_grid):
        idx = small_grid.cell_index(np.array([-1.0]), np.array([0.5]))
        assert idx[0] == -1

    def test_north_east_boundary_snaps_to_last_cell(self, small_grid):
        idx = small_grid.cell_index(np.array([10.0]), np.array([10.0]))
        assert idx[0] == small_grid.n_cells - 1

    @given(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def test_inside_points_always_get_a_cell(self, lat, lon):
        region = Region("unit", north=10.0, south=0.0, west=0.0, east=10.0)
        grid = PatchGrid(region=region, cell_arcmin=60.0)
        idx = grid.cell_index(np.array([lat]), np.array([lon]))
        assert 0 <= idx[0] < grid.n_cells


class TestTally:
    def test_counts_sum_to_inside_points(self, small_grid):
        rng = np.random.default_rng(3)
        lats = rng.uniform(-5, 15, 200)
        lons = rng.uniform(-5, 15, 200)
        tally = small_grid.tally(lats, lons)
        inside = small_grid.region.contains_mask(lats, lons).sum()
        assert tally.sum() == inside

    def test_weighted_tally(self, small_grid):
        lats = np.array([0.5, 0.5, 5.5])
        lons = np.array([0.5, 0.5, 5.5])
        weights = np.array([2.0, 3.0, 7.0])
        tally = small_grid.tally(lats, lons, weights=weights)
        assert tally[0] == pytest.approx(5.0)
        assert tally.sum() == pytest.approx(12.0)

    def test_empty_input(self, small_grid):
        tally = small_grid.tally(np.empty(0), np.empty(0))
        assert tally.shape == (small_grid.n_cells,)
        assert tally.sum() == 0

    def test_outside_weights_ignored(self, small_grid):
        tally = small_grid.tally(
            np.array([50.0]), np.array([50.0]), weights=np.array([100.0])
        )
        assert tally.sum() == 0


class TestCellCenters:
    def test_center_cell_round_trip(self, small_grid):
        rows, cols = np.divmod(np.arange(small_grid.n_cells), small_grid.n_cols)
        lats = small_grid.region.south + (rows + 0.5) * small_grid.cell_deg
        lons = small_grid.region.west + (cols + 0.5) * small_grid.cell_deg
        idx = small_grid.cell_index(lats, lons)
        assert np.array_equal(idx, np.arange(small_grid.n_cells))


class TestJointTally:
    def test_population_and_nodes_aligned(self, small_grid):
        pop_lats = np.array([0.5, 5.5])
        pop_lons = np.array([0.5, 5.5])
        pop_w = np.array([100.0, 200.0])
        node_lats = np.array([0.6, 0.7, 5.4])
        node_lons = np.array([0.6, 0.7, 5.4])
        pop, nodes = joint_tally(
            small_grid, pop_lats, pop_lons, pop_w, node_lats, node_lons
        )
        cell_a = small_grid.cell_index(np.array([0.5]), np.array([0.5]))[0]
        cell_b = small_grid.cell_index(np.array([5.5]), np.array([5.5]))[0]
        assert pop[cell_a] == 100.0 and nodes[cell_a] == 2
        assert pop[cell_b] == 200.0 and nodes[cell_b] == 1
