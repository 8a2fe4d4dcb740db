"""Arc-minute patch grids over a region.

Section IV of the paper subdivides each study region into patches of
75 x 75 arc-minutes (about 90 miles on a side at the latitudes studied)
and tallies population and routers/interfaces per patch.  The same grid
machinery also backs the grid-based pair-count approximation used by the
distance-preference analysis at large n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GeoError
from repro.geo.distance import haversine_miles
from repro.geo.regions import Region

#: The paper's patch edge, in arc-minutes.
PAPER_PATCH_ARCMIN = 75.0


@dataclass(frozen=True)
class PatchGrid:
    """A rectangular grid of equal-angle patches covering a region.

    Cells are indexed ``(row, col)`` with row 0 at the region's southern
    edge and col 0 at its western edge.  The final row/column may be
    fractionally smaller in angle if the region span is not an exact
    multiple of the cell size; points on the region boundary land in the
    last cell.

    Attributes:
        region: the covered bounding box.
        cell_arcmin: cell edge length in arc-minutes (same in lat and lon).
    """

    region: Region
    cell_arcmin: float = PAPER_PATCH_ARCMIN

    def __post_init__(self) -> None:
        if not (self.cell_arcmin > 0):
            raise GeoError(f"cell_arcmin must be positive, got {self.cell_arcmin}")

    @property
    def cell_deg(self) -> float:
        """Cell edge in degrees."""
        return self.cell_arcmin / 60.0

    @property
    def n_rows(self) -> int:
        """Number of rows (south to north)."""
        return max(1, int(np.ceil(self.region.lat_span / self.cell_deg - 1e-9)))

    @property
    def n_cols(self) -> int:
        """Number of columns (west to east)."""
        return max(1, int(np.ceil(self.region.lon_span / self.cell_deg - 1e-9)))

    @property
    def n_cells(self) -> int:
        """Total number of cells."""
        return self.n_rows * self.n_cols

    def cell_index(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Flat cell index for each point; -1 for points outside the region."""
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        rows = np.floor((lats - self.region.south) / self.cell_deg).astype(np.intp)
        cols = np.floor((lons - self.region.west) / self.cell_deg).astype(np.intp)
        inside = self.region.contains_mask(lats, lons)
        # Boundary points on the north/east edge snap into the last cell.
        rows = np.clip(rows, 0, self.n_rows - 1)
        cols = np.clip(cols, 0, self.n_cols - 1)
        flat = rows * self.n_cols + cols
        return np.where(inside, flat, -1)

    def tally(self, lats: np.ndarray, lons: np.ndarray,
              weights: np.ndarray | None = None) -> np.ndarray:
        """Sum per-cell weights (or counts) of the given points.

        Points outside the region are ignored.

        Returns:
            A 1-D array of length :attr:`n_cells` of per-cell totals.
        """
        idx = self.cell_index(lats, lons)
        keep = idx >= 0
        idx = idx[keep]
        if weights is None:
            w = np.ones(idx.shape[0], dtype=float)
        else:
            w = np.asarray(weights, dtype=float)[keep]
        return np.bincount(idx, weights=w, minlength=self.n_cells)

    def cell_edge_miles(self) -> float:
        """North-south cell edge length in miles.

        The latitude extent is longitude-independent; the paper quotes
        this as "about 90 miles on a side" for 75' cells (the east-west
        edge shrinks with cos(latitude)).
        """
        mid_lat, mid_lon = self.region.center
        half = self.cell_deg / 2.0
        return float(
            haversine_miles(mid_lat - half, mid_lon, mid_lat + half, mid_lon)
        )


def joint_tally(
    grid: PatchGrid,
    pop_lats: np.ndarray,
    pop_lons: np.ndarray,
    pop_weights: np.ndarray,
    node_lats: np.ndarray,
    node_lons: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (population, node count) pairs over a shared grid.

    This is the Section IV workload: one tally of weighted population
    points and one tally of router/interface points, aligned cell by cell.

    Returns:
        ``(population_per_cell, nodes_per_cell)``.
    """
    population = grid.tally(pop_lats, pop_lons, weights=pop_weights)
    nodes = grid.tally(node_lats, node_lons)
    return population, nodes
