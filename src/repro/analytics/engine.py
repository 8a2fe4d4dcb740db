"""The paper's headline metrics for one snapshot generation.

Each published generation's metrics are computed from scratch with the
batch instruments of :mod:`repro.core`, so the streaming path and the
paper's experiments share one implementation per concept:

- **distance preference** (Section V): the Waxman scale ``L`` per study
  region, fitted by :func:`~repro.core.distance.waxman_fit` to
  :func:`~repro.core.distance.preference_function`;
- **grid occupancy** (Section IV): nodes per region and the patches of
  the region's 75' :class:`~repro.geo.grid.PatchGrid` they occupy;
- **link domains** (Table VI): intradomain/interdomain link tallies
  from the dataset's domain masks;
- **AS dispersion** (Section VI): aggregates of the per-AS table
  (:func:`~repro.core.asgeo.as_table`, memoised by the attached
  :class:`~repro.serve.index.SnapshotIndex`).

A recompute is cheap because pair counts are taken over distinct
points, and a delta stream only places nodes at points the snapshot
already holds (see ``benchmarks/bench_analytics.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.asgeo import AsTable, as_table
from repro.core.distance import PAPER_BIN_MILES, preference_function, waxman_fit
from repro.datasets.mapped import MappedDataset
from repro.errors import AnalysisError, AnalyticsError
from repro.geo.grid import PatchGrid
from repro.geo.regions import STUDY_REGIONS
from repro.serve.index import DEFAULT_BIN_MILES, SnapshotIndex


class AnalyticsEngine:
    """The paper metrics of one snapshot, computed by the core instruments."""

    def __init__(
        self, dataset: MappedDataset, *, index: SnapshotIndex | None = None
    ) -> None:
        if index is not None and index.partition is not None:
            raise AnalyticsError(
                "analytics requires a full (non-partition) index"
            )
        self._dataset = dataset
        self._index = index

    def metrics(self) -> dict[str, float]:
        """The generation's metric values, flat name -> float.

        Region metrics suffix the region name (``waxman_l.US``); fits
        that cannot be made (degenerate windows, small regions) are
        simply absent rather than NaN, so the store never has to
        represent non-finite values.
        """
        ds = self._dataset
        intra = int(np.count_nonzero(ds.intradomain_mask()))
        inter = int(np.count_nonzero(ds.interdomain_mask()))
        out: dict[str, float] = {
            "nodes": float(ds.n_nodes),
            "links": float(ds.n_links),
            "intradomain_links": float(intra),
            "interdomain_links": float(inter),
        }
        if intra + inter:
            out["intradomain_share"] = intra / (intra + inter)

        table = self._as_table()
        out["ases"] = float(table.n_ases)
        if table.n_ases:
            out["hull_zero_fraction"] = float(np.mean(table.hull_area == 0.0))
            out["mean_locations_per_as"] = float(np.mean(table.n_locations))
            out["mean_as_degree"] = float(np.mean(table.degree))

        for region in STUDY_REGIONS:
            name = region.name
            mask = region.contains_mask(ds.lats, ds.lons)
            occupancy = PatchGrid(region=region).tally(ds.lats, ds.lons)
            out[f"region_nodes.{name}"] = float(np.count_nonzero(mask))
            out[f"occupied_cells.{name}"] = float(np.count_nonzero(occupancy))
            bin_miles = PAPER_BIN_MILES.get(name, DEFAULT_BIN_MILES)
            try:
                pref = preference_function(ds, region, bin_miles)
                out[f"waxman_l.{name}"] = float(waxman_fit(pref).l_miles)
            except AnalysisError:
                pass
        return out

    def _as_table(self) -> AsTable:
        """The per-AS table: the attached index's memoised one, else a
        fresh build over the dataset."""
        if self._index is not None:
            return self._index.as_table()
        return as_table(self._dataset)
