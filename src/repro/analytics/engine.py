"""Incremental maintenance of the paper's headline metrics.

The batch experiments in :mod:`repro.core` recompute each result family
from the full dataset: distance-preference histograms count every
region's node pairs over its distinct locations, the density regression
re-tallies every node into its patch grid, and the AS dispersion figures
walk every AS.  The streaming path publishes a new generation every few
delta batches, so an :class:`AnalyticsEngine` maintains the same state
*differentially*:

- **pair/link histograms** (Section V): a delta changes only the rows
  it adds or moves, so the engine subtracts each changed row's pair
  contributions against the old region membership and adds them back
  against the new one.  Haversine distances are bitwise symmetric, so
  each pair lands in the same bin as in a from-scratch
  :func:`~repro.core.distance.pair_counts` and the integer histograms
  stay bit-identical to it, not merely close.
- **grid occupancy / alpha** (Section IV): per-region patch tallies are
  integer bincounts, decremented at a moved row's old cell and
  incremented at its new one; the superlinearity exponent is re-fitted
  from the maintained tally (the fit itself is O(cells), cheap).
- **AS dispersion** (Section VI): the per-AS table
  (:func:`~repro.core.asgeo.as_table`, memoised by the attached
  :class:`~repro.serve.index.SnapshotIndex`) is built once per metric
  snapshot; the engine aggregates it (hull-zero fraction, locations per
  AS, AS degree) in O(n_ases).
- **link domains** (Table VI): intradomain/interdomain link tallies are
  adjusted for appended links and for old links incident to remapped
  rows.

The update cost per batch is O(changed_rows * region_size + n_links).
A recompute costs O(distinct_points^2) per region, and a delta stream
jitters every add and move to a new point, so the distinct points, and
with them the recompute, grow with the stream while the update does not
(see ``benchmarks/bench_analytics.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bgp.table import UNMAPPED_ASN
from repro.core.asgeo import AsTable, as_table
from repro.core.distance import (
    N_BINS,
    PAPER_BIN_MILES,
    pair_counts,
    preference_from_counts,
    waxman_fit,
)
from repro.core.stats import loglog_fit
from repro.datasets.mapped import MappedDataset
from repro.errors import AnalysisError, AnalyticsError
from repro.geo.distance import haversine_miles
from repro.geo.grid import PAPER_PATCH_ARCMIN, PatchGrid
from repro.geo.regions import STUDY_REGIONS, Region
from repro.ingest.deltas import DeltaBatch
from repro.population.worldmodel import PopulationField
from repro.serve.index import DEFAULT_BIN_MILES, SnapshotIndex

#: Regions with fewer mapped nodes than this get no preference metrics
#: (mirrors :func:`repro.core.distance.preference_function`).
MIN_REGION_NODES = 10


@dataclass
class RegionState:
    """Maintained per-region metric state.

    Attributes:
        region: the region box.
        bin_miles: distance-bin width (paper value where defined).
        edges: the ``N_BINS + 1`` histogram edges.
        mask: boolean region membership per dataset row.
        n_nodes: mapped nodes inside the region.
        pair_counts: node pairs per distance bin (int64, exact).
        link_counts: links per distance bin (int64, exact).
        grid: the region's 75' patch grid.
        occupancy: nodes per grid cell (int64, exact).
        population: persons per grid cell (static; None without a field).
    """

    region: Region
    bin_miles: float
    edges: np.ndarray
    mask: np.ndarray
    n_nodes: int
    pair_counts: np.ndarray
    link_counts: np.ndarray
    grid: PatchGrid
    occupancy: np.ndarray
    population: np.ndarray | None = None


@dataclass
class EngineStats:
    """Counters describing the engine's work so far."""

    applied_batches: int = 0
    seeded_unix: float = 0.0
    regions: list[str] = field(default_factory=list)


def _pairs_involving(
    lats: np.ndarray,
    lons: np.ndarray,
    members: np.ndarray,
    touched: np.ndarray,
    bin_miles: float,
) -> np.ndarray:
    """Histogram of pairs {t, m} with t in ``touched``, m in ``members``.

    ``members`` is the region membership (global rows) and ``touched``
    a subset of it.  Each qualifying pair is counted
    exactly once.  Haversine is bitwise symmetric, so every distance
    equals the one :func:`~repro.core.distance.pair_counts` bins for
    the same pair, which is what keeps incremental subtraction and
    addition bit-exact.
    """
    edges = np.arange(N_BINS + 1, dtype=float) * bin_miles
    hist = np.zeros(N_BINS, dtype=np.int64)
    for t in touched.tolist():
        others = members[members != t]
        if others.size:
            d = haversine_miles(lats[t], lons[t], lats[others], lons[others])
            hist += np.histogram(d, bins=edges)[0]
    if touched.size > 1:
        # Touched-touched pairs were counted from both endpoints;
        # subtract one copy.
        hist -= pair_counts(lats[touched], lons[touched], bin_miles, N_BINS)
    return hist


def _classified_links(
    asns: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[int, int]:
    """``(intradomain, interdomain)`` counts of the links ``(a, b)``."""
    if a.size == 0:
        return 0, 0
    as_a = asns[a]
    as_b = asns[b]
    known = (as_a != UNMAPPED_ASN) & (as_b != UNMAPPED_ASN)
    intra = int(np.count_nonzero(known & (as_a == as_b)))
    inter = int(np.count_nonzero(known & (as_a != as_b)))
    return intra, inter


class AnalyticsEngine:
    """Differentially maintained paper metrics over an evolving snapshot.

    Seeding from a dataset performs the one full from-scratch
    computation; each :meth:`apply` then advances the state by one
    delta batch in time proportional to the rows the batch touched.
    The maintained integer state (pair/link histograms, grid
    occupancy, domain tallies) is bit-identical to re-seeding from the
    final dataset — the differential tests in
    ``tests/test_analytics.py`` assert exactly that.
    """

    def __init__(
        self,
        dataset: MappedDataset,
        *,
        regions: tuple[Region, ...] = STUDY_REGIONS,
        population: PopulationField | None = None,
        patch_arcmin: float = PAPER_PATCH_ARCMIN,
        index: SnapshotIndex | None = None,
    ) -> None:
        if index is not None and index.partition is not None:
            raise AnalyticsError(
                "analytics requires a full (non-partition) index"
            )
        self._dataset = dataset
        self._index = index
        self.gen = 1 if index is None else int(index.gen)
        self.stats = EngineStats(regions=[r.name for r in regions])
        self.regions: dict[str, RegionState] = {}
        for region in regions:
            self.regions[region.name] = self._seed_region(
                dataset, region, population, patch_arcmin
            )
        intra, inter = _classified_links(
            dataset.asns,
            dataset.links[:, 0] if dataset.n_links else np.empty(0, np.intp),
            dataset.links[:, 1] if dataset.n_links else np.empty(0, np.intp),
        )
        self.intradomain_links = intra
        self.interdomain_links = inter

    @staticmethod
    def _seed_region(
        dataset: MappedDataset,
        region: Region,
        population: PopulationField | None,
        patch_arcmin: float,
    ) -> RegionState:
        """From-scratch region state (pair counts over distinct points)."""
        bin_miles = PAPER_BIN_MILES.get(region.name, DEFAULT_BIN_MILES)
        edges = np.arange(N_BINS + 1, dtype=float) * bin_miles
        mask = region.contains_mask(dataset.lats, dataset.lons)
        n_nodes = int(np.count_nonzero(mask))
        grid = PatchGrid(region=region, cell_arcmin=patch_arcmin)
        idx = grid.cell_index(dataset.lats, dataset.lons)
        idx = idx[idx >= 0]
        occupancy = np.bincount(idx, minlength=grid.n_cells).astype(np.int64)
        pop_cells = None
        if population is not None:
            pop_cells = grid.tally(
                population.lats, population.lons, weights=population.weights
            )
        pairs = pair_counts(
            dataset.lats[mask], dataset.lons[mask], bin_miles, N_BINS
        )
        link_counts = np.zeros(N_BINS, dtype=np.int64)
        if dataset.n_links:
            keep = mask[dataset.links[:, 0]] & mask[dataset.links[:, 1]]
            if keep.any():
                a = dataset.links[keep, 0]
                b = dataset.links[keep, 1]
                lengths = haversine_miles(
                    dataset.lats[a], dataset.lons[a],
                    dataset.lats[b], dataset.lons[b],
                )
                link_counts = np.histogram(lengths, bins=edges)[0].astype(
                    np.int64
                )
        return RegionState(
            region=region,
            bin_miles=bin_miles,
            edges=edges,
            mask=mask,
            n_nodes=n_nodes,
            pair_counts=pairs,
            link_counts=link_counts,
            grid=grid,
            occupancy=occupancy,
            population=pop_cells,
        )

    # -- incremental update ---------------------------------------------------

    def apply(self, batch: DeltaBatch, index: SnapshotIndex) -> None:
        """Advance the maintained state past one applied delta batch.

        ``index`` must be the snapshot index *after* the batch was
        applied (the ingester hands exactly that to its observer).

        Raises:
            AnalyticsError: when ``index`` is not one generation ahead
                of the engine's state — the caller should re-seed.
        """
        if index.gen != self.gen + 1:
            raise AnalyticsError(
                f"engine at gen {self.gen} cannot apply a batch producing "
                f"gen {index.gen}; re-seed from the current dataset"
            )
        old = self._dataset
        new = index.dataset
        n_old = old.n_nodes
        added = np.arange(n_old, new.n_nodes, dtype=np.intp)
        moved = index.rows_of(batch.move_addresses)
        remapped = index.rows_of(batch.remap_addresses)
        if (moved.size and moved.min() < 0) or (
            remapped.size and remapped.min() < 0
        ):
            raise AnalyticsError("delta references rows the index lacks")
        moved_old = moved[moved < n_old]
        changed = np.unique(np.concatenate([added, moved])).astype(np.intp)
        new_link_rows = np.arange(old.n_links, new.n_links, dtype=np.intp)

        for state in self.regions.values():
            self._apply_region(
                state, old, new, added, moved, moved_old, changed,
                new_link_rows,
            )

        # Table VI tallies: new links classify with the patched ASNs;
        # old links incident to a remapped row reclassify.
        if remapped.size and old.n_links:
            links = old.links
            incident = np.flatnonzero(
                np.isin(links[:, 0], remapped)
                | np.isin(links[:, 1], remapped)
            )
            if incident.size:
                a = links[incident, 0]
                b = links[incident, 1]
                intra, inter = _classified_links(old.asns, a, b)
                self.intradomain_links -= intra
                self.interdomain_links -= inter
                intra, inter = _classified_links(new.asns, a, b)
                self.intradomain_links += intra
                self.interdomain_links += inter
        if new_link_rows.size:
            intra, inter = _classified_links(
                new.asns,
                new.links[new_link_rows, 0],
                new.links[new_link_rows, 1],
            )
            self.intradomain_links += intra
            self.interdomain_links += inter

        self._dataset = new
        self._index = index
        self.gen = int(index.gen)
        self.stats.applied_batches += 1

    def _apply_region(
        self,
        state: RegionState,
        old: MappedDataset,
        new: MappedDataset,
        added: np.ndarray,
        moved: np.ndarray,
        moved_old: np.ndarray,
        changed: np.ndarray,
        new_link_rows: np.ndarray,
    ) -> None:
        region = state.region
        old_mask = state.mask
        new_mask = np.concatenate(
            [old_mask, region.contains_mask(new.lats[added], new.lons[added])]
        ) if added.size else old_mask.copy()
        if moved.size:
            new_mask[moved] = region.contains_mask(
                new.lats[moved], new.lons[moved]
            )

        # Pair histogram: remove changed rows' pairs against the old
        # membership, re-add them against the new one.  Unchanged
        # pairs contribute identically before and after, so integer
        # subtraction/addition reproduces the from-scratch count.
        touched_old = moved_old[old_mask[moved_old]]
        if touched_old.size:
            members = np.flatnonzero(old_mask)
            state.pair_counts -= _pairs_involving(
                old.lats, old.lons, members, touched_old, state.bin_miles
            )
        touched_new = changed[new_mask[changed]]
        if touched_new.size:
            members = np.flatnonzero(new_mask)
            state.pair_counts += _pairs_involving(
                new.lats, new.lons, members, touched_new, state.bin_miles
            )
        # Link histogram: old links incident to a moved row may have
        # changed length or membership; appended links just add.
        if moved_old.size and old.n_links:
            links = old.links
            incident = np.flatnonzero(
                np.isin(links[:, 0], moved_old)
                | np.isin(links[:, 1], moved_old)
            )
            if incident.size:
                a = links[incident, 0]
                b = links[incident, 1]
                was = old_mask[a] & old_mask[b]
                if was.any():
                    lengths = haversine_miles(
                        old.lats[a[was]], old.lons[a[was]],
                        old.lats[b[was]], old.lons[b[was]],
                    )
                    state.link_counts -= np.histogram(
                        lengths, bins=state.edges
                    )[0]
                now = new_mask[a] & new_mask[b]
                if now.any():
                    lengths = haversine_miles(
                        new.lats[a[now]], new.lons[a[now]],
                        new.lats[b[now]], new.lons[b[now]],
                    )
                    state.link_counts += np.histogram(
                        lengths, bins=state.edges
                    )[0]
        if new_link_rows.size:
            a = new.links[new_link_rows, 0]
            b = new.links[new_link_rows, 1]
            both = new_mask[a] & new_mask[b]
            if both.any():
                lengths = haversine_miles(
                    new.lats[a[both]], new.lons[a[both]],
                    new.lats[b[both]], new.lons[b[both]],
                )
                state.link_counts += np.histogram(
                    lengths, bins=state.edges
                )[0]

        # Grid occupancy: decrement moved rows' old cells, increment
        # every changed row's new cell (integers, so order-free).
        if moved_old.size:
            idx = state.grid.cell_index(
                old.lats[moved_old], old.lons[moved_old]
            )
            idx = idx[idx >= 0]
            if idx.size:
                np.subtract.at(state.occupancy, idx, 1)
        if changed.size:
            idx = state.grid.cell_index(new.lats[changed], new.lons[changed])
            idx = idx[idx >= 0]
            if idx.size:
                np.add.at(state.occupancy, idx, 1)

        state.mask = new_mask
        state.n_nodes = int(np.count_nonzero(new_mask))

    # -- metric snapshot ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The current generation's metric values, flat name -> float.

        Region metrics suffix the region name (``waxman_l.US``); fits
        that cannot be made (degenerate windows, empty regions) are
        simply absent rather than NaN, so the store never has to
        represent non-finite values.
        """
        ds = self._dataset
        out: dict[str, float] = {
            "nodes": float(ds.n_nodes),
            "links": float(ds.n_links),
            "intradomain_links": float(self.intradomain_links),
            "interdomain_links": float(self.interdomain_links),
        }
        classified = self.intradomain_links + self.interdomain_links
        if classified:
            out["intradomain_share"] = self.intradomain_links / classified

        table = self._as_table()
        out["ases"] = float(table.n_ases)
        if table.n_ases:
            out["hull_zero_fraction"] = float(np.mean(table.hull_area == 0.0))
            out["mean_locations_per_as"] = float(np.mean(table.n_locations))
            out["mean_as_degree"] = float(np.mean(table.degree))

        for name, state in self.regions.items():
            out[f"region_nodes.{name}"] = float(state.n_nodes)
            out[f"occupied_cells.{name}"] = float(
                np.count_nonzero(state.occupancy)
            )
            if state.population is not None:
                try:
                    fit = loglog_fit(
                        state.population, state.occupancy.astype(float)
                    )
                    out[f"alpha.{name}"] = float(fit.slope)
                except AnalysisError:
                    pass
            if state.n_nodes >= MIN_REGION_NODES:
                pref = preference_from_counts(
                    name,
                    state.bin_miles,
                    state.link_counts,
                    state.pair_counts,
                    state.n_nodes,
                )
                try:
                    out[f"waxman_l.{name}"] = float(waxman_fit(pref).l_miles)
                except AnalysisError:
                    pass
        return out

    def _as_table(self) -> AsTable:
        """The per-AS table: the attached index's memoised one, else a
        fresh build over the maintained dataset."""
        if self._index is not None:
            return self._index.as_table()
        return as_table(self._dataset)

    @property
    def dataset(self) -> MappedDataset:
        """The dataset the maintained state describes."""
        return self._dataset
