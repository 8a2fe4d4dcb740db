"""Indexed in-memory view of one snapshot, queried many times.

A :class:`SnapshotIndex` wraps a serialized :class:`MappedDataset` with
every lookup structure the query server needs, so request handling
never touches O(n) scans.  Each structure is built on its first read
and memoised, so an index pays only for what is asked of it:

- address -> node row via one sorted-array ``searchsorted`` (O(log n),
  vectorised for batches);
- node degree from the link table;
- the per-AS table (node/location counts, centroid, convex-hull extent,
  AS-graph degree; :func:`repro.core.asgeo.as_table`), built on the
  first ``/as`` question;
- a grid-bucketed spatial index (the paper's 75-arc-minute patches)
  backing nearest-node and radius queries by ring search;
- per-region distance-preference tables (Section V's ``f_hat(d)``,
  :func:`repro.core.distance.preference_function`), one per region.

The dataset is read-only and the index immutable after construction,
so it is safe for concurrent readers; the only mutations are the memos.
Streaming updates go through :meth:`SnapshotIndex.apply_delta`, which
patches the dataset and returns a *new* index over it, one generation
on, whose memos start empty.  There is no on-disk cache of the derived
structures, because building them costs a few milliseconds.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.bgp.table import UNMAPPED_ASN
from repro.core.asgeo import AsTable, as_table
from repro.core.distance import (
    N_BINS,
    PAPER_BIN_MILES,
    DistancePreference,
    f_hat_at,
    preference_function,
)
from repro.datasets.mapped import MappedDataset
from repro.errors import AnalysisError, ServeError
from repro.geo.distance import haversine_miles
from repro.geo.regions import Region, WORLD
from repro.obs.report import dataset_digest

#: Spatial-index cell edge in arc-minutes (the paper's patch size).
DEFAULT_CELL_ARCMIN = 75.0
#: Bin width for distance-preference tables of non-paper regions.
DEFAULT_BIN_MILES = 35.0
#: Miles per degree of latitude (conservative ring-search bound).
_MILES_PER_DEG = 69.0


def _as_record(dataset: MappedDataset, table: AsTable, i: int) -> dict:
    """The ``/as/<asn>`` payload of the AS at position ``i``: its
    :class:`~repro.core.asgeo.AsTable` row (size, degree, centroid and
    hull extent) plus up to five sample addresses in dataset order."""
    sample = dataset.addresses[table.nodes(i)[:5]]
    return {
        "asn": int(table.asns[i]),
        "n_nodes": int(table.n_nodes[i]),
        "n_locations": int(table.n_locations[i]),
        "degree": int(table.degree[i]),
        "centroid_lat": float(table.centroid_lat[i]),
        "centroid_lon": float(table.centroid_lon[i]),
        "hull_area_sq_miles": float(table.hull_area[i]),
        "sample_addresses": [int(a) for a in sample],
    }


@dataclass
class PartitionData:
    """Full-snapshot facts a shard partition must answer from.

    A partition index holds only its owned slice of the node table, but
    some answers are facts about the *whole* snapshot: node degrees
    count links to nodes on other shards, AS summaries span shards, and
    a distance-preference table counts links and node pairs across the
    whole region.  This record carries exactly those facts:

    Attributes:
        addr_lo, addr_hi: the owned half-open address range (None means
            unbounded on that side).
        degrees: full-table degree of each owned node, aligned with the
            partition's row order.
        as_records: precomputed ``/as`` payload per *owned* AS (an AS is
            owned by the shard whose range contains its minimum
            interface address, so exactly one shard answers).
        full: the whole snapshot.  A shard digests it for
            ``snapshot_hash`` (so every shard of one snapshot agrees)
            and computes a region's distance-preference table from it
            exactly as a single process does.
    """

    addr_lo: int | None
    addr_hi: int | None
    degrees: np.ndarray
    as_records: dict[int, dict]
    full: MappedDataset


class SnapshotIndex:
    """Read-optimised lookup structures over one mapped snapshot."""

    def __init__(
        self,
        dataset: MappedDataset,
        cell_arcmin: float = DEFAULT_CELL_ARCMIN,
        *,
        partition: PartitionData | None = None,
    ) -> None:
        start = time.perf_counter()
        self.dataset = dataset
        self.partition = partition
        self.cell_arcmin = float(cell_arcmin)
        # The snapshot that the content digest and the preference
        # tables describe: a partition's is the whole one.
        self._full = dataset if partition is None else partition.full
        # The content digest is lazy: a full-table sha over the dataset
        # costs milliseconds, and the per-batch rebuild in apply_delta
        # should not pay it — publishers and health endpoints force it
        # when they actually need it (see the snapshot_hash property).
        self._snapshot_hash: str | None = None

        # Spatial grid geometry.
        self._region = WORLD
        self._cell_deg = cell_arcmin / 60.0
        self._n_rows = max(1, int(np.ceil(self._region.lat_span / self._cell_deg)))
        self._n_cols = max(1, int(np.ceil(self._region.lon_span / self._cell_deg)))

        # Lookup structures (address order, degrees, spatial grid) are
        # memos built on first read, like the content digest: a per-batch
        # apply_delta builds an index that the ingest process may never
        # query.  Each memo is one tuple assigned at once, so concurrent
        # first readers may both build it but never see half of one.
        self._addr_memo: tuple[np.ndarray, np.ndarray] | None = None
        self._degree_memo: np.ndarray | None = (
            None if partition is None else partition.degrees
        )
        self._grid_memo: (
            tuple[np.ndarray, np.ndarray, dict[int, tuple[int, int]]] | None
        ) = None

        # Per-AS table: lazy, like the content digest (see as_table).  A
        # partition ships precomputed full-snapshot records for its
        # owned ASes instead (see build_partition).
        self._as_table: AsTable | None = None

        # Distance-preference tables: lazy, memoised per region.
        self._pref_lock = threading.Lock()
        self._pref_tables: dict[str, DistancePreference | AnalysisError] = {}

        self.gen = 1
        self.built_unix = time.time()
        self.build_seconds = time.perf_counter() - start

    @property
    def snapshot_hash(self) -> str:
        """Content digest of the full dataset (computed lazily, cached)."""
        if self._snapshot_hash is None:
            self._snapshot_hash = dataset_digest(self._full)
        return self._snapshot_hash

    # -- lookup structures (memos) --------------------------------------------

    @property
    def _addr_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """Address -> row: ``(stable argsort of the addresses, the sorted
        addresses)``, searched by binary search per lookup."""
        memo = self._addr_memo
        if memo is None:
            order = np.argsort(self.dataset.addresses, kind="stable")
            memo = self._addr_memo = (order, self.dataset.addresses[order])
        return memo

    @property
    def _addr_order(self) -> np.ndarray:
        return self._addr_lookup[0]

    @property
    def _sorted_addresses(self) -> np.ndarray:
        return self._addr_lookup[1]

    @property
    def _degrees(self) -> np.ndarray:
        """Node degree from the link table.  A partition's degrees are a
        slice of the full table (links to other shards still count)."""
        memo = self._degree_memo
        if memo is None:
            ds = self.dataset
            memo = np.zeros(ds.n_nodes, dtype=np.int64)
            if ds.n_links:
                np.add.at(memo, ds.links.ravel(), 1)
            self._degree_memo = memo
        return memo

    @property
    def _grid(self) -> tuple[np.ndarray, np.ndarray, dict[int, tuple[int, int]]]:
        """Spatial grid: every node bucketed into a 75' world patch, as
        ``(cell per node, node rows in cell order, cell -> (lo, hi)
        slice of that order)``."""
        memo = self._grid_memo
        if memo is None:
            cells = self._cell_of(self.dataset.lats, self.dataset.lons)
            order = np.argsort(cells, kind="stable")
            sorted_cells = cells[order]
            first = np.ones(sorted_cells.size, dtype=bool)
            first[1:] = sorted_cells[1:] != sorted_cells[:-1]
            starts = np.flatnonzero(first)
            stops = np.append(starts[1:], sorted_cells.size)
            slices = dict(
                zip(
                    sorted_cells[starts].tolist(),
                    zip(starts.tolist(), stops.tolist()),
                )
            )
            memo = self._grid_memo = (cells, order, slices)
        return memo

    @property
    def _cells(self) -> np.ndarray:
        return self._grid[0]

    @property
    def _cell_order(self) -> np.ndarray:
        return self._grid[1]

    @property
    def _cell_slices(self) -> dict[int, tuple[int, int]]:
        return self._grid[2]

    # -- partition builds ----------------------------------------------------

    @classmethod
    def build_partition(
        cls,
        source: MappedDataset | str | Path,
        addr_lo: int | None,
        addr_hi: int | None,
        cell_arcmin: float = DEFAULT_CELL_ARCMIN,
    ) -> "SnapshotIndex":
        """Build the index for one contiguous address range of a snapshot.

        The returned index owns the nodes with ``addr_lo <= address <
        addr_hi`` (``None`` leaves a side unbounded) and answers every
        owned-row query bit-identically to a full index: degrees are
        sliced from the full link table, ``/as`` records for owned ASes
        (minimum interface address in range) are computed over the full
        snapshot, and ``snapshot_hash`` is the full dataset's digest so
        all shards of one snapshot agree.

        The index also keeps the full snapshot itself
        (:attr:`PartitionData.full`), so any shard answers
        ``/distance-preference`` with the same memoised
        :func:`~repro.core.distance.preference_function` call a single
        process makes.
        """
        if isinstance(source, MappedDataset):
            dataset = source
        else:
            from repro.datasets.serialize import load_dataset

            dataset = load_dataset(source)
        addresses = dataset.addresses
        owned_mask = np.ones(dataset.n_nodes, dtype=bool)
        if addr_lo is not None:
            owned_mask &= addresses >= addr_lo
        if addr_hi is not None:
            owned_mask &= addresses < addr_hi
        owned_rows = np.flatnonzero(owned_mask)

        degrees = np.zeros(dataset.n_nodes, dtype=np.int64)
        local = np.full(dataset.n_nodes, -1, dtype=np.intp)
        local[owned_rows] = np.arange(owned_rows.size)
        if dataset.n_links:
            np.add.at(degrees, dataset.links.ravel(), 1)
            both = owned_mask[dataset.links[:, 0]] & owned_mask[dataset.links[:, 1]]
            part_links = local[dataset.links[both]]
        else:
            part_links = np.empty((0, 2), dtype=np.intp)
        if not part_links.size:
            part_links = np.empty((0, 2), dtype=np.intp)

        part = MappedDataset(
            label=dataset.label,
            kind=dataset.kind,
            addresses=addresses[owned_rows],
            lats=dataset.lats[owned_rows],
            lons=dataset.lons[owned_rows],
            asns=dataset.asns[owned_rows],
            links=part_links,
        )

        # AS ownership: the shard whose range holds the AS's minimum
        # interface address serves its (full-snapshot) record.
        table = as_table(dataset)
        as_records: dict[int, dict] = {}
        if table.n_ases:
            min_addrs = np.minimum.reduceat(
                addresses[table.rows], table.offsets[:-1]
            )
            owned = np.ones(table.n_ases, dtype=bool)
            if addr_lo is not None:
                owned &= min_addrs >= addr_lo
            if addr_hi is not None:
                owned &= min_addrs < addr_hi
            for i in np.flatnonzero(owned).tolist():
                as_records[int(table.asns[i])] = _as_record(dataset, table, i)

        pdata = PartitionData(
            addr_lo=None if addr_lo is None else int(addr_lo),
            addr_hi=None if addr_hi is None else int(addr_hi),
            degrees=degrees[owned_rows],
            as_records=as_records,
            full=dataset,
        )
        return cls(part, cell_arcmin, partition=pdata)

    # -- delta updates -------------------------------------------------------

    def apply_delta(self, batch) -> "SnapshotIndex":
        """A new index, one ``gen`` on, over this snapshot patched by one
        delta batch (:func:`~repro.ingest.apply.patch_dataset`).  All its
        memos (lookup structures, content digest, per-AS table, distance
        preference) start empty, exactly as in a fresh index.

        Raises:
            IngestError: when the batch does not fit this snapshot.
            ServeError: on a partition index — deltas apply to the full
                snapshot; shards receive whole published generations.
        """
        if self.partition is not None:
            raise ServeError(
                "apply_delta requires a full (non-partition) index"
            )
        from repro.ingest.apply import patch_dataset

        dataset, _ = patch_dataset(self.dataset, batch)
        new = SnapshotIndex(dataset, self.cell_arcmin)
        new.gen = self.gen + 1
        return new

    # -- address lookups -----------------------------------------------------

    def row_of(self, address: int) -> int:
        """Node row of an address, or -1 when the snapshot lacks it."""
        pos = int(np.searchsorted(self._sorted_addresses, address))
        if (
            pos < self._sorted_addresses.size
            and self._sorted_addresses[pos] == address
        ):
            return int(self._addr_order[pos])
        return -1

    def rows_of(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`row_of`: one searchsorted for the whole batch."""
        addresses = np.asarray(addresses, dtype=np.int64)
        pos = np.searchsorted(self._sorted_addresses, addresses)
        pos = np.clip(pos, 0, max(self._sorted_addresses.size - 1, 0))
        if self._sorted_addresses.size == 0:
            return np.full(addresses.shape, -1, dtype=np.intp)
        found = self._sorted_addresses[pos] == addresses
        rows = np.where(found, self._addr_order[pos], -1)
        return rows.astype(np.intp)

    def node_record(self, row: int) -> dict:
        """JSON-ready facts about one node row."""
        ds = self.dataset
        asn = int(ds.asns[row])
        return {
            "address": int(ds.addresses[row]),
            "lat": float(ds.lats[row]),
            "lon": float(ds.lons[row]),
            "asn": None if asn == UNMAPPED_ASN else asn,
            "degree": int(self._degrees[row]),
        }

    def locate(self, address: int) -> dict | None:
        """Coordinates, origin AS, and degree of one address (or None)."""
        row = self.row_of(address)
        return None if row < 0 else self.node_record(row)

    def locate_many(self, addresses: list[int]) -> list[dict | None]:
        """Batch :meth:`locate` through the vectorised row lookup.

        The micro-batcher's flush path: one ``searchsorted`` resolves
        every address in the batch.
        """
        if not addresses:
            return []
        rows = self.rows_of(np.asarray(addresses, dtype=np.int64))
        return [
            None if row < 0 else self.node_record(int(row)) for row in rows
        ]

    # -- spatial queries -----------------------------------------------------

    def _cell_of(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Flat grid cell per point; out-of-box points clip to the edge."""
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        rows = np.clip(
            np.floor((lats - self._region.south) / self._cell_deg).astype(np.intp),
            0,
            self._n_rows - 1,
        )
        cols = np.clip(
            np.floor((lons - self._region.west) / self._cell_deg).astype(np.intp),
            0,
            self._n_cols - 1,
        )
        return rows * self._n_cols + cols

    def _cell_nodes(self, row: int, col: int) -> np.ndarray:
        """Node rows bucketed in grid cell (row, col); empty when none."""
        lo_hi = self._cell_slices.get(row * self._n_cols + col)
        if lo_hi is None:
            return np.empty(0, dtype=np.intp)
        lo, hi = lo_hi
        return self._cell_order[lo:hi]

    def _wrap_cols(self, col: int, reach: int) -> list[int]:
        """Distinct columns within cyclic distance ``reach`` of ``col``.

        Longitude wraps at the antimeridian, so the column axis is
        cyclic: a query near lon 180 must also search cells near
        lon -180.  When the window covers the whole circle, every
        column qualifies exactly once.
        """
        if 2 * reach + 1 >= self._n_cols:
            return list(range(self._n_cols))
        return [(c % self._n_cols) for c in range(col - reach, col + reach + 1)]

    def _ring_nodes(self, row: int, col: int, ring: int) -> np.ndarray:
        """Node rows in all cells at cyclic Chebyshev distance ``ring``.

        Row distance is plain (latitude does not wrap); column distance
        is cyclic.  Successive rings partition the grid, so ring search
        never revisits a cell.
        """
        if ring == 0:
            return self._cell_nodes(row, col)
        parts: list[np.ndarray] = []
        max_dcol = self._n_cols // 2
        lo_r, hi_r = row - ring, row + ring
        for c in self._wrap_cols(col, min(ring, max_dcol)):
            if lo_r >= 0:
                parts.append(self._cell_nodes(lo_r, c))
            if hi_r < self._n_rows:
                parts.append(self._cell_nodes(hi_r, c))
        if ring <= max_dcol:
            # Side columns at cyclic distance exactly ``ring``; for an
            # even column count the two sides of the widest ring are
            # the same (antipodal) column — dedupe.
            sides = {(col - ring) % self._n_cols, (col + ring) % self._n_cols}
            for r in range(row - ring + 1, row + ring):
                if 0 <= r < self._n_rows:
                    for c in sides:
                        parts.append(self._cell_nodes(r, c))
        if not parts:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(parts)

    def _unexplored_bound(self, lat: float, ring: int) -> float:
        """Sound lower bound (miles) on the distance to unexplored cells.

        After fully exploring rings ``0..ring-1``, every unexplored
        point is either ``>= ring-1`` grid rows away in latitude (the
        latitude-difference distance bounds the great circle from
        below) or ``>= ring-1`` columns away, whose bound is the exact
        spherical distance from the query to a meridian ``(ring-1)``
        cells of longitude away — which goes to zero near the poles
        instead of overestimating, so a polar query keeps searching
        until the column window has wrapped the whole circle (at which
        point only the latitude bound remains).
        """
        d_lat = (ring - 1) * self._cell_deg * _MILES_PER_DEG
        if 2 * (ring - 1) + 1 >= self._n_cols:
            return d_lat
        dlam = min((ring - 1) * self._cell_deg, 90.0)
        sin_cross = np.cos(np.radians(lat)) * np.sin(np.radians(dlam))
        d_lon = float(
            np.degrees(np.arcsin(min(1.0, max(0.0, sin_cross))))
            * _MILES_PER_DEG
        )
        return min(d_lat, d_lon)

    def nearest(self, lat: float, lon: float, k: int = 1) -> list[dict]:
        """The ``k`` nodes nearest a point, closest first.

        Ring search over the patch grid: rings expand until the best
        ``k`` exact distances cannot be beaten by any unexplored cell.

        Raises:
            ServeError: on an invalid coordinate or ``k``.
        """
        lat, lon = check_point(lat, lon)
        if k < 1:
            raise ServeError(f"k must be >= 1, got {k}")
        if self.dataset.n_nodes == 0:
            return []
        query_cell = self._cell_of(np.array([lat]), np.array([lon]))[0]
        row, col = divmod(int(query_cell), self._n_cols)
        max_ring = max(self._n_rows, self._n_cols)
        cand_rows: list[np.ndarray] = []
        cand_dists: list[np.ndarray] = []
        n_found = 0
        for ring in range(max_ring + 1):
            if n_found >= k:
                kth = np.sort(np.concatenate(cand_dists))[k - 1]
                if kth <= self._unexplored_bound(lat, ring):
                    break
            nodes = self._ring_nodes(row, col, ring)
            if nodes.size:
                dists = np.asarray(
                    haversine_miles(
                        lat, lon, self.dataset.lats[nodes], self.dataset.lons[nodes]
                    )
                )
                cand_rows.append(nodes)
                cand_dists.append(dists)
                n_found += nodes.size
        all_rows = np.concatenate(cand_rows)
        all_dists = np.concatenate(cand_dists)
        # Ties break on address so the ordering is a total order that
        # shard-local top-k lists merge into without reshuffling.
        order = np.lexsort(
            (self.dataset.addresses[all_rows], all_dists)
        )[:k]
        return [
            {**self.node_record(int(all_rows[i])), "miles": float(all_dists[i])}
            for i in order
        ]

    def within_radius(
        self, lat: float, lon: float, radius_miles: float, limit: int = 1000
    ) -> list[dict]:
        """All nodes within ``radius_miles`` of a point, closest first.

        Raises:
            ServeError: on an invalid coordinate or radius.
        """
        lat, lon = check_point(lat, lon)
        if not np.isfinite(radius_miles) or radius_miles <= 0:
            raise ServeError(f"radius must be positive, got {radius_miles}")
        if self.dataset.n_nodes == 0:
            return []
        query_cell = self._cell_of(np.array([lat]), np.array([lon]))[0]
        row, col = divmod(int(query_cell), self._n_cols)
        radius_deg = radius_miles / _MILES_PER_DEG
        d_rows = int(np.ceil(radius_deg / self._cell_deg)) + 1
        # Column reach: a point within the radius lies within the
        # spherical distance-to-meridian bound, which collapses near the
        # poles — once the disc can reach a pole, longitude stops
        # constraining and every column is in play.
        cos_lat = float(np.cos(np.radians(lat)))
        sin_r = float(np.sin(np.radians(min(radius_deg, 90.0))))
        if abs(lat) + radius_deg >= 90.0 or sin_r >= cos_lat:
            d_cols = self._n_cols  # _wrap_cols caps this at a full circle
        else:
            max_dlam = float(np.degrees(np.arcsin(sin_r / cos_lat)))
            d_cols = int(np.ceil(max_dlam / self._cell_deg)) + 1
        parts: list[np.ndarray] = []
        for r in range(max(0, row - d_rows), min(self._n_rows, row + d_rows + 1)):
            for c in self._wrap_cols(col, d_cols):
                nodes = self._cell_nodes(r, c)
                if nodes.size:
                    parts.append(nodes)
        if not parts:
            return []
        nodes = np.concatenate(parts)
        dists = np.asarray(
            haversine_miles(
                lat, lon, self.dataset.lats[nodes], self.dataset.lons[nodes]
            )
        )
        keep = dists <= radius_miles
        nodes, dists = nodes[keep], dists[keep]
        order = np.lexsort((self.dataset.addresses[nodes], dists))[:limit]
        return [
            {**self.node_record(int(nodes[i])), "miles": float(dists[i])}
            for i in order
        ]

    # -- AS summaries --------------------------------------------------------

    def as_table(self) -> AsTable:
        """The per-AS table of this snapshot (computed lazily, cached).

        Raises:
            ServeError: on a partition, which serves per-AS records.
        """
        if self.partition is not None:
            raise ServeError("the AS table is unavailable on a partition")
        if self._as_table is None:
            self._as_table = as_table(self.dataset)
        return self._as_table

    def as_record(self, asn: int) -> dict | None:
        """The full ``/as/<asn>`` payload (None when unknown).

        The AS-table row plus up to five sample addresses in dataset
        order.  On a partition this is the precomputed full-snapshot
        record of an *owned* AS — byte-for-byte what a single-process
        index would build — so the coordinator can relay one shard's
        answer verbatim.
        """
        if self.partition is not None:
            return self.partition.as_records.get(asn)
        table = self.as_table()
        i = table.find(asn)
        return None if i < 0 else _as_record(self.dataset, table, i)

    @property
    def n_ases(self) -> int:
        """Number of mapped ASes (owned ASes, on a partition)."""
        if self.partition is not None:
            return len(self.partition.as_records)
        return self.as_table().n_ases

    # -- distance preference -------------------------------------------------

    def distance_preference(self, region: Region) -> DistancePreference:
        """The memoised ``f_hat(d)`` table for a region.

        The first call per region counts the region's links and node
        pairs (:func:`~repro.core.distance.preference_function`, whose
        pair counts come from :func:`~repro.core.distance.pair_counts`);
        later calls (and :meth:`f_of_d`) are dictionary hits.  A
        partition counts over the full snapshot it keeps, so every
        shard's table equals the single-process one.

        Raises:
            AnalysisError: when the region holds too few nodes; the
                failure itself is memoised so retries stay cheap.
        """
        with self._pref_lock:
            cached = self._pref_tables.get(region.name)
        if cached is None:
            bin_miles = PAPER_BIN_MILES.get(region.name, DEFAULT_BIN_MILES)
            try:
                cached = preference_function(
                    self._full, region, bin_miles, n_bins=N_BINS
                )
            except AnalysisError as exc:
                cached = exc
            with self._pref_lock:
                cached = self._pref_tables.setdefault(region.name, cached)
        if isinstance(cached, AnalysisError):
            raise cached
        return cached

    def f_of_d(self, region: Region, d: float) -> float | None:
        """``f_hat`` at distance ``d`` (None outside the populated range).

        Raises:
            AnalysisError: when the region has no preference table.
            ServeError: on a negative distance.
        """
        if not np.isfinite(d) or d < 0:
            raise ServeError(f"distance must be >= 0, got {d}")
        pref = self.distance_preference(region)
        return f_hat_at(pref, d)

    # -- bookkeeping ---------------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready index facts for ``/stats``."""
        facts = {
            "label": self.dataset.label,
            "kind": self.dataset.kind,
            "snapshot_hash": self.snapshot_hash,
            "gen": self.gen,
            "built_unix": round(self.built_unix, 3),
            "n_nodes": self.dataset.n_nodes,
            "n_links": self.dataset.n_links,
            "n_ases": self.n_ases,
            "n_grid_cells": len(self._cell_slices),
            "build_seconds": round(self.build_seconds, 6),
            "preference_tables": sorted(
                name
                for name, value in self._pref_tables.items()
                if not isinstance(value, AnalysisError)
            ),
        }
        if self.partition is not None:
            facts["partition"] = {
                "addr_lo": self.partition.addr_lo,
                "addr_hi": self.partition.addr_hi,
                "n_owned": self.dataset.n_nodes,
                "n_full_nodes": self._full.n_nodes,
            }
        return facts


def check_point(lat: float, lon: float) -> tuple[float, float]:
    """Validate one query coordinate.

    The coordinator does not call this: it relays the shards' ``/near``
    errors, which come from here, so both serving paths reject bad
    input with identical messages.

    Raises:
        ServeError: when either component is non-finite or out of range.
    """
    lat, lon = float(lat), float(lon)
    if not (np.isfinite(lat) and -90.0 <= lat <= 90.0):
        raise ServeError(f"latitude out of range: {lat}")
    if not (np.isfinite(lon) and -180.0 <= lon <= 180.0):
        raise ServeError(f"longitude out of range: {lon}")
    return lat, lon

